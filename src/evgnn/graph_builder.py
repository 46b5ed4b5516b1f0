"""Dynamic directed event-graph construction over per-pixel event queues.

The search range is spatiotemporally decoupled: a spatial window of
radius r_s (L1 for the prism, L2 for the cylinder) and a separate time
window 0 <= dt <= r_t. The entire stored graph state is a W x H grid of
fixed-depth ring buffers (one per pixel); edges are never materialized.
Neighbor search for a new event scans the spatial candidate window in a
canonical order:

    dy from -r_s to +r_s, then dx from -r_s to +r_s (row-major), where
    (dx, dy) = new minus neighbor; offsets failing the spatial predicate
    and out-of-bound pixels are skipped; within each queue entries are
    visited newest-first; the temporal predicate 0 <= dt <= r_t is applied
    per entry; the scan stops as soon as d_max neighbors are collected.

The new event is pushed into its queue only *after* its search completes
(search-then-push), so an event can never be its own neighbor. Events with
equal timestamps are valid neighbors when their stream index is smaller.

`brute_force_neighbors` is an independent reference over the full stream
prefix (plain dict-of-lists retention replay, no ring buffers).

`replay_build` replays search-then-push over a whole stream into flat
[N, d_max] neighbor arrays without a per-event loop, and its work per
event is a count or two per window offset plus the neighbours it keeps,
whatever the queue depth. Events are stable-sorted by pixel, so each
pixel's arrivals form one run in stream order. For event i and a window
offset, a binary search counts the arrivals at the neighbour pixel before
i; its queue at that moment is the last min(depth, count) of them, newest
first. Timestamps must never decrease (replay_build raises NonMonotoneTime
otherwise): then the queue entries within r_t of i are its newest ones, a
prefix of the scan. So a queue whose newest entry is older than r_t holds
no hit, and a second binary search, counting the hits, runs only where the
newest entry passes r_t. A running sum of these hit counts over the
offsets, in canonical order, gives the degree, the d_max early stop and
the entries scanned, and only the cells that keep a neighbour are
expanded. The offsets are walked in tranches of 2, 4, 8, ...; an event
leaves the walk once it holds d_max neighbours. A chunk holds at most
REPLAY_CELLS (event, offset) cells, which bounds the build's working
memory. An Adjacency holds the result and stores no edge offsets: an edge
is its neighbour's stream index (nbr_n) and the window slot it was found
at (nbr_o), and the window's K (dx, dy) pairs are kept once. Its
dependency levels, the batches of the engine's level schedules, are built
on first use and kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .event_io import Event, NonMonotoneTime

SHAPES = ("cylinder", "prism")
# (event, window offset) cells per replay_build chunk; bounds its memory.
REPLAY_CELLS = 1 << 16


class InvalidDims(ValueError):
    pass


class OutOfBoundsEvent(ValueError):
    pass


class InvalidSearchParams(ValueError):
    pass


@dataclass(frozen=True)
class SearchParams:
    """Neighbor search geometry.

    shape is prism (|dx| + |dy| <= r_s) or cylinder (dx^2 + dy^2 <= r_s^2),
    either with 0 <= dt <= r_t. d_max caps the neighbor count; queue_depth
    is the per-pixel queue length.
    """

    shape: str = "prism"
    r_s: int = 3
    r_t: int = 50_000
    d_max: int = 16
    queue_depth: int = 16

    def __post_init__(self):
        if self.shape not in SHAPES:
            raise InvalidSearchParams(f"unknown shape {self.shape!r}")
        if self.r_s < 0 or self.r_t < 0:
            raise InvalidSearchParams("radii must be non-negative")
        if self.d_max < 1 or self.queue_depth < 1:
            raise InvalidSearchParams("d_max and queue_depth must be >= 1")


@dataclass(frozen=True)
class Neighbor:
    """A valid past neighbor of a query event; offsets are new minus old."""

    n: int
    t: int
    p: int
    dx: int
    dy: int
    dt: int


@dataclass
class QueueEntry:
    t: int
    p: int
    n: int


class EventQueueGrid:
    """W x H ring buffers of the most recent events per pixel."""

    def __init__(self, width: int, height: int, depth: int = 16):
        if width < 1 or height < 1 or depth < 1:
            raise InvalidDims(f"bad grid dims ({width},{height},{depth})")
        self.width = width
        self.height = height
        self.depth = depth
        q = width * height
        self._t = np.zeros((q, depth), dtype=np.int64)
        self._p = np.zeros((q, depth), dtype=np.int64)
        self._n = np.zeros((q, depth), dtype=np.int64)
        self._count = np.zeros(q, dtype=np.int64)
        self._head = np.full(q, depth - 1, dtype=np.int64)  # newest slot

    def _check_bounds(self, x: int, y: int) -> int:
        if not (0 <= x < self.width and 0 <= y < self.height):
            raise OutOfBoundsEvent(
                f"({x},{y}) outside {self.width}x{self.height}")
        return y * self.width + x

    def entries(self, x: int, y: int) -> list[QueueEntry]:
        """Entries at (x, y), newest first."""
        qi = self._check_bounds(x, y)
        out = []
        head = int(self._head[qi])
        for k in range(int(self._count[qi])):
            slot = (head - k) % self.depth
            out.append(QueueEntry(int(self._t[qi, slot]),
                                  int(self._p[qi, slot]),
                                  int(self._n[qi, slot])))
        return out

    def push_event(self, ev: Event) -> QueueEntry | None:
        """Store ev newest-first; return the evicted oldest entry if full."""
        qi = self._check_bounds(ev.x, ev.y)
        evicted = None
        slot = (int(self._head[qi]) + 1) % self.depth
        if self._count[qi] == self.depth:
            evicted = QueueEntry(int(self._t[qi, slot]),
                                 int(self._p[qi, slot]),
                                 int(self._n[qi, slot]))
        else:
            self._count[qi] += 1
        self._t[qi, slot] = ev.t
        self._p[qi, slot] = ev.p
        self._n[qi, slot] = ev.n
        self._head[qi] = slot
        return evicted


def _spatial_ok(dx: int, dy: int, params: SearchParams) -> bool:
    """Spatial window test: L1 (prism) or L2 (cylinder) within r_s."""
    if params.shape == "prism":
        return abs(dx) + abs(dy) <= params.r_s
    return dx * dx + dy * dy <= params.r_s * params.r_s


def _full_ok(dx: int, dy: int, dt: int, params: SearchParams) -> bool:
    return 0 <= dt <= params.r_t and _spatial_ok(dx, dy, params)


def search_neighbors(grid: EventQueueGrid, ev: Event,
                     params: SearchParams) -> list[Neighbor]:
    """Queue-backed neighbor search; ev must not yet be in the grid."""
    grid._check_bounds(ev.x, ev.y)
    r = params.r_s
    out: list[Neighbor] = []
    for dy in range(-r, r + 1):
        yj = ev.y - dy
        if yj < 0 or yj >= grid.height:
            continue
        for dx in range(-r, r + 1):
            if not _spatial_ok(dx, dy, params):
                continue
            xj = ev.x - dx
            if xj < 0 or xj >= grid.width:
                continue
            for entry in grid.entries(xj, yj):
                dt = ev.t - entry.t
                if 0 <= dt <= params.r_t:
                    out.append(Neighbor(entry.n, entry.t, entry.p,
                                        dx, dy, dt))
                    if len(out) == params.d_max:
                        return out
    return out


def brute_force_neighbors(history: list[Event], ev: Event,
                          params: SearchParams) -> list[Neighbor]:
    """Reference search over the full stream prefix before ev.

    Retention is replayed first (only the queue_depth most recent events per
    pixel are eligible), then the shape predicate, canonical scan order, and
    d_max truncation. It matches search_neighbors exactly.
    """
    per_pixel: dict[tuple[int, int], list[Event]] = {}
    for old in history:
        per_pixel.setdefault((old.x, old.y), []).append(old)
    r = params.r_s
    out: list[Neighbor] = []
    for dy in range(-r, r + 1):
        yj = ev.y - dy
        for dx in range(-r, r + 1):
            if not _spatial_ok(dx, dy, params):
                continue
            xj = ev.x - dx
            retained = per_pixel.get((xj, yj))
            if retained is None:
                continue
            # Newest-first over the last queue_depth arrivals at this pixel.
            for old in reversed(retained[-params.queue_depth:]):
                dt = ev.t - old.t
                if _full_ok(dx, dy, dt, params):
                    out.append(Neighbor(old.n, old.t, old.p, dx, dy, dt))
                    if len(out) == params.d_max:
                        return out
    return out


def window_offsets(r_s: int, use_l2: bool) -> tuple[np.ndarray, np.ndarray]:
    """(dx, dy) of the prism / cylinder window in canonical scan order."""
    span = np.arange(-r_s, r_s + 1)
    dy, dx = (a.ravel() for a in np.meshgrid(span, span, indexing="ij"))
    if use_l2:
        ok = dx * dx + dy * dy <= r_s * r_s
    else:
        ok = np.abs(dx) + np.abs(dy) <= r_s
    return dx[ok], dy[ok]


def replay_build(xs, ys, ts, width, height, depth, r_t, d_max, win_dx,
                 win_dy):
    """Replay search-then-push over a whole stream.

    win_dx, win_dy is the search window in canonical scan order, as
    window_offsets returns it for the prism or the cylinder. Returns
    Adjacency's fields (deg, nbr_n, nbr_o, win_dx, win_dy,
    entries_scanned), where nbr_n and nbr_o are [N, d_max] in canonical
    scan order (neighbour 0 and window slot K past deg) and
    entries_scanned counts queue entries inspected up to the d_max early
    stop. Timestamps must never decrease (raises NonMonotoneTime at the
    first that does) and every event must lie on the sensor (raises
    OutOfBoundsEvent).

    The work per event is O(window offsets) + O(kept neighbours), whatever
    the queue depth: each (event, offset) cell is reduced to its queue
    length and its hits, counted by a second binary search only where the
    queue's newest entry is within r_t; only the cells that keep a
    neighbour are expanded, and the offsets after an event's d_max-th hit
    are not visited.
    """
    xs, ys, ts = (np.asarray(a, dtype=np.int64) for a in (xs, ys, ts))
    n_ev = xs.shape[0]
    deg = np.zeros(n_ev, dtype=np.int64)
    scanned = np.zeros(n_ev, dtype=np.int64)
    nbr_n = np.zeros((n_ev, d_max), dtype=np.int32
                     if n_ev <= 2**31 else np.int64)
    k_win = len(win_dx)
    # the window slot of each kept neighbour; k_win marks empty slots
    nbr_o = np.full((n_ev, d_max), k_win, dtype=np.min_scalar_type(k_win))
    if n_ev == 0:
        return deg, nbr_n, nbr_o, win_dx, win_dy, scanned
    back = np.flatnonzero(ts[1:] < ts[:-1])
    if len(back):
        k = int(back[0]) + 1
        raise NonMonotoneTime(
            f"event n={k}: timestamp {ts[k]} < previous {ts[k - 1]}")
    off = np.flatnonzero((xs < 0) | (xs >= width) | (ys < 0) | (ys >= height))
    if len(off):
        k = int(off[0])
        raise OutOfBoundsEvent(f"event n={k}: ({xs[k]},{ys[k]}) outside "
                               f"{width}x{height}")

    # Each occupied pixel's arrivals form one run of `order`, in stream
    # order. key = run number * n_ev + stream index ascends along `order`;
    # runs are numbered densely, so key < n_ev**2 whatever W * H is.
    # Pixels are numbered on the sensor padded by the window's reach on
    # every side, so that every window offset of every event lands in the
    # run_of table.
    pad = int(max(np.abs(win_dx).max(), np.abs(win_dy).max()))
    wide = width + 2 * pad
    pix = (ys + pad) * wide + xs + pad
    order = np.argsort(pix, kind="stable")
    spix = pix[order]
    new_run = np.r_[True, spix[1:] != spix[:-1]]
    run_start = np.flatnonzero(new_run)
    n_runs = len(run_start)
    key = (np.cumsum(new_run) - 1) * n_ev + order
    # last_key[end] is the key of the newest arrival before sorted
    # position end, and -1 at end = 0
    last_key = np.r_[-1, key]
    # Empty and padding pixels map to run n_runs, whose queries find
    # end = lo = run_start[n_runs] = n_ev: an empty queue.
    run_of = np.full(wide * (height + 2 * pad), n_runs, dtype=np.int64)
    run_of[spix[run_start]] = np.arange(n_runs)
    run_start = np.r_[run_start, n_ev]
    # Timestamps never decrease, so the arrivals within r_t of event i are
    # the stream indices first[i]..i-1, and the queue entries that pass
    # the temporal test are its newest ones: a prefix of the scan.
    first = np.searchsorted(ts, ts - r_t)

    shift = win_dy * wide + win_dx
    # The window is walked in tranches of 2, 4, 8, ... offsets. deg and
    # scanned carry each event's running hit and queue-entry counts; an
    # event that holds d_max neighbours leaves the walk with both final.
    live = order
    flat_n, flat_o = nbr_n.reshape(-1), nbr_o.reshape(-1)  # views
    a = 0
    while a < k_win and len(live):
        b = min(2 * a + 2, k_win)
        rows = max(1, REPLAY_CELLS // (b - a))
        for s in range(0, len(live), rows):
            # Rows in pixel order make each offset's key queries ascend.
            i = live[s:s + rows]
            run = run_of[pix[i] - shift[a:b, None]]   # [offsets, rows]
            base = run * n_ev
            # arrivals at the neighbour pixel before event i; its queue
            # holds the last min(depth, count) of them, newest first
            end = np.searchsorted(key, base + i)
            qlen = np.minimum(end - run_start[run], depth)
            # Hits are the queue entries from stream index first[i] on, so
            # only a queue whose newest entry, sorted position end - 1, is
            # one of them can hold any: the others are not counted.
            lo_key = (base + first[i]).ravel()
            cand = np.flatnonzero(last_key[end].ravel() >= lo_key)
            lo = end.copy()
            lo.ravel()[cand] = np.searchsorted(key, lo_key[cand])
            # lo >= run_start[run], so min(end - lo, depth) <= qlen
            hits = np.minimum(end - lo, depth)
            # counts within the tranche; event i needs d_max - deg[i] more
            need = d_max - deg[i]
            # running hit count along the offsets (row by row: np.cumsum
            # along axis 0 is several times slower)
            n_hit = hits.copy()
            for o in range(1, b - a):
                n_hit[o] += n_hit[o - 1]
            hits_before = n_hit - hits
            # take: the hits each cell keeps, up to the d_max-th
            take = np.clip(need - hits_before, 0, hits)
            # scanned: the whole queue of each cell before the d_max-th hit,
            # then the entries up to it (its cell's take), then nothing
            scanned[i] += np.where(n_hit < need, qlen, take).sum(axis=0)
            # Kept neighbour k of a cell is its queue's k-th newest entry:
            # sorted position end - 1 - k, slot deg[i] + hits_before + k.
            # Only cells that keep some are expanded; a cell's kept entries
            # are consecutive in `ramp` from first_k on, so k = ramp - first_k.
            cell = np.flatnonzero(take > 0)
            take = take.ravel()[cell]
            first_k = np.cumsum(take) - take
            ramp = np.arange(take.sum())
            at = np.repeat((i * d_max + deg[i] + hits_before).ravel()[cell]
                           - first_k, take) + ramp       # flat (row, slot)
            pos = np.repeat(end.ravel()[cell] - 1 + first_k, take) - ramp
            flat_n[at] = order[pos]
            flat_o[at] = np.repeat(a + cell // len(i), take)
            deg[i] += np.minimum(n_hit[-1], need)
        live = live[deg[live] < d_max]
        a = b
    return deg, nbr_n, nbr_o, win_dx, win_dy, scanned


@dataclass
class Adjacency:
    """Per-event neighbour lists of a whole stream, as window slots.

    Edge k of event i is the queue entry nbr_n[i, k], found at slot
    o = nbr_o[i, k] of the search window, so its offset (new minus
    neighbour) is (win_dx[o], win_dy[o]). Slots past deg hold neighbour 0
    and slot K = len(win_dx). A built adjacency is not changed: levels is
    computed from it once, on first use, and kept.
    """

    deg: np.ndarray              # int64[N]
    nbr_n: np.ndarray            # [N, d_max] int32; int64 past 2**31 events
    nbr_o: np.ndarray            # [N, d_max] window slot, min_scalar_type(K)
    win_dx: np.ndarray           # int64[K] the window's offsets, in
    win_dy: np.ndarray           # canonical scan order
    entries_scanned: np.ndarray  # int64[N] queue entries inspected
    d_max: int = 16

    @cached_property
    def levels(self) -> list[np.ndarray]:
        """Event rows by dependency level, lowest first."""
        return dependency_levels(self)


def dependency_levels(adj: Adjacency) -> list[np.ndarray]:
    """Event rows grouped by level(i) = 1 + max level(neighbors of i).

    Every neighbor of an event sits in a lower level, so the events of one
    level read only stored features and run as one batch.
    """
    level = [0] * len(adj.deg)  # an event without neighbours stays at 0
    get = level.__getitem__
    for i, (d, row) in enumerate(zip(adj.deg.tolist(), adj.nbr_n.tolist())):
        if d:
            level[i] = 1 + max(map(get, row[:d]))
    if not level:
        return []
    level = np.asarray(level, dtype=np.int64)
    order = np.argsort(level, kind="stable")
    return np.split(order, np.cumsum(np.bincount(level))[:-1])
