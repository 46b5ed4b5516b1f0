"""Dynamic directed event-graph construction over per-pixel event queues.

The entire stored graph state is a W x H grid of fixed-depth ring buffers
(one per pixel); edges are never materialized. Neighbor search for a new
event scans the spatial candidate window in a canonical order:

    dy from -r_s to +r_s, then dx from -r_s to +r_s (row-major), where
    (dx, dy) = new minus neighbor; offsets failing the spatial predicate
    and out-of-bound pixels are skipped; within each queue entries are
    visited newest-first; the temporal predicate 0 <= dt <= r_t is applied
    per entry; the scan stops as soon as d_max neighbors are collected.

The new event is pushed into its queue only *after* its search completes
(search-then-push), so an event can never be its own neighbor. Events with
equal timestamps are valid neighbors when their stream index is smaller.

`brute_force_neighbors` is an independent reference over the full stream
prefix (plain dict-of-lists retention replay, no ring buffers) and also
covers the hemisphere / semi-octahedron search shapes that the queue-backed
engine does not accelerate.

`replay_build` replays search-then-push over a whole stream into flat
[N, d_max] neighbor arrays (prism / cylinder) without a per-event loop,
and its work per event is one pair of counts per window offset plus the
neighbours it keeps, whatever the queue depth. Events are stable-sorted by
pixel, so each pixel's arrivals form one run in stream order. For event i
and a window offset, a binary search counts the arrivals at the neighbour
pixel before i; its queue at that moment is the last min(depth, count) of
them, newest first. Timestamps must never decrease (replay_build raises
NonMonotoneTime otherwise): then the queue entries within r_t of i are its
newest ones, a prefix of the scan, and a second binary search counts them.
A cumulative sum of these hit counts over the offsets, in canonical order,
gives the degree, the d_max early stop and the entries scanned, and only
the kept neighbours are built. The offsets are walked in tranches of 2, 4,
8, ...; an event leaves the walk once it holds d_max neighbours. A chunk
holds at most REPLAY_CELLS (event, offset) cells, which bounds the build's
working memory. An Adjacency holds the result; its dependency levels, the
batches of the engine's level schedules, are built on first use and kept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .event_io import Event, NonMonotoneTime

SHAPES = ("hemisphere", "semi_octahedron", "cylinder", "prism")
QUEUE_BACKED_SHAPES = ("cylinder", "prism")
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

    prism / cylinder use (r_s, r_t); hemisphere / semi_octahedron use
    (r, beta). d_max caps the neighbor count; queue_depth is the per-pixel
    retention replayed by the brute-force reference.
    """

    shape: str = "prism"
    r_s: int = 3
    r_t: int = 50_000
    r: float = 0.0
    beta: float = 0.0
    d_max: int = 16
    queue_depth: int = 16

    def __post_init__(self):
        if self.shape not in SHAPES:
            raise InvalidSearchParams(f"unknown shape {self.shape!r}")
        if self.r_s < 0 or self.r_t < 0 or self.r < 0 or self.beta < 0:
            raise InvalidSearchParams("radii must be non-negative")
        if self.d_max < 1 or self.queue_depth < 1:
            raise InvalidSearchParams("d_max and queue_depth must be >= 1")

    @property
    def spatial_extent(self) -> int:
        """Half-width in pixels of the candidate window to scan."""
        if self.shape in QUEUE_BACKED_SHAPES:
            return int(self.r_s)
        return int(math.floor(self.r))


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

    def queue_len(self, x: int, y: int) -> int:
        return int(self._count[self._check_bounds(x, y)])

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


def _spatial_ok(shape: str, dx: int, dy: int, params: SearchParams) -> bool:
    """Spatial slice of the shape predicate (dt = 0 cross-section)."""
    if shape == "prism":
        return abs(dx) + abs(dy) <= params.r_s
    if shape == "cylinder":
        return dx * dx + dy * dy <= params.r_s * params.r_s
    if shape == "hemisphere":
        return dx * dx + dy * dy <= params.r * params.r
    return abs(dx) + abs(dy) <= params.r  # semi_octahedron


def _full_ok(shape: str, dx: int, dy: int, dt: int, params: SearchParams) -> bool:
    if dt < 0:
        return False
    if shape == "prism":
        return abs(dx) + abs(dy) <= params.r_s and dt <= params.r_t
    if shape == "cylinder":
        return (dx * dx + dy * dy <= params.r_s * params.r_s
                and dt <= params.r_t)
    if shape == "hemisphere":
        return math.sqrt(dx * dx + dy * dy + (params.beta * dt) ** 2) <= params.r
    return abs(dx) + abs(dy) + params.beta * dt <= params.r


def search_neighbors(grid: EventQueueGrid, ev: Event,
                     params: SearchParams) -> list[Neighbor]:
    """Queue-backed neighbor search (prism / cylinder shapes only).

    ev must not yet have been pushed into the grid.
    """
    if params.shape not in QUEUE_BACKED_SHAPES:
        raise InvalidSearchParams(
            f"shape {params.shape!r} is not queue-backed")
    grid._check_bounds(ev.x, ev.y)
    r = params.spatial_extent
    out: list[Neighbor] = []
    for dy in range(-r, r + 1):
        yj = ev.y - dy
        if yj < 0 or yj >= grid.height:
            continue
        for dx in range(-r, r + 1):
            if not _spatial_ok(params.shape, dx, dy, params):
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
    d_max truncation. For queue-backed shapes this matches search_neighbors
    exactly.
    """
    per_pixel: dict[tuple[int, int], list[Event]] = {}
    for old in history:
        per_pixel.setdefault((old.x, old.y), []).append(old)
    r = params.spatial_extent
    out: list[Neighbor] = []
    for dy in range(-r, r + 1):
        yj = ev.y - dy
        for dx in range(-r, r + 1):
            if not _spatial_ok(params.shape, dx, dy, params):
                continue
            xj = ev.x - dx
            retained = per_pixel.get((xj, yj))
            if retained is None:
                continue
            # Newest-first over the last queue_depth arrivals at this pixel.
            for old in reversed(retained[-params.queue_depth:]):
                dt = ev.t - old.t
                if _full_ok(params.shape, dx, dy, dt, params):
                    out.append(Neighbor(old.n, old.t, old.p, dx, dy, dt))
                    if len(out) == params.d_max:
                        return out
    return out


def naive_neighbors(history: list[Event], ev: Event,
                    params: SearchParams) -> list[Neighbor]:
    """Second, even simpler reference: no pixel index at all.

    Eligibility (last queue_depth arrivals per pixel) is computed by a
    backwards scan of the whole history; candidates are then sorted into the
    canonical scan order. Used for oracle-vs-oracle self-consistency.
    """
    seen: dict[tuple[int, int], int] = {}
    eligible: list[Event] = []
    for old in reversed(history):
        key = (old.x, old.y)
        c = seen.get(key, 0)
        if c < params.queue_depth:
            seen[key] = c + 1
            eligible.append(old)

    def scan_key(old: Event):
        dx, dy = ev.x - old.x, ev.y - old.y
        # (window row, window col, newest-first within the pixel queue)
        return (dy, dx, -old.n)

    out: list[Neighbor] = []
    for old in sorted(eligible, key=scan_key):
        dx, dy = ev.x - old.x, ev.y - old.y
        dt = ev.t - old.t
        if _full_ok(params.shape, dx, dy, dt, params):
            out.append(Neighbor(old.n, old.t, old.p, dx, dy, dt))
            if len(out) == params.d_max:
                break
    return out


def _narrowest(types, bound: int):
    """The first of types (narrowest first) whose maximum is >= bound."""
    return next(t for t in types if np.iinfo(t).max >= bound)


def _window_offsets(r_s: int, use_l2: bool) -> tuple[np.ndarray, np.ndarray]:
    """(dx, dy) of the prism / cylinder window in canonical scan order."""
    span = np.arange(-r_s, r_s + 1)
    dy, dx = (a.ravel() for a in np.meshgrid(span, span, indexing="ij"))
    if use_l2:
        ok = dx * dx + dy * dy <= r_s * r_s
    else:
        ok = np.abs(dx) + np.abs(dy) <= r_s
    return dx[ok], dy[ok]


def replay_build(xs, ys, ts, width, height, depth, r_s, r_t, d_max, use_l2):
    """Replay search-then-push over a whole stream (prism or cylinder).

    Returns (deg, nbr_n, nbr_dx, nbr_dy, nbr_dt, entries_scanned), where the
    nbr_* arrays are [N, d_max] in canonical scan order (zero past deg) and
    entries_scanned counts queue entries inspected up to the d_max early
    stop. deg and entries_scanned are int64; each nbr_* array has the
    narrowest type that holds its bound (see Adjacency). Timestamps must
    never decrease (raises NonMonotoneTime at the first that does) and
    every event must lie on the sensor (raises OutOfBoundsEvent).

    The work per event is O(window offsets) + O(kept neighbours), whatever
    the queue depth: each (event, offset) cell is reduced to two counts,
    its queue length and its hits, only kept neighbours are built, and the
    offsets after an event's d_max-th hit are not visited.
    """
    xs, ys, ts = (np.asarray(a, dtype=np.int64) for a in (xs, ys, ts))
    n_ev = xs.shape[0]
    deg = np.zeros(n_ev, dtype=np.int64)
    scanned = np.zeros(n_ev, dtype=np.int64)
    nbr_n = np.zeros((n_ev, d_max),
                     dtype=_narrowest((np.int32, np.int64), n_ev - 1))
    dxy_type = _narrowest((np.int8, np.int16, np.int32, np.int64), r_s)
    # a kept dt is at most r_t and at most the stream's time span
    dt_type = _narrowest((np.uint8, np.uint16, np.uint32, np.uint64),
                         min(r_t, int(ts[-1] - ts[0]) if n_ev else 0))
    if n_ev == 0:
        return (deg, nbr_n, np.zeros_like(nbr_n, dtype=dxy_type),
                np.zeros_like(nbr_n, dtype=dxy_type),
                np.zeros_like(nbr_n, dtype=dt_type), scanned)
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
    # Pixels are numbered on the sensor padded by r_s on every side, so
    # that every window offset of every event lands in the run_of table.
    wide = width + 2 * r_s
    pix = (ys + r_s) * wide + xs + r_s
    order = np.argsort(pix, kind="stable")
    spix = pix[order]
    new_run = np.r_[True, spix[1:] != spix[:-1]]
    run_start = np.flatnonzero(new_run)
    n_runs = len(run_start)
    key = (np.cumsum(new_run) - 1) * n_ev + order
    sorted_ts = ts[order]
    # Empty and padding pixels map to run n_runs, whose queries find
    # end = lo = run_start[n_runs] = n_ev: an empty queue.
    run_of = np.full(wide * (height + 2 * r_s), n_runs, dtype=np.int64)
    run_of[spix[run_start]] = np.arange(n_runs)
    run_start = np.r_[run_start, n_ev]
    # Timestamps never decrease, so the arrivals within r_t of event i are
    # the stream indices first[i]..i-1, and the queue entries that pass
    # the temporal test are its newest ones: a prefix of the scan.
    first = np.searchsorted(ts, ts - r_t)

    odx, ody = _window_offsets(r_s, use_l2)
    shift = ody * wide + odx
    # the window offset of each kept neighbour; len(odx) marks empty slots
    nbr_o = np.full((n_ev, d_max), len(odx),
                    dtype=np.min_scalar_type(len(odx)))
    # The window is walked in tranches of 2, 4, 8, ... offsets. deg and
    # scanned carry each event's running hit and queue-entry counts; an
    # event that holds d_max neighbours leaves the walk with both final.
    live = order
    a = 0
    while a < len(odx) and len(live):
        b = min(2 * a + 2, len(odx))
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
            hits = np.minimum(end - np.searchsorted(key, base + first[i]),
                              qlen)
            # counts within the tranche; event i needs d_max - deg[i] more
            need = d_max - deg[i]
            n_hit = np.cumsum(hits, axis=0)
            hits_before = n_hit - hits
            q_before = np.cumsum(qlen, axis=0) - qlen
            # scanned: every entry of the queues before the d_max-th hit's
            # queue, then that queue's entries up to the hit
            stop = np.minimum((n_hit < need).sum(axis=0), b - a - 1)
            col = np.arange(len(i))
            scanned[i] += np.where(
                n_hit[-1] >= need,
                q_before[stop, col] + need - hits_before[stop, col],
                q_before[-1] + qlen[-1])
            # Kept neighbour k of a cell is its queue's k-th newest entry:
            # sorted position end - 1 - k, slot deg[i] + hits_before + k.
            # A cell's kept entries are consecutive in `ramp` from first_k
            # on, so k = ramp - first_k.
            take = np.clip(need - hits_before, 0, hits).ravel()
            first_k = np.cumsum(take) - take
            ramp = np.arange(first_k[-1] + take[-1])
            at = np.repeat((i * d_max + deg[i] + hits_before).ravel()
                           - first_k, take) + ramp       # flat (row, slot)
            pos = np.repeat((end - 1).ravel() + first_k, take) - ramp
            np.put(nbr_n, at, order[pos])
            np.put(nbr_o, at, np.repeat(np.arange(a, b).repeat(len(i)), take))
            deg[i] += np.minimum(n_hit[-1], need)
        live = live[deg[live] < d_max]
        a = b
    # dx, dy and dt follow from the neighbour and its offset; 0 when empty.
    # Each is written at its own width; dt goes through int64 a block of
    # rows at a time.
    nbr_dx = np.r_[odx, 0].astype(dxy_type)[nbr_o]
    nbr_dy = np.r_[ody, 0].astype(dxy_type)[nbr_o]
    nbr_dt = np.empty((n_ev, d_max), dtype=dt_type)
    rows = max(1, REPLAY_CELLS // d_max)
    for s in range(0, n_ev, rows):
        blk = slice(s, s + rows)
        nbr_dt[blk] = np.where(nbr_o[blk] < len(odx),
                               ts[blk, None] - ts[nbr_n[blk]], 0)
    return deg, nbr_n, nbr_dx, nbr_dy, nbr_dt, scanned


@dataclass
class Adjacency:
    """Flattened per-event neighbor lists for a whole stream.

    A built adjacency is not changed: levels is computed from it once, on
    first use, and kept.
    """

    deg: np.ndarray              # int64[N]
    nbr_n: np.ndarray            # [N, d_max] int32; int64 past 2**31 events
    nbr_dx: np.ndarray           # [N, d_max] narrowest signed type for +-r_s
    nbr_dy: np.ndarray           # (int8 up to r_s = 127)
    nbr_dt: np.ndarray           # [N, d_max] narrowest unsigned type for
                                 # min(r_t, t[-1] - t[0])
    entries_scanned: np.ndarray  # int64[N] queue entries inspected
    d_max: int = 16

    @cached_property
    def levels(self) -> list[np.ndarray]:
        """Event rows by dependency level, lowest first."""
        return dependency_levels(self)

    def neighbors(self, i: int) -> list[tuple[int, int, int, int]]:
        """(n, dx, dy, dt) tuples for event i, in scan order."""
        d = int(self.deg[i])
        return [(int(self.nbr_n[i, k]), int(self.nbr_dx[i, k]),
                 int(self.nbr_dy[i, k]), int(self.nbr_dt[i, k]))
                for k in range(d)]


def dependency_levels(adj: Adjacency) -> list[np.ndarray]:
    """Event rows grouped by level(i) = 1 + max level(neighbors of i).

    Every neighbor of an event sits in a lower level, so the events of one
    level read only stored features and run as one batch.
    """
    level = [0] * len(adj.deg)
    for i, (d, row) in enumerate(zip(adj.deg.tolist(), adj.nbr_n.tolist())):
        level[i] = 1 + max((level[j] for j in row[:d]), default=-1)
    if not level:
        return []
    level = np.asarray(level, dtype=np.int64)
    order = np.argsort(level, kind="stable")
    return np.split(order, np.cumsum(np.bincount(level))[:-1])
