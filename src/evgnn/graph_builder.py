"""Dynamic directed event-graph construction over per-pixel event queues.

The search range is spatiotemporally decoupled: a spatial window of
radius r_s (L1 for the prism, L2 for the cylinder) and a separate time
window 0 <= dt <= r_t. The entire stored graph state is a W x H grid of
fixed-depth FIFO queues, one per pixel; edges are never materialized.
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
A search returns each neighbour as a `Neighbor` (n, dx, dy), all that an
edge holds; the neighbour's t and p are the stream's row n.

`brute_force_neighbors` is an independent reference over the full stream
prefix (a plain dict-of-lists retention replay, no queue grid).

`build_adjacency` replays search-then-push over a whole stream into flat
[N, d_max] neighbor arrays without a per-event loop, and its work per
event is a binary search or two per window offset plus the neighbours it
keeps, whatever the queue depth. Events are stable-sorted by pixel (the
pixel keys as their narrowest unsigned type, which numpy radix-sorts
up to 16 bits), so each pixel's arrivals form one run in stream order.
For event i and a window offset, a binary search counts the arrivals at
the neighbour pixel before i; its queue at that moment is the last
min(depth, count) of them, newest first. Timestamps never decrease, as
an EventStream's never do, so nothing here checks or raises on them:
the queue entries within r_t of i are its newest ones, a prefix of the
scan. So a queue whose newest entry is older than r_t holds no hit.
Where the newest passes, the queue's own entries settle most hit
counts: every entry is a hit if the oldest is, and only the newest is
if the second newest is not. A second binary search counts the hits of
the cells left. A running sum of these hit counts over the offsets, in
canonical order, gives the degree, the d_max early stop and the entries
scanned, and only the cells that keep a neighbour are expanded. The
offsets are walked in tranches of 2, 4, 8, ...; an event leaves the
walk once it holds d_max neighbours. A tranche's chunks run on W
threads, W being the CPUs the process may use: the calling thread and a
pool of W - 1 that each call opens and shuts down before it returns. A
chunk holds at most REPLAY_CELLS // W (event, offset) cells, so
REPLAY_CELLS bounds the cells in flight across all threads, and with
them the build's working memory. A chunk writes only its own events'
rows, so the result does not depend on the schedule. An Adjacency holds
the result and stores no edge offsets: an edge is its neighbour's
stream index (nbr_n) and the window slot it was found at (nbr_o), and
the window's K (dx, dy) pairs, which SearchParams.window builds once per
search, are kept once. Its dependency levels, the batches of the
engine's level schedules, are built on first use and kept.
"""

from __future__ import annotations

import os
from collections import defaultdict, deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .event_io import Event, EventStream

SHAPES = ("cylinder", "prism")
# Each search field's range [low, 2**bits): past it no array indexes it. A
# spatial offset fits a 16-bit coordinate, a time offset int64.
SEARCH_RANGE = {"r_s": (0, 16), "r_t": (0, 63), "d_max": (1, 31),
                "queue_depth": (1, 31)}
# (event, window offset) cells in flight across a graph build's threads;
# bounds its memory.
REPLAY_CELLS = 1 << 16
# nbr_n rows dependency_levels turns into Python lists at a time; bounds
# its memory.
LEVEL_ROWS = 4096


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
        for name, (low, bits) in SEARCH_RANGE.items():
            value = getattr(self, name)
            # type(), not isinstance: it rejects bool
            if type(value) is not int or not low <= value < 2**bits:
                raise InvalidSearchParams(f"{name} {value!r}: need an "
                                          f"integer in [{low}, 2**{bits})")

    @cached_property
    def window(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (dx, dy) of the window in canonical scan order."""
        win = window_offsets(self.r_s, self.shape == "cylinder")
        for a in win:
            a.flags.writeable = False
        return win


@dataclass(frozen=True)
class Neighbor:
    """A valid past neighbor of a query event: its stream index n and
    offset, new minus old; the stream gives its t and p from n."""

    n: int
    dx: int
    dy: int


class EventQueueGrid:
    """W x H FIFOs of the most recent events per pixel.

    Each pixel that has received an event holds a deque of at most depth
    Events, oldest first, keyed by y * width + x.
    """

    def __init__(self, width: int, height: int, depth: int = 16):
        if width < 1 or height < 1 or depth < 1:
            raise InvalidDims(f"bad grid dims ({width},{height},{depth})")
        self.width = width
        self.height = height
        self.depth = depth
        self._queues: defaultdict[int, deque[Event]] = defaultdict(
            partial(deque, maxlen=depth))

    def _check_bounds(self, x: int, y: int) -> int:
        if not (0 <= x < self.width and 0 <= y < self.height):
            raise OutOfBoundsEvent(
                f"({x},{y}) outside {self.width}x{self.height}")
        return y * self.width + x

    def entries(self, x: int, y: int) -> list[Event]:
        """Events at (x, y), newest first."""
        return list(reversed(self._queues.get(self._check_bounds(x, y), ())))

    def push_event(self, ev: Event) -> Event | None:
        """Store ev as the newest; return the evicted oldest event if full."""
        queue = self._queues[self._check_bounds(ev.x, ev.y)]
        evicted = queue[0] if len(queue) == self.depth else None
        queue.append(ev)
        return evicted


def _spatial_ok(dx: int, dy: int, params: SearchParams) -> bool:
    """Spatial window test: L1 (prism) or L2 (cylinder) within r_s."""
    if params.shape == "prism":
        return abs(dx) + abs(dy) <= params.r_s
    return dx * dx + dy * dy <= params.r_s * params.r_s


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
                if 0 <= ev.t - entry.t <= params.r_t:
                    out.append(Neighbor(entry.n, dx, dy))
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
                if 0 <= ev.t - old.t <= params.r_t:
                    out.append(Neighbor(old.n, dx, dy))
                    if len(out) == params.d_max:
                        return out
    return out


def _cpus() -> int:
    """CPUs this process may run on: build_adjacency's thread count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def window_offsets(r_s: int, use_l2: bool) -> tuple[np.ndarray, np.ndarray]:
    """(dx, dy) of the prism / cylinder window in canonical scan order."""
    span = np.arange(-r_s, r_s + 1)
    dy, dx = (a.ravel() for a in np.meshgrid(span, span, indexing="ij"))
    if use_l2:
        ok = dx * dx + dy * dy <= r_s * r_s
    else:
        ok = np.abs(dx) + np.abs(dy) <= r_s
    return dx[ok], dy[ok]


def build_adjacency(stream: EventStream, source) -> Adjacency:
    """Replay search-then-push over a whole stream.

    source is a SearchParams, or a model or run plan holding one in
    .search; its window is the one the Adjacency keeps. nbr_n and nbr_o
    are [N, d_max] in canonical scan order (neighbour 0 and window slot K
    past deg) and entries_scanned counts queue entries inspected up to the
    d_max early stop. An EventStream's events lie on its sensor and its
    timestamps never decrease; nothing here checks or raises on either.

    The work per event is O(window offsets) + O(kept neighbours), whatever
    the queue depth: each (event, offset) cell is reduced to its queue
    length and its hits. Where the queue's newest entry is within r_t,
    its oldest entry settles the hits (all of them) or its second newest
    does (the newest alone), and a second binary search counts them only
    where neither does. Only the cells that keep a neighbour are
    expanded, and the offsets after an event's d_max-th hit are not
    visited. Each tranche of offsets is cut into chunks of events that
    run on one thread per CPU the process may use, the calling thread and
    a pool opened per call; REPLAY_CELLS bounds the cells in flight
    across all of them, and the result does not depend on the schedule.
    """
    params = getattr(source, "search", source)
    win_dx, win_dy = params.window
    depth, r_t, d_max = params.queue_depth, params.r_t, params.d_max
    xs, ys, ts = (np.asarray(a, dtype=np.int64)
                  for a in (stream.x, stream.y, stream.t))
    n_ev = xs.shape[0]
    deg = np.zeros(n_ev, dtype=np.int64)
    scanned = np.zeros(n_ev, dtype=np.int64)
    nbr_n = np.zeros((n_ev, d_max), dtype=np.int32
                     if n_ev <= 2**31 else np.int64)
    k_win = len(win_dx)
    # the window slot of each kept neighbour; k_win marks empty slots
    nbr_o = np.full((n_ev, d_max), k_win, dtype=np.min_scalar_type(k_win))
    adj = Adjacency(deg, nbr_n, nbr_o, win_dx, win_dy, scanned, d_max)
    if n_ev == 0:
        return adj

    # Each occupied pixel's arrivals form one run of `order`, in stream
    # order. key = run number * n_ev + stream index ascends along `order`;
    # runs are numbered densely, so key < n_ev**2 whatever W * H is.
    # Pixels are numbered on the sensor padded by the window's reach on
    # every side, so that every window offset of every event lands in the
    # run_of table.
    pad = int(max(np.abs(win_dx).max(), np.abs(win_dy).max()))
    wide = stream.width + 2 * pad
    pix = (ys + pad) * wide + xs + pad
    # sorted as their narrowest unsigned type, which numpy radix-sorts
    # when the padded sensor has at most 2**16 pixels
    n_pix = wide * (stream.height + 2 * pad)
    order = np.argsort(pix.astype(np.min_scalar_type(n_pix - 1)),
                       kind="stable")
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
    run_of = np.full(n_pix, n_runs, dtype=np.int64)
    run_of[spix[run_start]] = np.arange(n_runs)
    run_start = np.r_[run_start, n_ev]
    # Timestamps never decrease, so the arrivals within r_t of event i are
    # the stream indices first[i]..i-1, and the queue entries that pass
    # the temporal test are its newest ones: a prefix of the scan.
    first = np.searchsorted(ts, ts - r_t)

    shift = win_dy * wide + win_dx
    flat_n, flat_o = nbr_n.reshape(-1), nbr_o.reshape(-1)  # views

    def scan(a: int, b: int, i: np.ndarray) -> None:
        """Walk offsets a..b-1 for the chunk i of rows, in pixel order,
        which makes each offset's key queries ascend. It reads the shared
        tables and i's rows of deg, and writes only i's rows of deg,
        scanned, nbr_n and nbr_o: a tranche's chunks are independent."""
        run = run_of[pix[i] - shift[a:b, None]]   # [offsets, rows]
        base = run * n_ev
        # arrivals at the neighbour pixel before event i; its queue
        # holds the last min(depth, count) of them, newest first
        end = np.searchsorted(key, base + i)
        qlen = np.minimum(end - run_start[run], depth)
        # Hits are the queue entries from stream index first[i] on, a
        # newest-first prefix of the queue. base becomes each cell's
        # lowest key within r_t; a queue entry is a hit iff its key is
        # at least that. Only a candidate, a cell whose newest entry
        # (sorted position end - 1) is a hit, holds any.
        base += first[i]
        lo_key = base.ravel()
        cand = np.flatnonzero(last_key[end].ravel() >= lo_key)
        lo_c, end_c = lo_key[cand], end.ravel()[cand]
        q_c = qlen.ravel()[cand]       # >= 1: the newest entry is queued
        # If the oldest queued entry, at end - qlen, is a hit, all qlen
        # are. Else, if the second newest, at end - 2 (last_key[end - 1];
        # queued, since then qlen >= 2), is not, the newest is the one
        # hit. Only the cells left need a search: their hits start past
        # end - qlen, so end - lo < qlen <= depth.
        whole = key[end_c - q_c] >= lo_c
        one = last_key[end_c - 1] < lo_c
        hits_c = np.where(whole, q_c, 1)
        rest = np.flatnonzero(~(whole | one))
        hits_c[rest] = end_c[rest] - np.searchsorted(key, lo_c[rest])
        hits = np.zeros_like(end)
        hits.ravel()[cand] = hits_c
        # Dead [offsets, rows] arrays go at once: a chunk's peak is what a
        # pool thread's malloc arena keeps after the build.
        del run, base, lo_key, cand
        del lo_c, end_c, q_c, whole, one, hits_c, rest
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

    def drain(a: int, b: int, todo) -> None:
        """Scan the chunks todo yields until none is left. The threads of a
        tranche share todo, a list iterator, whose next() is atomic under
        the GIL: each chunk runs once. A chunk's temporaries go when its
        scan returns."""
        for i in todo:
            scan(a, b, i)

    # The window is walked in tranches of 2, 4, 8, ... offsets. deg and
    # scanned carry each event's running hit and queue-entry counts; an
    # event that holds d_max neighbours leaves the walk with both final.
    # The calling thread and workers - 1 pool threads take a tranche's
    # chunks in turn, and numpy's calls release the GIL to them. A chunk
    # holds at most REPLAY_CELLS // workers cells, so the cells in flight
    # stay within REPLAY_CELLS.
    workers = _cpus()
    live = order
    a = 0
    with ExitStack() as stack:
        pool = None
        while a < k_win and len(live):
            b = min(2 * a + 2, k_win)
            # the fewest chunks of at most REPLAY_CELLS // workers cells,
            # cut near-equal so that the threads' shares are even
            n = -(-len(live) // max(1, REPLAY_CELLS // workers // (b - a)))
            rows = -(-len(live) // n)
            todo = iter([live[s:s + rows] for s in range(0, len(live), rows)])
            if workers > 1 and n > 1:
                # one pool per call, shut down before it returns: a pool
                # kept past it would reach a forked child without threads
                pool = pool or stack.enter_context(
                    ThreadPoolExecutor(workers - 1))
                helpers = [pool.submit(drain, a, b, todo)
                           for _ in range(workers - 1)]
                drain(a, b, todo)
                for f in helpers:
                    f.result()
            else:
                drain(a, b, todo)
            live = live[deg[live] < d_max]
            a = b
    return adj


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
    for s in range(0, len(level), LEVEL_ROWS):
        rows = slice(s, s + LEVEL_ROWS)
        for i, (d, row) in enumerate(zip(adj.deg[rows].tolist(),
                                         adj.nbr_n[rows].tolist()), start=s):
            if d:
                level[i] = 1 + max(map(get, row[:d]))
    if not level:
        return []
    level = np.asarray(level, dtype=np.int64)
    order = np.argsort(level, kind="stable")
    return np.split(order, np.cumsum(np.bincount(level))[:-1])
