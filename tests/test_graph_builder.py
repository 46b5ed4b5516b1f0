import collections
import functools
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evgnn import event_io, graph_builder
from evgnn.event_io import Event
from evgnn.graph_builder import (EventQueueGrid, InvalidDims,
                                 InvalidSearchParams, OutOfBoundsEvent,
                                 Neighbor, SearchParams, build_adjacency,
                                 brute_force_neighbors, search_neighbors,
                                 window_offsets)
from helpers import neighbors


def _rand_stream(seed, width=24, height=20, count=400, duration=2_000):
    return event_io.gen_synthetic(
        "uniform_random",
        {"width": width, "height": height, "count": count,
         "duration_us": duration}, seed)


class TestQueueGrid:
    def test_new_grid_empty(self):
        g = EventQueueGrid(120, 100, 16)
        assert len(g.entries(0, 0)) == 0
        assert len(g.entries(119, 99)) == 0

    def test_single_entry_queue(self):
        g = EventQueueGrid(1, 1, 1)
        assert g.depth == 1

    def test_bad_dims(self):
        with pytest.raises(InvalidDims):
            EventQueueGrid(0, 5, 16)

    def test_push_no_eviction(self):
        g = EventQueueGrid(4, 4, 16)
        assert g.push_event(Event(1, 1, 10, 0, 0)) is None
        assert len(g.entries(1, 1)) == 1

    def test_17th_push_evicts_first(self):
        g = EventQueueGrid(4, 4, 16)
        for i in range(16):
            assert g.push_event(Event(2, 2, i, 0, i)) is None
        evicted = g.push_event(Event(2, 2, 16, 1, 16))
        assert evicted is not None and evicted.n == 0
        assert len(g.entries(2, 2)) == 16

    def test_push_out_of_bounds(self):
        g = EventQueueGrid(4, 4, 16)
        with pytest.raises(OutOfBoundsEvent):
            g.push_event(Event(4, 0, 0, 0, 0))

    def test_entries_newest_first(self):
        g = EventQueueGrid(4, 4, 4)
        for i in range(6):
            g.push_event(Event(0, 0, i * 10, i % 2, i))
        assert [e.n for e in g.entries(0, 0)] == [5, 4, 3, 2]

    def test_memory_grows_with_occupied_pixels_only(self):
        """A megapixel grid of depth 16 holds nothing until events arrive,
        and a few pixels' queues stay small: below 1 MiB either way."""
        tracemalloc.start()
        try:
            g = EventQueueGrid(1024, 1024, 16)
            assert tracemalloc.get_traced_memory()[1] < 2**20
            for i in range(100):
                g.push_event(Event(i % 5 * 200, i % 3 * 300, i, i % 2, i))
            assert tracemalloc.get_traced_memory()[1] < 2**20
        finally:
            tracemalloc.stop()
        assert [e.n for e in g.entries(0, 0)] == [90, 75, 60, 45, 30, 15, 0]


class TestSearchParams:
    def test_unknown_shape(self):
        with pytest.raises(InvalidSearchParams):
            SearchParams(shape="cube")

    def test_negative_radius(self):
        with pytest.raises(InvalidSearchParams):
            SearchParams(r_s=-1)

    def test_d_max_floor(self):
        with pytest.raises(InvalidSearchParams):
            SearchParams(d_max=0)

    @pytest.mark.parametrize("name, low, bits", [
        ("r_s", 0, 16), ("r_t", 0, 63), ("d_max", 1, 31),
        ("queue_depth", 1, 31)])
    def test_bound(self, name, low, bits):
        """Each field takes its bounds and rejects the values just past
        them: past the upper one, no array could index the value. Only
        constructed: a run at a bound would ask for tens of GiB."""
        for value in (low, 2**bits - 1):
            assert getattr(SearchParams(**{name: value}), name) == value
        for value in (low - 1, 2**bits):
            with pytest.raises(InvalidSearchParams, match=(
                    rf"^{name} {value}: need an integer in "
                    rf"\[{low}, 2\*\*{bits}\)$")):
                SearchParams(**{name: value})

    @pytest.mark.parametrize("value", [True, 3.0, np.int64(3), "3"])
    @pytest.mark.parametrize("name", ["r_s", "r_t", "d_max", "queue_depth"])
    def test_plain_int_only(self, name, value):
        with pytest.raises(InvalidSearchParams,
                           match=rf"^{name} .*: need an integer in "):
            SearchParams(**{name: value})

    @pytest.mark.parametrize("shape", ["prism", "cylinder"])
    def test_window_built_once_read_only(self, shape):
        params = SearchParams(shape=shape, r_s=2)
        dx, dy = params.window
        assert params.window[0] is dx and params.window[1] is dy
        assert not dx.flags.writeable and not dy.flags.writeable
        for a, b in zip((dx, dy), window_offsets(2, shape == "cylinder")):
            assert np.array_equal(a, b)


class TestSearchNeighbors:
    def test_empty_grid(self):
        g = EventQueueGrid(8, 8, 16)
        assert search_neighbors(g, Event(3, 3, 100, 0, 0),
                                SearchParams()) == []

    def test_prism_predicate(self):
        g = EventQueueGrid(16, 16, 16)
        old = [Event(6, 5, 90, 0, 0), Event(5, 8, 95, 1, 1)]
        for e in old:
            g.push_event(e)
        ev = Event(5, 5, 100, 0, 2)
        out = search_neighbors(g, ev, SearchParams(r_s=2, r_t=50))
        # (6,5): |dx|+|dy| = 1, dt = 10; (5,8): |dx|+|dy| = 3 fails
        assert [(nb.n, nb.dx, nb.dy, ev.t - old[nb.n].t)
                for nb in out] == [(0, -1, 0, 10)]

    def test_dt_zero_tie_is_neighbor(self):
        g = EventQueueGrid(8, 8, 16)
        old = [Event(3, 3, 100, 0, 0)]
        g.push_event(old[0])
        ev = Event(3, 3, 100, 1, 1)
        out = search_neighbors(g, ev, SearchParams())
        assert [(nb.n, nb.dx, nb.dy, ev.t - old[nb.n].t)
                for nb in out] == [(0, 0, 0, 0)]

    def test_not_queue_backed_rejected(self):
        with pytest.raises(InvalidSearchParams, match="hemisphere"):
            SearchParams(shape="hemisphere")

    def test_d_max_early_stop(self):
        g = EventQueueGrid(8, 8, 16)
        for i in range(10):
            g.push_event(Event(3, 3, i, 0, i))
        out = search_neighbors(g, Event(3, 3, 20, 0, 10),
                               SearchParams(d_max=4))
        assert len(out) == 4
        # newest-first within the pixel queue
        assert [nb.n for nb in out] == [9, 8, 7, 6]


class TestBruteForce:
    def test_empty_history(self):
        assert brute_force_neighbors([], Event(1, 1, 10, 0, 0),
                                     SearchParams()) == []

    def test_retention_replays_eviction(self):
        hist = [Event(3, 3, i, 0, i) for i in range(20)]
        out = brute_force_neighbors(hist, Event(3, 3, 30, 0, 20),
                                    SearchParams(queue_depth=16, d_max=16))
        # events 0..3 were evicted by the 16-deep queue
        assert sorted(nb.n for nb in out) == list(range(4, 20))


def _replay_search(stream, params):
    """search_neighbors over an incrementally built grid, per event."""
    grid = EventQueueGrid(stream.width, stream.height, params.queue_depth)
    out = []
    for ev in stream.events:
        out.append(search_neighbors(grid, ev, params))
        grid.push_event(ev)
    return out


@pytest.mark.parametrize("shape", ["prism", "cylinder"])
@pytest.mark.parametrize("seed", [0, 1])
def test_dynamic_equals_brute_force(shape, seed):
    stream = _rand_stream(seed)
    params = SearchParams(shape=shape, r_s=3, r_t=400, d_max=8,
                          queue_depth=6)
    dynamic = _replay_search(stream, params)
    for i, ev in enumerate(stream.events):
        assert dynamic[i] == brute_force_neighbors(
            stream.events[:i], ev, params), f"event {i}"


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

    def in_window(dx, dy, dt):
        r = params.r_s
        near = (abs(dx) + abs(dy) <= r if params.shape == "prism"
                else dx * dx + dy * dy <= r * r)
        return near and 0 <= dt <= params.r_t

    out: list[Neighbor] = []
    for old in sorted(eligible, key=scan_key):
        dx, dy = ev.x - old.x, ev.y - old.y
        dt = ev.t - old.t
        if in_window(dx, dy, dt):
            out.append(Neighbor(old.n, dx, dy))
            if len(out) == params.d_max:
                break
    return out


@pytest.mark.parametrize("shape", ["prism", "cylinder"])
def test_brute_force_equals_naive(shape):
    stream = _rand_stream(2, count=300)
    params = SearchParams(shape=shape, r_s=3, r_t=400, d_max=8,
                          queue_depth=6)
    for i, ev in enumerate(stream.events):
        assert brute_force_neighbors(stream.events[:i], ev, params) == \
            naive_neighbors(stream.events[:i], ev, params), f"event {i}"


def test_kernel_replay_equals_brute_force():
    stream = _rand_stream(3)
    params = SearchParams(r_s=2, r_t=300, d_max=6, queue_depth=4)
    adj = build_adjacency(stream, params)
    for i, ev in enumerate(stream.events):
        expect = [(nb.n, nb.dx, nb.dy, int(ev.t - stream.t[nb.n])) for nb in
                  brute_force_neighbors(stream.events[:i], ev, params)]
        assert neighbors(adj, stream, i) == expect, f"event {i}"


def _incremental_reference(stream, params):
    """Search-then-push over per-pixel arrival lists, counting the queue
    entries each search inspects.

    Returns (deg, n, dx, dy, scanned), with n, dx and dy [N, d_max] and 0
    past deg, and the number of searches whose d_max-th hit left entries
    of its queue unscanned.
    """
    n, d, r = len(stream), params.d_max, params.r_s
    deg, scanned = np.zeros(n, np.int64), np.zeros(n, np.int64)
    nbr = np.zeros((3, n, d), np.int64)  # n, dx, dy
    arrivals: dict[tuple[int, int], list[Event]] = {}
    mid_queue_stops = 0
    for i, ev in enumerate(stream.events):
        for dy in range(-r, r + 1):
            for dx in range(-r, r + 1):
                if params.shape == "prism":
                    inside = abs(dx) + abs(dy) <= r
                else:
                    inside = dx * dx + dy * dy <= r * r
                queue = arrivals.get((ev.x - dx, ev.y - dy), [])
                retained = (queue[-params.queue_depth:][::-1]
                            if inside else [])
                for k, old in enumerate(retained):
                    if deg[i] == d:
                        break
                    scanned[i] += 1
                    if 0 <= ev.t - old.t <= params.r_t:
                        nbr[:, i, deg[i]] = (old.n, dx, dy)
                        deg[i] += 1
                        if deg[i] == d and k < len(retained) - 1:
                            mid_queue_stops += 1
        arrivals.setdefault((ev.x, ev.y), []).append(ev)
    return (deg, *nbr, scanned), mid_queue_stops


def _assert_equals_reference(adj, stream, params) -> int:
    """Check deg, the scan count and every slot's n, dx and dy, with dx
    and dy looked up in the window by nbr_o, and that nbr_o holds the
    window size K past deg; return the reference's mid-queue stops."""
    k = len(adj.win_dx)
    pad = np.arange(params.d_max) >= adj.deg[:, None]
    assert np.array_equal(adj.nbr_o == k, pad)
    got = (adj.deg, adj.nbr_n, np.r_[adj.win_dx, 0][adj.nbr_o],
           np.r_[adj.win_dy, 0][adj.nbr_o], adj.entries_scanned)
    want, stops = _incremental_reference(stream, params)
    for name, a, b in zip(("deg", "n", "dx", "dy", "scanned"), got, want):
        assert np.array_equal(a, b), (name, stream.width, stream.height,
                                      params)
    return stops


def _edge_dt(adj, stream):
    """dt of every kept edge, from the stream's timestamps."""
    edge = np.arange(adj.d_max) < adj.deg[:, None]
    return (stream.t[:, None] - stream.t[adj.nbr_n])[edge]


def _check_against_incremental_reference(shape, make_stream):
    """Every replay output, entries_scanned included, on 1x1 to 12x12
    sensors with shallow queues, timestamp ties and early stops mid-queue."""
    rng = np.random.default_rng(17)
    mid_queue_stops = ties = 0
    for _ in range(150):
        w, h = (int(v) for v in rng.integers(1, 13, size=2))
        count = int(rng.integers(1, 60))
        ts = np.sort(rng.integers(0, count, size=count))
        stream = make_stream(w, h, [
            (int(rng.integers(0, w)), int(rng.integers(0, h)),
             int(t), int(rng.integers(0, 2)))
            for t in ts])
        params = SearchParams(shape=shape, r_s=int(rng.integers(0, 4)),
                              r_t=int(rng.integers(0, count)),
                              d_max=int(rng.integers(1, 10)),
                              queue_depth=int(rng.integers(1, 6)))
        adj = build_adjacency(stream, params)
        mid_queue_stops += _assert_equals_reference(adj, stream, params)
        ties += int(np.sum(_edge_dt(adj, stream) == 0))
    assert mid_queue_stops > 0 and ties > 0


@pytest.mark.parametrize("shape", ["prism", "cylinder"])
def test_build_adjacency_equals_incremental_reference(shape, make_stream):
    _check_against_incremental_reference(shape, make_stream)


@pytest.mark.parametrize("cells", [1, 40])
@pytest.mark.parametrize("shape", ["prism", "cylinder"])
def test_build_adjacency_chunk_boundaries(shape, cells, make_stream,
                                          monkeypatch):
    """The same check with build_adjacency's chunks cut small: 1 row each, or
    2 to 40 rows, which splits pixel runs of these up to 59-event streams
    between chunks."""
    monkeypatch.setattr(graph_builder, "REPLAY_CELLS", cells)
    _check_against_incremental_reference(shape, make_stream)


def _stale_newest_queues(stream, params):
    """(queues whose newest retained entry is older than r_t, of those
    the ones where an older retained entry is within r_t), over every
    event's window; a stream whose timestamps never decrease has none of
    the second kind, so build_adjacency counts no hits in the first
    kind."""
    r, keep = params.r_s, params.queue_depth
    arrivals: dict[tuple[int, int], list[int]] = {}
    stale = stale_with_hit = 0
    for ev in stream.events:
        for dy in range(-r, r + 1):
            for dx in range(-r, r + 1):
                if not graph_builder._spatial_ok(dx, dy, params):
                    continue
                queue = arrivals.get((ev.x - dx, ev.y - dy), [])[-keep:]
                if queue and ev.t - queue[-1] > params.r_t:
                    stale += 1
                    stale_with_hit += any(ev.t - t <= params.r_t
                                          for t in queue)
        arrivals.setdefault((ev.x, ev.y), []).append(ev.t)
    return stale, stale_with_hit


@pytest.mark.parametrize("cells", [1, 40])
@pytest.mark.parametrize("shape", ["prism", "cylinder"])
def test_build_adjacency_stale_queues(shape, cells, make_stream,
                                      monkeypatch):
    """Deep queues that are mostly stale: every pixel of a 6x5 sensor gets
    at least 8 events, at most 15 % of the entries scanned are hits, and
    some events still reach d_max. Timestamps are multiples of 10 with
    ties, so with r_t = 30 some kept edges are exactly r_t old, and with
    r_t = 0 the only edges are ties."""
    monkeypatch.setattr(graph_builder, "REPLAY_CELLS", cells)
    rng = np.random.default_rng(23)
    w, h = 6, 5
    pixels = np.r_[np.repeat(np.arange(w * h), 8),
                   rng.integers(0, w * h, size=40)]
    rng.shuffle(pixels)
    ts = np.sort(rng.integers(0, len(pixels) // 2, size=len(pixels))) * 10
    stream = make_stream(w, h, [(int(q % w), int(q // w), int(t), k % 2)
                                for k, (q, t) in enumerate(zip(pixels, ts))])
    for r_t, oldest in ((30, 30), (0, 0)):
        params = SearchParams(shape=shape, r_s=3, r_t=r_t, d_max=4,
                              queue_depth=16)
        adj = build_adjacency(stream, params)
        _assert_equals_reference(adj, stream, params)
        assert adj.deg.sum() <= 0.15 * adj.entries_scanned.sum()
        assert (adj.deg == params.d_max).any()
        assert int(_edge_dt(adj, stream).max()) == oldest
        stale, stale_with_hit = _stale_newest_queues(stream, params)
        assert stale > 0 and stale_with_hit == 0


def _hit_classes(stream, params) -> collections.Counter:
    """Count the cells whose newest retained entry is within r_t, over
    every event's window up to its d_max-th hit, by how their hits lie:
    - whole_short / whole_full: every retained entry is a hit, with the
      queue below or at its depth
    - cut_in_whole: of those, the ones where the d_max-th hit falls before
      the queue's last entry
    - one_behind_stale: the newest entry is the one hit
    - some: 2 <= hits < retained entries
    - some_to_first: of those, two hits, the older one the earliest event
      of the stream within r_t of the query
    """
    r, keep, d_max = params.r_s, params.queue_depth, params.d_max
    arrivals: dict[tuple[int, int], list[Event]] = {}
    out = collections.Counter()
    for ev in stream.events:
        first = int(np.searchsorted(stream.t, ev.t - params.r_t))
        deg = 0
        for dy in range(-r, r + 1):
            for dx in range(-r, r + 1):
                if deg == d_max or not graph_builder._spatial_ok(dx, dy,
                                                                 params):
                    continue
                queue = arrivals.get((ev.x - dx, ev.y - dy), [])[-keep:]
                hits = sum(ev.t - old.t <= params.r_t for old in queue)
                if hits == len(queue) > 0:
                    out["whole_short" if hits < keep else "whole_full"] += 1
                    out["cut_in_whole"] += deg < d_max < deg + hits
                elif hits == 1:
                    out["one_behind_stale"] += 1
                elif hits:
                    out["some"] += 1
                    out["some_to_first"] += (hits == 2
                                             and queue[-2].n == first)
                deg = min(d_max, deg + hits)
        arrivals.setdefault((ev.x, ev.y), []).append(ev)
    return out


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("cells", [1, 40])
def test_build_adjacency_hit_counts(cells, cpus, make_stream, monkeypatch):
    """r_s = 2 on a 5x4 sensor whose pixel 7 gets 40 % of the events.
    Gaps of 0, 10, 20 and 100 us against r_t = 30 leave stale entries
    behind fresh ones, and a burst of 20 events 1 us apart at pixel 7
    fills even a 16-deep queue within r_t, past d_max = 6. At queue depths
    1, 2 and 16 the cells' hit counts cover every class of _hit_classes,
    and the build equals the incremental reference with chunks of 1 or up
    to 40 cells, on one thread or two."""
    monkeypatch.setattr(graph_builder, "_cpus", lambda: cpus)
    monkeypatch.setattr(graph_builder, "REPLAY_CELLS", cells)
    rng = np.random.default_rng(31)
    w, h, n = 5, 4, 160
    pixels = np.where(rng.random(n) < 0.4, 7, rng.integers(0, w * h, n))
    gaps = rng.choice([0, 10, 10, 20, 100], n)
    gaps[40:60], pixels[40:60] = 1, 7
    stream = make_stream(w, h, [
        (int(q % w), int(q // w), int(t), k % 2)
        for k, (q, t) in enumerate(zip(pixels, np.cumsum(gaps)))])
    seen = collections.Counter()
    for depth in (1, 2, 16):
        params = SearchParams(r_s=2, r_t=30, d_max=6, queue_depth=depth)
        _assert_equals_reference(build_adjacency(stream, params), stream,
                                 params)
        classes = _hit_classes(stream, params)
        seen += classes
        if depth == 16:
            assert set(classes) == {"whole_short", "whole_full",
                                    "cut_in_whole", "one_behind_stale",
                                    "some", "some_to_first"}
    assert seen["whole_full"] > seen["whole_short"] > 0


@pytest.mark.parametrize("width, key_type", [(250, np.uint16),
                                             (251, np.uint32)])
def test_build_adjacency_pixel_key_types(width, key_type, make_stream,
                                         monkeypatch):
    """build_adjacency sorts the pixel keys as their narrowest unsigned
    type: with r_s = 3, a 250x250 sensor pads to 256x256 = 65536 pixels,
    whose keys fit uint16, and a 251x250 one to 65792 pixels, past it.
    Events at all four corners and their neighbours build edges that equal
    the incremental reference."""
    real, sorted_types = np.argsort, []

    def recording(a, *args, **kwargs):
        sorted_types.append(np.asarray(a).dtype)
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np, "argsort", recording)
    h = 250
    rows = [(x, y, 10 * k + j, j % 2)
            for j in range(3)
            for k, (x, y) in enumerate([(0, 0), (width - 1, 0), (0, h - 1),
                                        (width - 1, h - 1), (1, 0),
                                        (width - 2, h - 1), (0, h - 3),
                                        (width - 1, 2)])]
    rows.sort(key=lambda row: row[2])
    stream = make_stream(width, h, rows)
    params = SearchParams(r_s=3, r_t=100, d_max=8, queue_depth=2)
    adj = build_adjacency(stream, params)
    assert sorted_types == [key_type]
    _assert_equals_reference(adj, stream, params)
    assert adj.deg.sum() > 0


def _recorded_pools(monkeypatch) -> list[int]:
    """Record the size of each thread pool build_adjacency opens."""
    sizes = []

    class Recording(ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(graph_builder, "ThreadPoolExecutor", Recording)
    return sizes


def _hot_pixel_stream(make_stream, shape="prism"):
    """Half of 240 events at one pixel of a 5x4 sensor, so its queue of
    depth 3 overflows again and again and most events reach d_max = 5."""
    rng = np.random.default_rng(29)
    pixels = np.where(rng.random(240) < 0.5, 7, rng.integers(0, 20, 240))
    ts = np.sort(rng.integers(0, 400, size=240))
    params = SearchParams(shape=shape, r_s=2, r_t=60, d_max=5,
                          queue_depth=3)
    return make_stream(5, 4, [(int(q % 5), int(q // 5), int(t), k % 2)
                              for k, (q, t) in enumerate(zip(pixels, ts))]
                       ), params


@pytest.mark.parametrize("cells", [1, 40])
@pytest.mark.parametrize("shape", ["prism", "cylinder"])
def test_build_adjacency_threaded_chunks(shape, cells, make_stream,
                                         monkeypatch):
    """With two CPUs, the calling thread and one pool thread share each
    tranche's chunks of at most cells // 2 cells (1 row at the floor): the
    result equals the incremental reference, with early stops mid-queue,
    d_max-saturated events and overflowing queues, and no thread outlives
    a build."""
    monkeypatch.setattr(graph_builder, "_cpus", lambda: 2)
    monkeypatch.setattr(graph_builder, "REPLAY_CELLS", cells)
    pools = _recorded_pools(monkeypatch)
    threads = threading.active_count()
    _check_against_incremental_reference(shape, make_stream)
    stream, params = _hot_pixel_stream(make_stream, shape)
    adj = build_adjacency(stream, params)
    _assert_equals_reference(adj, stream, params)
    assert (adj.deg == params.d_max).mean() > 0.5
    assert threading.active_count() == threads
    assert pools and set(pools) == {1}


def test_build_adjacency_threads_stress(monkeypatch):
    """Four threads switching every microsecond share chunks of at most
    16 cells: a chunk run twice or skipped would change deg and the scan
    counts, but the arrays equal a one-thread build's."""
    stream = _rand_stream(5, width=40, height=30, count=3000,
                          duration=20_000)
    params = SearchParams(r_s=3, r_t=2_000, d_max=8, queue_depth=8)
    monkeypatch.setattr(graph_builder, "_cpus", lambda: 1)
    want = build_adjacency(stream, params)
    monkeypatch.setattr(graph_builder, "_cpus", lambda: 4)
    monkeypatch.setattr(graph_builder, "REPLAY_CELLS", 64)
    pools = _recorded_pools(monkeypatch)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = build_adjacency(stream, params)
    finally:
        sys.setswitchinterval(interval)
    assert pools == [3]
    for name in ("deg", "nbr_n", "nbr_o", "entries_scanned"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def test_build_adjacency_one_cpu_opens_no_pool(make_stream, monkeypatch):
    """With one CPU the chunks, at most 40 cells each, run in the calling
    thread."""
    monkeypatch.setattr(graph_builder, "_cpus", lambda: 1)
    monkeypatch.setattr(graph_builder, "REPLAY_CELLS", 40)
    pools = _recorded_pools(monkeypatch)
    stream, params = _hot_pixel_stream(make_stream)
    _assert_equals_reference(build_adjacency(stream, params), stream, params)
    assert pools == []


def test_build_adjacency_pool_thread_error_reaches_caller(make_stream,
                                                          monkeypatch):
    """A MemoryError in a pool thread's chunk is raised by build_adjacency,
    after its pool is shut down."""
    monkeypatch.setattr(graph_builder, "_cpus", lambda: 2)
    monkeypatch.setattr(graph_builder, "REPLAY_CELLS", 40)

    class Failing(ThreadPoolExecutor):
        def submit(self, fn, *args):
            def no_memory(*_args):
                raise MemoryError("Unable to allocate 298. GiB")
            return super().submit(no_memory, *args)

    monkeypatch.setattr(graph_builder, "ThreadPoolExecutor", Failing)
    stream, params = _hot_pixel_stream(make_stream)
    threads = threading.active_count()
    with pytest.raises(MemoryError, match="298. GiB"):
        build_adjacency(stream, params)
    assert threading.active_count() == threads


def test_build_adjacency_rejects_backwards_time(make_stream):
    """build_adjacency's prefix count needs timestamps that never decrease;
    no stream reaches it with one that does."""
    with pytest.raises(event_io.NonMonotoneTime,
                       match=r"^line 3: timestamp 19 < previous 20$"):
        make_stream(8, 6, [(1, 1, 10, 0), (2, 2, 20, 1),
                           (3, 3, 19, 0), (4, 4, 5, 0)])


def test_build_adjacency_rejects_off_sensor_event(make_stream):
    with pytest.raises(event_io.OutOfBounds,
                       match=r"^line 2: pixel \(1,6\) outside 8x6$"):
        make_stream(8, 6, [(1, 1, 10, 0), (1, 6, 20, 1)])


def test_build_adjacency_empty_stream(make_stream):
    params = SearchParams(d_max=5)
    adj = build_adjacency(make_stream(8, 6), params)
    assert adj.deg.shape == adj.entries_scanned.shape == (0,)
    for a in (adj.nbr_n, adj.nbr_o):
        assert a.shape == (0, 5)
    assert len(adj.win_dx) == len(adj.win_dy) == 25


def test_build_adjacency_dtypes(make_stream):
    """nbr_o has the narrowest unsigned type that holds the window size K,
    which marks every slot past the degree."""
    stream = make_stream(30, 30, [(1, 1, 0, 0), (2, 1, 300, 1),
                                  (2, 2, 700, 0), (1, 1, 800, 1)])
    for shape, r_s, k, slot_type in [
            ("prism", 3, 25, np.uint8), ("cylinder", 3, 29, np.uint8),
            ("prism", 10, 221, np.uint8), ("prism", 11, 265, np.uint16),
            ("cylinder", 9, 253, np.uint8), ("cylinder", 10, 317, np.uint16)]:
        params = SearchParams(shape=shape, r_s=r_s, d_max=4)
        adj = build_adjacency(stream, params)
        assert [a.dtype for a in (adj.deg, adj.nbr_n, adj.nbr_o,
                                  adj.entries_scanned)] == \
            [np.int64, np.int32, slot_type, np.int64]
        assert len(adj.win_dx) == len(adj.win_dy) == k
        assert adj.deg.tolist() == [0, 1, 2, 3]
        assert np.array_equal(adj.nbr_o == k,
                              np.arange(4) >= adj.deg[:, None])
        empty = build_adjacency(make_stream(30, 30), params)
        assert empty.nbr_o.dtype == slot_type


def test_dependency_levels_over_row_blocks(monkeypatch):
    """With LEVEL_ROWS cut to 64, the levels of a 400-event dot, whose
    events depend on events of earlier row blocks, equal the recursion
    level(i) = 1 + max level(neighbours of i), 0 without neighbours."""
    monkeypatch.setattr(graph_builder, "LEVEL_ROWS", 64)
    stream = event_io.gen_synthetic(
        "moving_dot", {"width": 20, "height": 20, "count": 400,
                       "duration_us": 4_000}, 5)
    adj = build_adjacency(stream, SearchParams(d_max=4, queue_depth=4))
    deg, nbr = adj.deg.tolist(), adj.nbr_n.tolist()
    assert any(n < i // 64 * 64 for i in range(64, 400)
               for n in nbr[i][:deg[i]])

    @functools.cache
    def level(i):
        return 1 + max(map(level, nbr[i][:deg[i]])) if deg[i] else 0

    expect = [level(i) for i in range(len(deg))]  # in order: shallow
    got = graph_builder.dependency_levels(adj)
    assert len(got) == max(expect) + 1 > 7
    for lv, rows in enumerate(got):
        assert rows.tolist() == [i for i, e in enumerate(expect) if e == lv]


@pytest.mark.parametrize("shape", ["prism", "cylinder"])
def test_build_adjacency_offsets_past_int8(shape, make_stream):
    """r_s = 128: offsets of +-128, past int8, from a window of more than
    2**8 slots."""
    pixels = [(0, 0), (128, 0), (0, 128), (0, 0), (128, 0), (0, 128),
              (64, 64), (129, 129), (1, 0)]
    stream = make_stream(130, 130, [(x, y, t, t % 2)
                                    for t, (x, y) in enumerate(pixels)])
    params = SearchParams(shape=shape, r_s=128, r_t=100, d_max=6,
                          queue_depth=2)
    adj = build_adjacency(stream, params)
    _assert_equals_reference(adj, stream, params)
    assert adj.nbr_o.dtype == np.uint16
    edge = adj.nbr_o[np.arange(params.d_max) < adj.deg[:, None]]
    for a in (adj.win_dx[edge], adj.win_dy[edge]):
        assert a.min() == -128 and a.max() == 128


@pytest.mark.parametrize("shape", ["prism", "cylinder"])
def test_build_adjacency_time_past_32_bits(shape, make_stream):
    """r_t >= 2**32 over timestamps past 2**32: edges more than 2**32 apart
    are kept."""
    ts = [0, 5, 2**32 + 7, 2**32 + 7, 2**33 + 1, 2**34]
    stream = make_stream(4, 3, [(k % 2, 1, t, k % 2)
                                for k, t in enumerate(ts)])
    params = SearchParams(shape=shape, r_s=1, r_t=2**33, d_max=4,
                          queue_depth=3)
    adj = build_adjacency(stream, params)
    _assert_equals_reference(adj, stream, params)
    assert int(_edge_dt(adj, stream).max()) == 2**34 - (2**33 + 1)


class TestProperties:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_causality(self, seed):
        stream = _rand_stream(seed, count=150)
        params = SearchParams(r_s=3, r_t=500)
        for i, ev in enumerate(stream.events):
            for nb in brute_force_neighbors(stream.events[:i], ev, params):
                assert ev.t - stream.t[nb.n] >= 0
                assert nb.n < ev.n

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_capacity_and_no_truncation_when_small(self, seed):
        stream = _rand_stream(seed, count=150)
        capped = SearchParams(r_s=2, r_t=500, d_max=4)
        uncapped = SearchParams(r_s=2, r_t=500, d_max=10**6)
        for i, ev in enumerate(stream.events):
            full = brute_force_neighbors(stream.events[:i], ev, uncapped)
            out = brute_force_neighbors(stream.events[:i], ev, capped)
            assert len(out) <= capped.d_max
            if len(full) <= capped.d_max:
                assert out == full

    @given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(1, 400))
    @settings(max_examples=15, deadline=None)
    def test_radius_monotone(self, seed, r_s, r_t):
        stream = _rand_stream(seed, count=120)
        small = SearchParams(r_s=r_s, r_t=r_t, d_max=10**6)
        big = SearchParams(r_s=r_s + 1, r_t=r_t + 200, d_max=10**6)
        for i, ev in enumerate(stream.events):
            s = {nb.n for nb in brute_force_neighbors(stream.events[:i],
                                                      ev, small)}
            b = {nb.n for nb in brute_force_neighbors(stream.events[:i],
                                                      ev, big)}
            assert s <= b
