import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evgnn import event_io, graph_builder
from evgnn.engine import build_adjacency
from evgnn.event_io import Event
from evgnn.graph_builder import (EventQueueGrid, InvalidDims,
                                 InvalidSearchParams, OutOfBoundsEvent,
                                 Neighbor, SearchParams,
                                 brute_force_neighbors, search_neighbors)
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


class TestSearchNeighbors:
    def test_empty_grid(self):
        g = EventQueueGrid(8, 8, 16)
        assert search_neighbors(g, Event(3, 3, 100, 0, 0),
                                SearchParams()) == []

    def test_prism_predicate(self):
        g = EventQueueGrid(16, 16, 16)
        g.push_event(Event(6, 5, 90, 0, 0))
        g.push_event(Event(5, 8, 95, 1, 1))
        out = search_neighbors(g, Event(5, 5, 100, 0, 2),
                               SearchParams(r_s=2, r_t=50))
        # (6,5): |dx|+|dy| = 1, dt = 10; (5,8): |dx|+|dy| = 3 fails
        assert [(nb.n, nb.dx, nb.dy, nb.dt) for nb in out] == [(0, -1, 0, 10)]

    def test_dt_zero_tie_is_neighbor(self):
        g = EventQueueGrid(8, 8, 16)
        g.push_event(Event(3, 3, 100, 0, 0))
        out = search_neighbors(g, Event(3, 3, 100, 1, 1), SearchParams())
        assert [nb.n for nb in out] == [0]
        assert out[0].dt == 0

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
            out.append(Neighbor(old.n, old.t, old.p, dx, dy, dt))
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
        expect = [(nb.n, nb.dx, nb.dy, nb.dt) for nb in
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
    """The same check with replay_build's chunks cut small: 1 row each, or
    2 to 40 rows, which splits pixel runs of these up to 59-event streams
    between chunks."""
    monkeypatch.setattr(graph_builder, "REPLAY_CELLS", cells)
    _check_against_incremental_reference(shape, make_stream)


def _stale_newest_queues(stream, params):
    """(queues whose newest retained entry is older than r_t, of those
    the ones where an older retained entry is within r_t), over every
    event's window; a stream whose timestamps never decrease has none of
    the second kind, so replay_build counts no hits in the first kind."""
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


def test_build_adjacency_rejects_backwards_time(make_stream):
    stream = make_stream(8, 6, [(1, 1, 10, 0), (2, 2, 20, 1),
                                (3, 3, 19, 0), (4, 4, 5, 0)])
    with pytest.raises(event_io.NonMonotoneTime,
                       match=r"n=2: timestamp 19 < previous 20"):
        build_adjacency(stream, SearchParams())


def test_build_adjacency_rejects_off_sensor_event(make_stream):
    stream = make_stream(8, 6, [(1, 1, 10, 0), (1, 6, 20, 1)])
    with pytest.raises(OutOfBoundsEvent, match=r"n=1: \(1,6\)"):
        build_adjacency(stream, SearchParams())


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
                assert nb.dt >= 0
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
