import copy
import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evgnn import event_io
from evgnn.event_io import (T_MAX, Event, EventStream, InvalidParams,
                            MalformedLine, NonMonotoneTime, OutOfBounds,
                            TruncatedRecord)

W, H = 32, 24


def _same(a, b) -> bool:
    return ((a.width, a.height) == (b.width, b.height)
            and all(np.array_equal(getattr(a, c), getattr(b, c))
                    for c in "xytp"))


def _records(rows) -> bytes:
    """The 9-byte records of (x, y, t, p) rows, packed without a stream."""
    return np.array([tuple(r) for r in rows],
                    dtype=event_io._RECORD_DTYPE).tobytes()


def _text(rows) -> str:
    return "".join(f"{x} {y} {t} {p}\n" for x, y, t, p in rows)


def _outcome(build):
    """build()'s stream, or its StreamError's type and message."""
    try:
        return build()
    except event_io.StreamError as exc:
        return type(exc), str(exc)


def _first_fault(rows, width, height):
    """The constructor's error for the first bad row, or None."""
    for k, (x, y, t, p) in enumerate(rows):
        if not (0 <= x < width and 0 <= y < height):
            return OutOfBounds, (f"line {k + 1}: pixel ({x},{y}) outside "
                                 f"{width}x{height}")
        if p not in (0, 1):
            return OutOfBounds, f"line {k + 1}: polarity {p} not in {{0,1}}"
        if k and t < rows[k - 1][2]:
            return NonMonotoneTime, (f"line {k + 1}: timestamp {t} < "
                                     f"previous {rows[k - 1][2]}")
    return None


def _rare(common, rare):
    """One of rare one time in eight, else one of common."""
    return st.integers(0, 7).flatmap(
        lambda i: st.sampled_from(rare if i == 0 else common))


# random but valid (x, y, t, p) rows with sorted timestamps
valid_rows = st.lists(
    st.tuples(st.integers(0, W - 1), st.integers(0, H - 1),
              st.integers(0, 10_000), st.integers(0, 1)),
    max_size=200,
).map(lambda rows: sorted(rows, key=lambda r: r[2]))


@st.composite
def valid_text(draw):
    """Text of valid rows in the forms int() reads: signs, leading zeros,
    runs of spaces and tabs, blank lines, with or without a final line
    feed."""
    ws = st.text(" \t", min_size=1, max_size=3)
    lines = []
    for row in draw(valid_rows.filter(len)):
        lines += draw(st.lists(st.text(" \t", max_size=2), max_size=2))
        # a sign (- only on 0), leading zeros, the digits
        fields = [draw(st.sampled_from(["", "+", "-"][:3 if v == 0 else 2]))
                  + "0" * draw(st.integers(0, 2)) + str(v) for v in row]
        line = draw(st.text(" \t", max_size=2)) + fields[0]
        for f in fields[1:]:
            line += draw(ws) + f
        lines.append(line + draw(st.text(" \t", max_size=2)))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


class TestTextFormat:
    def test_parse_simple(self):
        s = event_io.parse_text_stream("1 2 10 0\n3 4 11 1\n", W, H)
        assert s.events == [Event(1, 2, 10, 0, 0), Event(3, 4, 11, 1, 1)]

    def test_blank_lines_skipped(self):
        s = event_io.parse_text_stream("\n1 2 10 0\n\n", W, H)
        assert len(s) == 1

    def test_wrong_field_count(self):
        with pytest.raises(MalformedLine) as exc:
            event_io.parse_text_stream("1 2 10\n", W, H)
        assert exc.value.line_no == 1

    def test_non_integer_field(self):
        with pytest.raises(MalformedLine):
            event_io.parse_text_stream("1 2 ten 0\n", W, H)

    def test_out_of_bounds_pixel(self):
        with pytest.raises(OutOfBounds):
            event_io.parse_text_stream(f"{W} 0 10 0\n", W, H)

    def test_bad_polarity(self):
        with pytest.raises(OutOfBounds):
            event_io.parse_text_stream("1 1 10 2\n", W, H)

    def test_time_must_not_decrease(self):
        with pytest.raises(NonMonotoneTime) as exc:
            event_io.parse_text_stream("1 1 10 0\n1 1 9 0\n", W, H)
        assert exc.value.line_no == 2

    @pytest.mark.parametrize("bad, error, message", [
        ("1 2 9 0", NonMonotoneTime, "timestamp 9 < previous 11"),
        ("1 2 x 0", MalformedLine, "non-integer field in '1 2 x 0'"),
        ("1 2 10", MalformedLine, "expected 4 fields, got 3"),
        (f"{W} 2 12 0", OutOfBounds, f"pixel ({W},2) outside {W}x{H}"),
        ("1 2 12 2", OutOfBounds, "polarity 2 not in {0,1}"),
        ("1 2 4294967296 0", OutOfBounds,
         "timestamp 4294967296 outside 32-bit range"),
    ])
    def test_first_error_after_blank_lines(self, bad, error, message):
        text = f"1 2 10 0\n\n  \n3 4 11 1\n\n{bad}\n"
        for source in (text, text.encode(), text + f"{W} 0 9 5\n"):
            with pytest.raises(error) as exc:
                event_io.parse_text_stream(source, W, H)
            assert exc.value.line_no == 6
            assert str(exc.value) == f"line 6: {message}"

    @pytest.mark.parametrize("text, message", [
        ("1 2 10 0\n1 2 -5 0\n", "line 2: timestamp -5 outside 32-bit range"),
        ("1 2 -5 0\n", "line 1: timestamp -5 outside 32-bit range"),
        (f"{W} 2 -5 0\n", f"line 1: pixel ({W},2) outside {W}x{H}"),
    ], ids=["after_a_row", "first_row", "after_a_bad_pixel"])
    def test_negative_timestamp_message(self, text, message):
        """A negative t is outside the format's range, not a step back
        from 0, and a bad pixel on its line is reported first."""
        with pytest.raises(OutOfBounds) as exc:
            event_io.parse_text_stream(text, W, H)
        assert str(exc.value) == message

    @pytest.mark.parametrize("text, per_line", [
        ("+1\t2 010 -0\n\n3 4  11 1", False),
        ("1 2 10 0\r\n3 4 1_1 1\r\n", True),
    ])
    def test_integer_forms(self, make_stream, monkeypatch, text, per_line):
        if not per_line:
            monkeypatch.setattr(event_io, "_parse_text_lines", None)
        want = make_stream(W, H, [(1, 2, 10, 0), (3, 4, 11, 1)])
        for source in (text, text.encode()):
            assert _same(event_io.parse_text_stream(source, W, H), want)

    @given(valid_text())
    @settings(max_examples=100, deadline=None)
    def test_one_call_parse_equals_per_line(self, text):
        got = event_io._decode_text(text.encode())
        want = event_io._parse_text_lines(text, W, H)
        assert got is not None
        assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("bad", [
        "1 1-2 12 0",           # a sign inside a field
        "1 - 2 12",             # a lone sign mid-line
        "1 2 12 -",             # a lone sign as the text's last field
        f"1 2 {2**64} 0",       # beyond int64
        f"{-2**64} 2 12 0",
    ])
    def test_one_call_parse_errors_match_per_line(self, bad):
        """Input the one-call parse cannot take falls back to the per-line
        parse, which raises as it would alone."""
        text = f"1 2 10 0\n\n3 4 11 1\n{bad}"
        for source in (text, text.encode()):
            with pytest.raises(event_io.StreamError) as want:
                event_io._parse_text_lines(source, W, H)
            with pytest.raises(type(want.value)) as got:
                event_io.parse_text_stream(source, W, H)
            assert str(got.value) == str(want.value)
            assert str(got.value).startswith("line 4: ")

    def test_equal_timestamps_legal(self):
        s = event_io.parse_text_stream("1 1 10 0\n2 2 10 1\n", W, H)
        assert [ev.t for ev in s.events] == [10, 10]

    @given(valid_rows)
    @settings(max_examples=50, deadline=None)
    def test_round_trip(self, make_stream, rows):
        s = make_stream(W, H, rows)
        assert _same(event_io.parse_text_stream(
            event_io.write_text_stream(s), W, H), s)


@pytest.mark.parametrize("rows", [
    [], [(3, 4, 5, 1)],
    [(0, 0, T_MAX - 1, 0), (W - 1, H - 1, T_MAX, 1), (1, 2, T_MAX, 0)],
    "random"])
def test_write_text_equals_per_event_format(make_stream, rows):
    """The one-% writer gives the bytes of one f-string per event."""
    if rows == "random":
        rng = np.random.default_rng(41)
        rows = list(zip(rng.integers(0, W, 500), rng.integers(0, H, 500),
                        np.sort(rng.integers(0, T_MAX, 500)),
                        rng.integers(0, 2, 500)))
    s = make_stream(W, H, rows)
    assert event_io.write_text_stream(s) == "".join(
        f"{x} {y} {t} {p}\n" for x, y, t, p in zip(
            *(c.tolist() for c in (s.x, s.y, s.t, s.p))))


class TestBinaryFormat:
    def test_empty_stream_is_zero_bytes(self, make_stream):
        assert event_io.write_binary_stream(make_stream(W, H)) == b""

    def test_one_event_is_nine_bytes(self, make_stream):
        data = event_io.write_binary_stream(make_stream(W, H, [(1, 2, 10, 0)]))
        assert len(data) == event_io.RECORD_SIZE == 9

    def test_little_endian_layout(self, make_stream):
        data = event_io.write_binary_stream(
            make_stream(300, H, [(0x0102, 0, 0x01020304, 1)]))
        assert data == bytes([0x02, 0x01, 0, 0, 0x04, 0x03, 0x02, 0x01, 1])

    def test_truncated_record(self):
        with pytest.raises(TruncatedRecord):
            event_io.parse_binary_stream(b"\x00" * 10, W, H)

    def test_validation_applies(self):
        with pytest.raises(OutOfBounds):
            event_io.parse_binary_stream(_records([(W + 1, 0, 1, 0)]), W, H)

    @given(valid_rows)
    @settings(max_examples=50, deadline=None)
    def test_round_trip(self, make_stream, rows):
        s = make_stream(W, H, rows)
        assert _same(event_io.parse_binary_stream(
            event_io.write_binary_stream(s), W, H), s)

    @pytest.mark.parametrize("k", [1, 7, 19, 28])
    @pytest.mark.parametrize("fault", ["x", "y", "polarity", "time"])
    def test_first_bad_record_matches_text(self, fault, k):
        rows = [[i % W, i % H, 100 + 10 * i, i % 2] for i in range(40)]
        if fault == "time":
            rows[k][2] = rows[k - 1][2] - 1
        else:
            col, value = {"x": (0, W), "y": (1, H + 3),
                          "polarity": (3, 2)}[fault]
            rows[k][col] = value
        rows[35] = [W + 5, 0, 500, 3]  # a later fault must not be reported
        with pytest.raises(event_io.StreamError) as text_exc:
            event_io.parse_text_stream(_text(rows), W, H)
        with pytest.raises(type(text_exc.value)) as exc:
            event_io.parse_binary_stream(_records(rows), W, H)
        assert exc.value.line_no == k + 1
        assert str(exc.value) == str(text_exc.value)

    def test_binary_layout_x0102(self, make_stream):
        # x = 0x0102 needs W > 0x0102; use a wider sensor
        data = event_io.write_binary_stream(
            make_stream(300, 4, [(258, 0, 1, 1)]))
        s = event_io.parse_binary_stream(data, 300, 4)
        assert s.events[0].x == 258

    @pytest.mark.parametrize("row", [(65536, 0, 0, 0), (0, 65536, 0, 0),
                                     (0, 0, 2**32, 0)], ids=["x", "y", "t"])
    def test_unrepresentable_value_raises(self, make_stream, row):
        # a numpy cast into the record would wrap these silently
        s = make_stream(70_000, 70_000, [(1, 1, 0, 0), row])
        with pytest.raises(OutOfBounds) as exc:
            event_io.write_binary_stream(s)
        assert exc.value.line_no == 2


class TestColumnarStream:
    def test_columns_are_read_only(self, small_stream):
        with pytest.raises(ValueError):
            small_stream.x[0] = 1
        with pytest.raises(ValueError):
            small_stream.p[:] = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            small_stream.t = np.zeros(len(small_stream), dtype=np.int64)
        assert small_stream.events  # fill the cache before copying
        for c in (copy.deepcopy(small_stream),
                  pickle.loads(pickle.dumps(small_stream))):
            assert not c.x.flags.writeable and "events" not in vars(c)
            assert _same(c, small_stream)

    def test_events_mirror_columns(self, small_stream):
        events = small_stream.events
        assert events is small_stream.events  # built once
        assert [(ev.x, ev.y, ev.t, ev.p, ev.n) for ev in events] == list(
            zip(small_stream.x.tolist(), small_stream.y.tolist(),
                small_stream.t.tolist(), small_stream.p.tolist(),
                range(len(small_stream))))

    def test_constructor_copies_and_casts(self):
        xs = np.array([1.9, 2.0, 3.5])
        s = EventStream(8, 8, xs, [0, 1, 2], [0, 0, 1], [1, 0, 1])
        assert s.x.dtype == np.int64 and s.x.tolist() == [1, 2, 3]
        xs[0] = 7.0
        assert s.x[0] == 1

    def test_ragged_columns_rejected(self):
        with pytest.raises(ValueError):
            EventStream(8, 8, [1, 2], [1], [0, 0], [0, 1])

    @given(st.lists(st.tuples(_rare(range(8), [-1, 8]),
                              _rare(range(6), [-1, 6]),
                              st.integers(-2, 4),
                              _rare([0, 1], [-1, 2])), max_size=10),
           st.sampled_from([-3, 0, T_MAX - 10]))
    @settings(max_examples=300, deadline=None)
    def test_constructor_agrees_with_parsers(self, make_stream, draws, t0):
        """Rows with pixels off an 8x6 sensor, polarities -1..2 and
        timestamps that step back, start below 0 or pass 2^32: the
        constructor raises on exactly the first bad row. On the rows the
        files can hold, both parsers give what it gives."""
        steps = np.cumsum([d[2] for d in draws]).tolist()
        rows = [(x, y, t0 + t, p) for (x, y, _, p), t in zip(draws, steps)]
        want = _first_fault(rows, 8, 6)
        got = _outcome(lambda: make_stream(8, 6, rows))
        if want is None:
            assert isinstance(got, EventStream)
        else:
            assert got == want
        held = [r for r in rows
                if 0 <= r[0] < 2**16 and 0 <= r[1] < 2**16
                and 0 <= r[2] <= T_MAX and 0 <= r[3] < 2**8]
        want = _outcome(lambda: make_stream(8, 6, held))
        for parse, data in ((event_io.parse_binary_stream, _records(held)),
                            (event_io.parse_text_stream, _text(held))):
            got = _outcome(lambda: parse(data, 8, 6))
            if isinstance(want, EventStream):
                assert _same(got, want)
            else:
                assert got == want


class TestSynthetic:
    def test_count_zero_gives_empty(self):
        s = event_io.gen_synthetic(
            "uniform_random", {"width": W, "height": H, "count": 0}, 0)
        assert len(s) == 0

    def test_deterministic(self):
        params = {"width": W, "height": H, "count": 500,
                  "duration_us": 10_000}
        a = event_io.gen_synthetic("uniform_random", params, 1)
        b = event_io.gen_synthetic("uniform_random", params, 1)
        assert _same(a, b)

    @pytest.mark.parametrize("kind", ["uniform_random", "moving_dot"])
    def test_output_valid(self, kind):
        s = event_io.gen_synthetic(
            kind, {"width": W, "height": H, "count": 800,
                   "duration_us": 50_000}, 3)
        # re-parsing applies every stream invariant
        assert _same(event_io.parse_text_stream(
            event_io.write_text_stream(s), W, H), s)

    def test_unknown_kind(self):
        with pytest.raises(InvalidParams):
            event_io.gen_synthetic("spiral", {"width": 1, "height": 1,
                                              "count": 1}, 0)

    def test_bad_dims(self):
        with pytest.raises(InvalidParams):
            event_io.gen_synthetic("uniform_random",
                                   {"width": 0, "height": 1, "count": 1}, 0)

    def test_moving_dot_centroid_advances(self):
        # velocity (1, 0) px/ms: window centroids drift right ~1 px/ms
        s = event_io.gen_synthetic(
            "moving_dot",
            {"width": 200, "height": 40, "count": 4000,
             "duration_us": 30_000, "velocity": (1.0, 0.0),
             "dot_radius": 2.0}, 7)
        xs, ts = s.x, s.t
        early = xs[ts < 5_000].mean()
        late = xs[(ts >= 25_000)].mean()
        drift_px_per_ms = (late - early) / 25.0
        assert drift_px_per_ms == pytest.approx(1.0, abs=0.25)
