"""Event stream parsing, validation, synthesis, and serialization.

Text format: UTF-8, one "x y t p" line per event, LF endings, no header.
Binary format: little-endian 9-byte records (x:u16, y:u16, t:u32 us, p:u8),
no header; sensor geometry is supplied out-of-band.

An EventStream is columnar: four read-only int64 columns x, y, t, p, where
row n is the event with stream index n. Parsers, generators and writers
work on the columns. Event objects exist only for the scalar per-event API
(the per-event engine and the brute-force neighbor references), which
reads them from the stream's cached `events` list.

An EventStream checks its rows when built, so every consumer takes it as
valid. Only the file formats cap a timestamp at T_MAX, not the stream.

All functions are pure over immutable inputs.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

T_MAX = 2**32 - 1  # timestamps are 32-bit microseconds

_RECORD_DTYPE = np.dtype([("x", "<u2"), ("y", "<u2"), ("t", "<u4"),
                          ("p", "u1")])
RECORD_SIZE = _RECORD_DTYPE.itemsize  # 9 bytes


class StreamError(ValueError):
    """Base class for event stream parse/validation failures."""

    def __init__(self, message: str, line_no: int | None = None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


class MalformedLine(StreamError):
    pass


class OutOfBounds(StreamError):
    pass


class NonMonotoneTime(StreamError):
    pass


class TruncatedRecord(StreamError):
    pass


class InvalidParams(ValueError):
    pass


@dataclass(frozen=True)
class Event:
    """One camera event plus its stream index n (assigned at parse time)."""

    x: int
    y: int
    t: int
    p: int
    n: int


@dataclass(frozen=True, eq=False)
class EventStream:
    """Sensor geometry plus four int64 columns; row n is event n.

    The constructor casts each column with astype(int64), so non-integer
    values truncate as int(), and makes it read-only: together with the
    frozen attributes, the cached `events` can never go stale. It raises
    OutOfBounds on a pixel off the sensor or a polarity outside {0, 1},
    and NonMonotoneTime on a timestamp below the one before it, naming
    the first bad row n as line n + 1.
    """

    width: int
    height: int
    x: np.ndarray = ()
    y: np.ndarray = ()
    t: np.ndarray = ()
    p: np.ndarray = ()

    def __post_init__(self):
        cols = [np.asarray(c).astype(np.int64)
                for c in (self.x, self.y, self.t, self.p)]
        if cols[0].ndim != 1 or any(c.shape != cols[0].shape for c in cols):
            raise ValueError("x, y, t, p must be 1-D columns of one length")
        x, y, t, p = cols
        # as uint64, a negative value is past every bound
        bad = ((x.view(np.uint64) >= self.width)
               | (y.view(np.uint64) >= self.height)
               | (p.view(np.uint64) > 1))
        bad[1:] |= t[1:] < t[:-1]
        if bad.any():
            k = int(np.argmax(bad))
            # row 0 has no earlier time: its fault is its pixel or polarity
            _check_row(int(x[k]), int(y[k]), int(p[k]), self.width,
                       self.height, k + 1)
            _check_order(int(t[k]), int(t[k - 1]), k + 1)
        for name, col in zip("xytp", cols):
            col.flags.writeable = False
            object.__setattr__(self, name, col)

    def __reduce__(self):
        # copies and unpickled streams go through the constructor, so they
        # come back read-only and without a cached `events`
        return EventStream, (self.width, self.height,
                             self.x, self.y, self.t, self.p)

    def __len__(self) -> int:
        return len(self.x)

    @cached_property
    def events(self) -> list[Event]:
        """The rows as Event objects, for the scalar per-event API."""
        return list(map(Event, self.x.tolist(), self.y.tolist(),
                        self.t.tolist(), self.p.tolist(), range(len(self))))


def _check_row(x: int, y: int, p: int, width: int, height: int,
               line_no: int) -> None:
    if not (0 <= x < width and 0 <= y < height):
        raise OutOfBounds(f"pixel ({x},{y}) outside {width}x{height}", line_no)
    if p not in (0, 1):
        raise OutOfBounds(f"polarity {p} not in {{0,1}}", line_no)


def _check_order(t: int, last_t: int, line_no: int) -> None:
    if t < last_t:
        raise NonMonotoneTime(f"timestamp {t} < previous {last_t}", line_no)


def parse_text_stream(source: bytes | str, width: int, height: int) -> EventStream:
    """Parse the "x y t p" line format; n assigned 0..len-1 in file order.

    The whole buffer is decoded into columns, which build the stream at
    once when every timestamp fits 32 bits; only input that fails there
    goes through the per-line parse, which raises the first error with
    its line number (a blank line shifts it from the stream's row).
    """
    data = (source.encode("utf-8", "replace") if isinstance(source, str)
            else source)
    rows = _decode_text(data)
    if rows is not None and (rows[:, 2].view(np.uint64) <= T_MAX).all():
        with contextlib.suppress(StreamError):
            return EventStream(width, height, *rows.T)
    return EventStream(width, height,
                       *_parse_text_lines(source, width, height).T)


def _decode_text(data: bytes) -> np.ndarray | None:
    """The rows as int64 [N, 4] if every line is blank or four integers,
    each ASCII digits with at most one leading sign, split by spaces and
    tabs; None otherwise.

    One np.fromstring call converts the whole buffer. It raises on a sign
    inside a field, but reads a lone sign as part of the next number, or
    as 0 at the end of the buffer, so every sign must start a field and be
    followed by a digit, and the values must number the fields. A value
    beyond int64 saturates to +-(2**63 - 1), which the caller's range
    check or the EventStream constructor rejects.
    """
    # a line feed before the text and after it closes every line
    b = np.frombuffer(b"\n" + data + b"\n", dtype=np.uint8)
    lf = b == ord("\n")
    sep = lf | (b == ord(" ")) | (b == ord("\t"))
    digit = (b >= ord("0")) & (b <= ord("9"))
    sign = (b == ord("+")) | (b == ord("-"))
    if not (sep | digit | sign).all():
        return None
    start = ~sep
    start[1:] &= sep[:-1]  # first byte of each field
    lead = sign & start  # a sign that starts a field and precedes a digit
    lead[:-1] &= digit[1:]
    if (sign & ~lead).any():
        return None
    fields = np.flatnonzero(start)
    per_line = np.diff(np.searchsorted(fields, np.flatnonzero(lf)))
    if ((per_line != 0) & (per_line != 4)).any():
        return None
    try:
        values = np.fromstring(data, dtype=np.int64, sep=" ")
    except ValueError:
        return None
    if len(values) != len(fields):  # blank text reads as [0]
        return None
    return values.reshape(-1, 4)


def _parse_text_lines(source: bytes | str, width: int,
                      height: int) -> np.ndarray:
    """Per-line parse and check: raises the first error in the text."""
    if isinstance(source, bytes):
        source = source.decode("utf-8")
    rows: list[tuple[int, int, int, int]] = []
    last_t = 0
    for line_no, line in enumerate(source.splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 4:
            raise MalformedLine(f"expected 4 fields, got {len(parts)}", line_no)
        try:
            x, y, t, p = (int(v) for v in parts)
        except ValueError:
            raise MalformedLine(f"non-integer field in {line!r}", line_no) from None
        _check_row(x, y, p, width, height, line_no)
        if not 0 <= t <= T_MAX:
            raise OutOfBounds(f"timestamp {t} outside 32-bit range", line_no)
        _check_order(t, last_t, line_no)
        rows.append((x, y, t, p))
        last_t = t
    return np.array(rows, dtype=np.int64).reshape(-1, 4)


def parse_binary_stream(source: bytes, width: int, height: int) -> EventStream:
    """Parse the 9-byte little-endian record format.

    Its fields cannot pass the 32-bit limits, so the EventStream
    constructor makes every check, and its errors name record n as
    line n + 1, as the text parser would.
    """
    if len(source) % RECORD_SIZE != 0:
        raise TruncatedRecord(
            f"{len(source)} bytes is not a multiple of {RECORD_SIZE}")
    rec = np.frombuffer(source, dtype=_RECORD_DTYPE)
    return EventStream(width, height, *(rec[k] for k in "xytp"))


def write_binary_stream(stream: EventStream) -> bytes:
    """Pack the 9-byte records; a value its field cannot hold raises."""
    rec = np.empty(len(stream), dtype=_RECORD_DTYPE)
    for name in _RECORD_DTYPE.names:
        col = getattr(stream, name)
        lim = np.iinfo(_RECORD_DTYPE[name])
        bad = np.flatnonzero((col < lim.min) | (col > lim.max))
        if len(bad):
            k = int(bad[0])
            raise OutOfBounds(f"{name} = {col[k]} does not fit the record's "
                              f"{lim.dtype} field", k + 1)
        rec[name] = col
    return rec.tobytes()


def write_text_stream(stream: EventStream) -> str:
    """One "x y t p" line per event, formatted by one % over all values."""
    cols = np.column_stack([stream.x, stream.y, stream.t, stream.p])
    return ("%d %d %d %d\n" * len(stream)) % tuple(cols.ravel().tolist())


def gen_synthetic(kind: str, params: dict, seed: int) -> EventStream:
    """Deterministic synthetic streams for testing and calibration.

    kinds:
        uniform_random -- events uniform over the sensor and time span.
        moving_dot     -- events clustered around a dot moving at a constant
                          velocity (px/ms); extra params: velocity, dot_radius.
    """
    if kind == "uniform_random":
        return _gen_uniform(params, seed)
    if kind == "moving_dot":
        return _gen_moving_dot(params, seed)
    raise InvalidParams(f"unknown kind {kind!r}")


def _check_common(params: dict) -> tuple[int, int, int, int]:
    try:
        width = int(params["width"])
        height = int(params["height"])
        count = int(params["count"])
        duration = int(params.get("duration_us", 100_000))
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidParams(f"bad params: {exc}") from None
    if width < 1 or height < 1 or count < 0 or duration < 1 or duration > T_MAX:
        raise InvalidParams("width/height >= 1, count >= 0, 1 <= duration <= 2^32-1")
    return width, height, count, duration


def _gen_uniform(params: dict, seed: int) -> EventStream:
    width, height, count, duration = _check_common(params)
    rng = np.random.default_rng(seed)
    ts = np.sort(rng.integers(0, duration, size=count))
    xs = rng.integers(0, width, size=count)
    ys = rng.integers(0, height, size=count)
    ps = rng.integers(0, 2, size=count)
    return EventStream(width, height, xs, ys, ts, ps)


def _gen_moving_dot(params: dict, seed: int) -> EventStream:
    width, height, count, duration = _check_common(params)
    vx, vy = params.get("velocity", (1.0, 0.0))
    radius = float(params.get("dot_radius", 3.0))
    # a NaN or infinite dot position would round to int64's minimum
    if not all(math.isfinite(v * (duration / 1000.0)) for v in (vx, vy)):
        raise InvalidParams("velocity * duration must be finite")
    if not 0 <= radius < math.inf:
        raise InvalidParams("dot_radius must be finite and >= 0")
    rng = np.random.default_rng(seed)
    ts = np.sort(rng.integers(0, duration, size=count))
    # Dot center at t, bounced off the sensor borders to stay in frame.
    cx = (width / 2.0) + vx * (ts / 1000.0)
    cy = (height / 2.0) + vy * (ts / 1000.0)
    cx = _fold(cx, width)
    cy = _fold(cy, height)
    ang = rng.uniform(0.0, 2 * np.pi, size=count)
    rad = radius * np.sqrt(rng.uniform(0.0, 1.0, size=count))
    xs = np.clip(np.round(cx + rad * np.cos(ang)), 0, width - 1)
    ys = np.clip(np.round(cy + rad * np.sin(ang)), 0, height - 1)
    ps = rng.integers(0, 2, size=count)
    return EventStream(width, height, xs, ys, ts, ps)


def _fold(v: np.ndarray, size: int) -> np.ndarray:
    """Reflect coordinates into [0, size) (triangle wave)."""
    period = 2.0 * max(size - 1, 1)
    v = np.mod(v, period)
    return np.where(v >= size, period - v, v)
