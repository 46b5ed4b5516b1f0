"""Event stream parsing, validation, synthesis, and serialization.

Text format: UTF-8, one "x y t p" line per event, LF endings, no header.
Binary format: little-endian 9-byte records (x:u16, y:u16, t:u32 us, p:u8),
no header; sensor geometry is supplied out-of-band.

All functions are pure over immutable inputs.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

T_MAX = 2**32 - 1  # timestamps are 32-bit microseconds

_RECORD = struct.Struct("<HHIB")
RECORD_SIZE = _RECORD.size  # 9 bytes
_RECORD_DTYPE = np.dtype([("x", "<u2"), ("y", "<u2"), ("t", "<u4"),
                          ("p", "u1")])


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


@dataclass
class EventStream:
    width: int
    height: int
    events: list[Event] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.events)

    def __eq__(self, other) -> bool:
        if not isinstance(other, EventStream):
            return NotImplemented
        return (
            self.width == other.width
            and self.height == other.height
            and self.events == other.events
        )

    def to_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Columns (x, y, t, p) as int64 arrays, in stream order."""
        n = len(self.events)
        xs = np.empty(n, dtype=np.int64)
        ys = np.empty(n, dtype=np.int64)
        ts = np.empty(n, dtype=np.int64)
        ps = np.empty(n, dtype=np.int64)
        for i, ev in enumerate(self.events):
            xs[i] = ev.x
            ys[i] = ev.y
            ts[i] = ev.t
            ps[i] = ev.p
        return xs, ys, ts, ps


def stream_from_arrays(xs, ys, ts, ps, width: int, height: int) -> EventStream:
    """Events from four columns; non-integer values are truncated as int()."""
    cols = [np.asarray(c).astype(np.int64).tolist() for c in (xs, ys, ts, ps)]
    return EventStream(width, height,
                       list(map(Event, *cols, range(len(cols[0])))))


def _validate(x: int, y: int, t: int, p: int, last_t: int, width: int, height: int,
              line_no: int) -> None:
    if not (0 <= x < width and 0 <= y < height):
        raise OutOfBounds(f"pixel ({x},{y}) outside {width}x{height}", line_no)
    if p not in (0, 1):
        raise OutOfBounds(f"polarity {p} not in {{0,1}}", line_no)
    if not (0 <= t <= T_MAX):
        raise OutOfBounds(f"timestamp {t} outside 32-bit range", line_no)
    if t < last_t:
        raise NonMonotoneTime(f"timestamp {t} < previous {last_t}", line_no)


def parse_text_stream(source: bytes | str, width: int, height: int) -> EventStream:
    """Parse the "x y t p" line format; n assigned 0..len-1 in file order."""
    if isinstance(source, bytes):
        source = source.decode("utf-8")
    events: list[Event] = []
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
        _validate(x, y, t, p, last_t, width, height, line_no)
        events.append(Event(x, y, t, p, len(events)))
        last_t = t
    return EventStream(width, height, events)


def parse_binary_stream(source: bytes, width: int, height: int) -> EventStream:
    """Parse the 9-byte little-endian record format.

    The checks run on whole columns; the first failing record is then
    passed to _validate, so errors match the text parser's.
    """
    if len(source) % RECORD_SIZE != 0:
        raise TruncatedRecord(
            f"{len(source)} bytes is not a multiple of {RECORD_SIZE}")
    rec = np.frombuffer(source, dtype=_RECORD_DTYPE)
    xs, ys, ts, ps = (rec[k].astype(np.int64) for k in ("x", "y", "t", "p"))
    bad = (xs >= width) | (ys >= height) | (ps > 1)
    bad[1:] |= np.diff(ts) < 0
    if bad.any():
        k = int(np.argmax(bad))
        _validate(int(xs[k]), int(ys[k]), int(ts[k]), int(ps[k]),
                  int(ts[k - 1]) if k else 0, width, height, k + 1)
    return stream_from_arrays(xs, ys, ts, ps, width, height)


def write_binary_stream(stream: EventStream) -> bytes:
    return b"".join(
        _RECORD.pack(ev.x, ev.y, ev.t, ev.p) for ev in stream.events)


def write_text_stream(stream: EventStream) -> str:
    return "".join(f"{ev.x} {ev.y} {ev.t} {ev.p}\n" for ev in stream.events)


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
    return stream_from_arrays(xs, ys, ts, ps, width, height)


def _gen_moving_dot(params: dict, seed: int) -> EventStream:
    width, height, count, duration = _check_common(params)
    vx, vy = params.get("velocity", (1.0, 0.0))
    radius = float(params.get("dot_radius", 3.0))
    if radius < 0:
        raise InvalidParams("dot_radius must be >= 0")
    rng = np.random.default_rng(seed)
    ts = np.sort(rng.integers(0, duration, size=count))
    # Dot center at t, bounced off the sensor borders to stay in frame.
    cx = (width / 2.0) + vx * (ts / 1000.0)
    cy = (height / 2.0) + vy * (ts / 1000.0)
    cx = _fold(cx, width)
    cy = _fold(cy, height)
    ang = rng.uniform(0.0, 2 * np.pi, size=count)
    rad = radius * np.sqrt(rng.uniform(0.0, 1.0, size=count))
    xs = np.clip(np.round(cx + rad * np.cos(ang)), 0, width - 1).astype(np.int64)
    ys = np.clip(np.round(cy + rad * np.sin(ang)), 0, height - 1).astype(np.int64)
    ps = rng.integers(0, 2, size=count)
    return stream_from_arrays(xs, ys, ts, ps, width, height)


def _fold(v: np.ndarray, size: int) -> np.ndarray:
    """Reflect coordinates into [0, size) (triangle wave)."""
    period = 2.0 * max(size - 1, 1)
    v = np.mod(v, period)
    return np.where(v >= size, period - v, v)
