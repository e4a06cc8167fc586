"""Uniform grids, sampled functions, canonical JSON and the field CSV writer.

Everything downstream (transforms, norms, the solver) works on periodized
uniform grids.  A grid stands in for the real line: scenario data decay fast
enough that the periodization error sits below every tolerance used in the
test harness.

The problem is real, and this module is the one place that decides it: a
GridFunction or TimeSeries (a datum g or a boundary series h_j) holds
float64 samples only.  Complex-typed samples with a zero imaginary part are
stored as their real part; a nonzero imaginary part raises PreconditionError.
Only SpaceTimeField, which also carries the bilinear probes' complex fields,
keeps complex128 input.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "PreconditionError",
    "UniformGrid",
    "GridFunction",
    "TimeSeries",
    "SpaceTimeField",
    "canonical_json",
    "field_to_csv",
]


class PreconditionError(ValueError):
    """Input data violates a stated operating precondition."""


@dataclass(frozen=True)
class UniformGrid:
    """Periodized uniform grid: nodes origin + k*step, k = 0..count-1.

    The periodization length is step*count; discrete frequencies are the
    standard FFT set with spacing 2*pi/length.
    """

    origin: float
    step: float
    count: int

    def __post_init__(self):
        if not (self.step > 0):
            raise ValueError(f"grid step must be positive, got {self.step}")
        if self.count < 2:
            raise ValueError(f"grid count must be >= 2, got {self.count}")

    @property
    def length(self) -> float:
        return self.step * self.count

    @property
    def nodes(self) -> np.ndarray:
        return self.origin + self.step * np.arange(self.count)

    @property
    def frequencies(self) -> np.ndarray:
        """Angular frequencies in FFT (unsorted) order."""
        return 2.0 * np.pi * np.fft.fftfreq(self.count, d=self.step)

    @property
    def freq_step(self) -> float:
        return 2.0 * np.pi / self.length

    @property
    def nyquist(self) -> float:
        return np.pi / self.step

    def index_of(self, coordinate: float) -> int:
        """Index of the node closest to `coordinate` (must lie on the grid)."""
        k = int(round((coordinate - self.origin) / self.step))
        if not (0 <= k < self.count):
            raise ValueError(f"coordinate {coordinate} outside grid range")
        if abs(self.origin + k * self.step - coordinate) > 1e-9 * max(1.0, abs(coordinate)):
            raise ValueError(f"coordinate {coordinate} does not lie on a grid node")
        return k

    def window(self, lo: float, hi: float) -> slice:
        """The nodes in the closed interval [lo, hi], to rounding, as one slice:
        a node counts when it misses the interval by at most 1e-14, so a grid
        whose zero node is a rounding off 0 keeps it.  The nodes increase, so
        the indices are contiguous; reversed bounds give an empty slice."""
        nodes = self.nodes
        start = int(np.searchsorted(nodes, lo - 1e-14, side="left"))
        stop = int(np.searchsorted(nodes, hi + 1e-14, side="right"))
        return slice(start, max(start, stop))


def _freeze(values: np.ndarray, shape_expected: tuple, real: bool) -> np.ndarray:
    """Read-only copy in the input's own memory layout: complex input as
    complex128, any other as float64.  With `real`, complex input is stored
    as its real part and refused (PreconditionError) if that drops anything."""
    arr = np.asarray(values, dtype=np.complex128 if np.iscomplexobj(values) else np.float64)
    if arr.shape != shape_expected:
        raise ValueError(f"values shape {arr.shape} does not match grid shape {shape_expected}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("values contain non-finite entries")
    if real and np.iscomplexobj(arr):
        if np.any(arr.imag):
            raise PreconditionError(
                "GridFunction and TimeSeries samples must be real: the imaginary part is nonzero"
            )
        arr = arr.real
    arr = arr.copy(order="K")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class GridFunction:
    """Real samples on a UniformGrid (a function of one variable), float64."""

    grid: UniformGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "values", _freeze(self.values, (self.grid.count,), real=True))


class TimeSeries(GridFunction):
    """A GridFunction whose grid runs over t rather than x."""


@dataclass(frozen=True)
class SpaceTimeField:
    """Samples u(x_i, t_n) on a tensor grid, shape (count_x, count_t), float64 or complex128."""

    xgrid: UniformGrid
    tgrid: UniformGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(
            self, "values", _freeze(self.values, (self.xgrid.count, self.tgrid.count), real=False)
        )


# ---------------------------------------------------------------------------
# Canonical JSON: deterministic float formatting (17 significant digits).
# ---------------------------------------------------------------------------

def _format_scalar(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if x is None:
        return "null"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        v = float(x)
        if not math.isfinite(v):
            raise ValueError(f"non-finite float in JSON payload: {v}")
        return f"{v:.17g}"
    if isinstance(x, str):
        return json.dumps(x)
    raise TypeError(f"unsupported JSON scalar type: {type(x)}")


def canonical_json(obj, indent: int = 0) -> str:
    """Serialize dict/list/scalar trees with floats printed at 17 significant
    digits. Identical inputs produce byte-identical output."""
    pad = " " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key, val in obj.items():
            if not isinstance(key, str):
                raise TypeError("JSON object keys must be strings")
            items.append(f"{pad}  {json.dumps(key)}: {canonical_json(val, indent + 2)}")
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            return "[]"
        scalars = all(not isinstance(v, (dict, list, tuple, np.ndarray)) for v in seq)
        if scalars:
            return "[" + ", ".join(_format_scalar(v) for v in seq) + "]"
        items = [f"{pad}  {canonical_json(v, indent + 2)}" for v in seq]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, (complex, np.complexfloating)):
        raise TypeError("split complex values into re/im before serializing")
    return _format_scalar(obj)


# ---------------------------------------------------------------------------
# CSV writer for space-time fields.
# ---------------------------------------------------------------------------

def field_to_csv(u: SpaceTimeField, stream) -> None:
    """Write long-format columns x, t, re, im to the text `stream`; one line
    per node, t fastest.

    Each x-row of the field is written by one `%` format of all its lines.
    """
    stream.write("x,t,re,im\n")
    count_t = u.tgrid.count
    lines = "%s,%s,%.17g,%.17g\n" * count_t
    cells: list = [None] * (4 * count_t)
    cells[1::4] = [f"{t:.17g}" for t in u.tgrid.nodes.tolist()]
    for x, row in zip(u.xgrid.nodes.tolist(), u.values):
        cells[0::4] = [f"{x:.17g}"] * count_t
        cells[2::4] = row.real.tolist()
        cells[3::4] = row.imag.tolist()
        stream.write(lines % tuple(cells))
