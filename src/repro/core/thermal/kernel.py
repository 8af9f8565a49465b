"""Vectorized struct-of-arrays thermal kernel (paper Eqs. 18/19/20/21).

The scalar helpers in :mod:`repro.core.thermal.profile` evaluate one point
against one source per call, which makes full-chip surface maps and
resistance-matrix assembly O(points x image-sources) Python-level calls.
This module packs a set of :class:`~repro.core.thermal.sources.HeatSource`
objects into a :class:`SourceArray` (contiguous ``ndarray`` per field) and
evaluates the complete Eq. 20/21 recipe — centre cap (Eq. 18), line-source
far field (Eq. 19), buried point-source images and superposition (Eq. 21) —
for every point x source pair in a handful of array broadcasts.

The arithmetic intentionally mirrors the scalar path operation-by-operation
(same association order, same ``1e-15`` across-axis floor, same
``min``/clip combination) so the two agree to round-off; the parity suite
in ``tests/test_thermal_kernel.py`` pins the agreement to <= 1e-10 K.  The
scalar path stays in the tree as the readable reference implementation.

One plan (:class:`_KernelPlan`) serves every Array-API namespace.  It
splits the sources into wide, tall and buried populations, so each lane
runs only the formula branch the scalar path takes, and it writes its
elementwise functions in place on numpy only (:class:`_Elementwise`);
numpy and ``array_api_strict`` agree bit for bit.  Two layout choices
make the plan fast without changing a bit:

* Points are evaluated in cache-sized blocks (:data:`_DEFAULT_CHUNK_ELEMENTS`)
  so every in-place pass over a partition's temporary hits L2.
* The bottom-image ladder under each surface image shares that image's
  ``x``/``y``, so the buried population forms ``dx^2 + dy^2`` once per
  lateral slot and gathers it back per column with ``take`` (which keeps
  the C order the row sums fold in).

Each element keeps its operation sequence and each row sum its column
order, so :func:`temperature_rise` is identical for every block size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Union

import numpy as np

from ..backend import get_namespace, result_float_dtype, to_numpy
from .sources import HeatSource

#: Floor applied to the across-line distance, matching the scalar
#: :func:`~repro.core.thermal.sources.line_source_temperature` regulariser.
_ACROSS_FLOOR = 1e-15

#: Default cap on point x source elements evaluated per broadcast block.
#: Sized for cache, not just memory: a block's partition temporaries hold
#: about 2^16 float64 values (512 KiB) together, which stays inside a
#: 2 MiB L2, so each of the ten or so in-place passes over them reads from
#: cache instead of streaming a multi-MiB array through memory.  Blocks of
#: a few dozen points still amortise the NumPy dispatch overhead; results
#: do not depend on the block size.
_DEFAULT_CHUNK_ELEMENTS = 2**16

#: Default block cap of :func:`pairwise_rise`.  Its grouped sums are one
#: BLAS matmul per block, and a matmul folds each sum differently for
#: different row counts, so this block size is part of the result (of every
#: resistance matrix, among others) and stays where those were recorded.
_PAIRWISE_CHUNK_ELEMENTS = 2**21


@dataclass(frozen=True)
class SourceArray:
    """A set of rectangular heat sources in struct-of-arrays layout.

    Attributes
    ----------
    x, y:
        Centre coordinates [m], shape ``(M,)``.
    width, length:
        Footprint extents [m] along x and y.
    power:
        Total dissipated power [W]; negative for image sinks.
    depth:
        Depth [m] below the surface; 0 for surface sources.
    """

    x: np.ndarray
    y: np.ndarray
    width: np.ndarray
    length: np.ndarray
    power: np.ndarray
    depth: np.ndarray

    def __post_init__(self) -> None:
        fields = (self.x, self.y, self.width, self.length, self.power, self.depth)
        for field in fields:
            if field.ndim != 1 or field.shape != self.x.shape:
                raise ValueError("all SourceArray fields must be 1-D and equally sized")
        if self.x.shape[0]:
            xp = get_namespace(self.x)
            if not (xp.all(self.width > 0.0) and xp.all(self.length > 0.0)):
                raise ValueError("source dimensions must be positive")
            if not xp.all(self.depth >= 0.0):
                raise ValueError("depth must be non-negative")

    @classmethod
    def from_sources(
        cls, sources: Sequence[HeatSource], xp=np, dtype=None
    ) -> "SourceArray":
        """Pack a sequence of :class:`HeatSource` into contiguous arrays."""
        dtype = xp.float64 if dtype is None else dtype
        return cls(
            x=xp.asarray([s.x for s in sources], dtype=dtype),
            y=xp.asarray([s.y for s in sources], dtype=dtype),
            width=xp.asarray([s.width for s in sources], dtype=dtype),
            length=xp.asarray([s.length for s in sources], dtype=dtype),
            power=xp.asarray([s.power for s in sources], dtype=dtype),
            depth=xp.asarray([s.depth for s in sources], dtype=dtype),
        )

    def __len__(self) -> int:
        return int(self.x.shape[0])

    def to_sources(self) -> List[HeatSource]:
        """Unpack back into scalar :class:`HeatSource` objects."""
        return [
            HeatSource(
                x=float(self.x[i]),
                y=float(self.y[i]),
                width=float(self.width[i]),
                length=float(self.length[i]),
                power=float(self.power[i]),
                depth=float(self.depth[i]),
            )
            for i in range(len(self))
        ]

    def with_powers(self, power: np.ndarray) -> "SourceArray":
        """Copy with the power column replaced (same geometry)."""
        xp = get_namespace(self.x, power)
        power = xp.asarray(power, dtype=self.x.dtype)
        if power.shape != self.x.shape:
            raise ValueError("power must match the source count")
        return replace(self, power=power)

    def total_power(self) -> float:
        """Signed total power [W] over every packed source."""
        return float(get_namespace(self.power).sum(self.power))

    def cast(self, xp=np, dtype=None) -> "SourceArray":
        """Copy with every field converted into namespace ``xp``/``dtype``."""
        dtype = xp.float64 if dtype is None else dtype
        return SourceArray(
            x=xp.asarray(self.x, dtype=dtype),
            y=xp.asarray(self.y, dtype=dtype),
            width=xp.asarray(self.width, dtype=dtype),
            length=xp.asarray(self.length, dtype=dtype),
            power=xp.asarray(self.power, dtype=dtype),
            depth=xp.asarray(self.depth, dtype=dtype),
        )


SourceSetLike = Union[SourceArray, Sequence[HeatSource]]


def _as_source_array(sources: SourceSetLike) -> SourceArray:
    if isinstance(sources, SourceArray):
        return sources
    return SourceArray.from_sources(sources)


def _ignoring_out(function):
    return lambda *args, out=None: function(*args)


class _Elementwise:
    """The plan's elementwise functions of namespace ``xp``, resolved once.

    Each takes numpy's ``out=``.  numpy ufuncs write into it, so a
    partition's temporaries are reused while they sit in L2 (an allocating
    chain ran 1.59x slower); the Array API has no ``out=``, so other
    namespaces return a new array and ignore it.  numpy < 2 spells
    ``asinh`` as ``arcsinh``.
    """

    def __init__(self, xp) -> None:
        for name in ("abs", "asinh", "clip", "divide", "minimum", "sqrt"):
            if xp is np:
                setattr(self, name, getattr(np, "arcsinh" if name == "asinh" else name))
            else:
                setattr(self, name, _ignoring_out(getattr(xp, name)))


class _SurfacePartition:
    """Constants for surface sources whose line source runs along one axis.

    Splitting wide (line along x) and tall (line along y) sources into two
    partitions removes every per-element ``where`` from the hot loop: each
    partition evaluates one straight-line formula.
    """

    def __init__(
        self,
        sources: SourceArray,
        index: np.ndarray,
        along_x: bool,
        c1: float,
        c2: float,
        fn: _Elementwise,
    ) -> None:
        self.index = index
        self.along_x = along_x
        self.fn = fn
        xp = get_namespace(sources.x)
        columns = xp.asarray(index)
        width = xp.take(sources.width, columns)
        length = xp.take(sources.length, columns)
        power = xp.take(sources.power, columns)
        self.x = xp.take(sources.x, columns)
        self.y = xp.take(sources.y, columns)
        self.sign = xp.sign(power)
        magnitude = xp.abs(power)
        # Eq. 18 centre cap.
        term = width * fn.asinh(length / width) + length * fn.asinh(width / length)
        self.center = magnitude / (c1 * width * length) * term
        # Eq. 19 line source along the longer footprint dimension.
        extent = xp.maximum(width, length)
        self.half = 0.5 * extent
        self.far_coefficient = magnitude / (c2 * extent)

    def rises(self, px, py):
        """Eq. 20 rises of this partition's sources, ``(len(px), sources)``."""
        fn = self.fn
        dx = px[:, None] - self.x
        dy = py[:, None] - self.y
        along, across = (dx, dy) if self.along_x else (dy, dx)
        across = fn.abs(across, out=across)
        across = fn.clip(across, _ACROSS_FLOOR, None, out=across)
        upper = along + self.half
        upper /= across
        upper = fn.asinh(upper, out=upper)
        lower = along
        lower -= self.half
        lower /= across
        lower = fn.asinh(lower, out=lower)
        far = upper
        far -= lower
        far *= self.far_coefficient
        # Underflow of the far field extremely far out clips to zero, then
        # Eq. 20 takes the smaller magnitude and restores the sign.
        far = fn.clip(far, 0.0, None, out=far)
        far = fn.minimum(far, self.center, out=far)
        far *= self.sign
        return far


class _KernelPlan:
    """Per-source constants of the Eq. 20 evaluation, computed once.

    The packed sources split into three populations — surface sources whose
    far-field line runs along x (``width >= length``), surface sources whose
    line runs along y, and buried point-source images — so every broadcast
    block runs exactly the formula branch the scalar
    ``rectangle_temperature`` would take, with no per-element branching.
    The populations are told apart on the host; their arithmetic runs in
    the sources' namespace, in place on numpy (:class:`_Elementwise`).
    """

    def __init__(self, sources: SourceArray, conductivity: float) -> None:
        if conductivity <= 0.0:
            raise ValueError("conductivity must be positive")
        xp = get_namespace(sources.x)
        self.xp = xp
        self.fn = _Elementwise(xp)
        self.count = len(sources)
        self.dtype = sources.x.dtype
        # Match the scalar association order: pi*k and 2.0*pi*k are the
        # exact left-folded prefixes of the scalar denominators.
        c1 = math.pi * conductivity
        c2 = 2.0 * math.pi * conductivity

        surface = to_numpy(sources.depth) == 0.0
        wide = surface & (to_numpy(sources.width) >= to_numpy(sources.length))
        tall = surface & ~wide
        # Surface partitions, wide then tall; empty ones are dropped.
        self.partitions = [
            _SurfacePartition(sources, np.flatnonzero(mask), along_x, c1, c2, self.fn)
            for mask, along_x in ((wide, True), (tall, False))
            if mask.any()
        ]

        self.buried_index = np.flatnonzero(~surface)
        if self.buried_index.size:
            sub = self.buried_index
            bx = to_numpy(sources.x)[sub]
            by = to_numpy(sources.y)[sub]
            # The bottom-image ladder under one surface image shares its
            # x/y exactly, so consecutive buried columns at one position
            # share a lateral slot: a new slot starts wherever the
            # position changes.
            starts = np.ones(sub.size, dtype=bool)
            starts[1:] = (bx[1:] != bx[:-1]) | (by[1:] != by[:-1])
            self.slot = xp.asarray(np.cumsum(starts) - 1)
            self.sx = xp.asarray(bx[starts])
            self.sy = xp.asarray(by[starts])
            columns = xp.asarray(sub)
            depth = xp.take(sources.depth, columns)
            self.bdepth_sq = depth * depth
            self.bpower = xp.take(sources.power, columns)
            self.c2 = c2

        # :meth:`block` writes the populations side by side (wide, tall,
        # buried) and gathers the columns back into source order through
        # the inverse permutation: the Array API has no integer-array
        # ``__setitem__`` to scatter with.
        order = np.concatenate([p.index for p in self.partitions] + [self.buried_index])
        self.inverse = xp.asarray(np.argsort(order))

    def _buried_rises(self, px, py):
        """Point-source image rises, ``(len(px), buried)``.

        ``dx^2 + dy^2`` is formed once per lateral slot and gathered back
        per column with ``take``, whose result is C-ordered like the
        per-column broadcast it replaces (``lat[:, slot]`` is not, and its
        row sums fold in a different order).
        """
        fn = self.fn
        lat = px[:, None] - self.sx
        dy = py[:, None] - self.sy
        lat *= lat
        dy *= dy
        lat += dy
        r = self.xp.take(lat, self.slot, axis=1)
        r += self.bdepth_sq
        r = fn.sqrt(r, out=r)
        r *= self.c2
        return fn.divide(self.bpower, r, out=r)

    def block(self, px, py):
        """Per-pair temperature rises, shape ``(len(px), count)``."""
        xp = self.xp
        dtype = xp.result_type(px, self.dtype)
        joined = xp.empty((px.shape[0], self.count), dtype=dtype)
        start = 0
        for partition in self.partitions:
            stop = start + partition.index.size
            joined[:, start:stop] = partition.rises(px, py)
            start = stop
        if self.buried_index.size:
            joined[:, start:] = self._buried_rises(px, py)
        return xp.take(joined, self.inverse, axis=1)

    def row_sums(self, px, py):
        """Eq. 21 superposed rises, shape ``(len(px),)``.

        Sums each population's contributions directly instead of building
        the full ``(n, count)`` block — the hot path for maps.  Starting
        from zeros and adding in population order fixes the fold (and the
        sign of a zero sum).
        """
        xp = self.xp
        total = xp.zeros(px.shape[0], dtype=xp.result_type(px, self.dtype))
        for partition in self.partitions:
            total += xp.sum(partition.rises(px, py), axis=1)
        if self.buried_index.size:
            total += xp.sum(self._buried_rises(px, py), axis=1)
        return total


def as_points(points) -> np.ndarray:
    xp = get_namespace(points)
    array = xp.asarray(points, dtype=result_float_dtype(points))
    if array.ndim != 2 or array.shape[1] != 2:
        raise ValueError("points must have shape (N, 2)")
    return array


def _chunk_size(source_count: int, chunk_elements: int) -> int:
    return max(1, chunk_elements // max(1, source_count))


def temperature_rise(
    points,
    sources: SourceSetLike,
    conductivity: float,
    chunk_elements: int = _DEFAULT_CHUNK_ELEMENTS,
) -> np.ndarray:
    """Superposed temperature rise [K] at every point (Eq. 21), batched.

    Parameters
    ----------
    points:
        Observation points, shape ``(N, 2)`` of ``(x, y)`` [m].
    sources:
        A :class:`SourceArray` or a sequence of :class:`HeatSource`
        (typically the image-expanded set).
    conductivity:
        Substrate thermal conductivity [W/m/K].
    chunk_elements:
        Cap on point x source pairs evaluated per broadcast block; the
        default keeps each block in L2.  Never changes the result.
    """
    pts = as_points(points)
    array = _as_source_array(sources)
    if len(array) == 0:
        raise ValueError("at least one source is required")
    xp = get_namespace(pts, array.x)
    plan = _KernelPlan(array, conductivity)
    count = pts.shape[0]
    out = xp.empty(count, dtype=xp.result_type(pts, array.x))
    step = _chunk_size(len(array), chunk_elements)
    for start in range(0, count, step):
        stop = min(start + step, count)
        out[start:stop] = plan.row_sums(pts[start:stop, 0], pts[start:stop, 1])
    return out


def pairwise_rise(
    points,
    sources: SourceSetLike,
    conductivity: float,
    groups: Optional[np.ndarray] = None,
    group_count: Optional[int] = None,
    chunk_elements: int = _PAIRWISE_CHUNK_ELEMENTS,
) -> np.ndarray:
    """Per-source temperature rises [K] at every point, shape ``(N, M)``.

    Entry ``[i, j]`` is the Eq. 20 rise at point ``i`` due to source ``j``
    alone.  When ``groups`` is given (one integer label per source, e.g.
    the originating-source index of each image produced by
    :meth:`~repro.core.thermal.images.ImageExpansion.expand_arrays`), the
    columns are summed per label and the result has shape
    ``(N, group_count)`` — exactly the block-to-block thermal-resistance
    matrix when the points are block centres and each group is one block's
    unit-power image family.  Ungrouped results do not depend on
    ``chunk_elements``; grouped sums do, in the last bits (see
    :data:`_PAIRWISE_CHUNK_ELEMENTS`).
    """
    pts = as_points(points)
    array = _as_source_array(sources)
    if len(array) == 0:
        raise ValueError("at least one source is required")
    xp = get_namespace(pts, array.x)
    dtype = xp.result_type(pts, array.x)
    if groups is not None:
        groups = np.asarray(groups)
        if groups.shape != (len(array),):
            raise ValueError("groups must provide one label per source")
        columns = int(group_count) if group_count is not None else int(groups.max()) + 1
        # The 0/1 scatter is staged on the host; the gather itself is a
        # matmul in the working namespace.
        indicator = np.zeros((len(array), columns))
        indicator[np.arange(len(array)), groups] = 1.0
        indicator = xp.asarray(indicator, dtype=dtype)
    else:
        columns = len(array)
        indicator = None
    plan = _KernelPlan(array, conductivity)
    count = pts.shape[0]
    out = xp.empty((count, columns), dtype=dtype)
    step = _chunk_size(len(array), chunk_elements)
    for start in range(0, count, step):
        stop = min(start + step, count)
        block = plan.block(pts[start:stop, 0], pts[start:stop, 1])
        out[start:stop, :] = block if indicator is None else block @ indicator
    return out


def scalar_reference_rise(
    x: float, y: float, sources: SourceSetLike, conductivity: float
) -> float:
    """Scalar-path rise [K] at one point — the kernel's parity oracle.

    Evaluates the same source set through the original per-source Python
    implementation (:func:`~repro.core.thermal.profile.rectangle_temperature`
    summed left to right), which is what the vectorized kernel must match.
    """
    from .profile import rectangle_temperature

    array = _as_source_array(sources)
    return sum(
        rectangle_temperature(x, y, source, conductivity)
        for source in array.to_sources()
    )
