"""Array-namespace resolution and the precision policy registry.

The batched kernels (:mod:`repro.core.thermal.kernel`,
:mod:`repro.core.leakage.kernel`) and both scenario engines are written
against a single ``xp`` seam in the style of the Python Array API
standard: every hot-path module resolves its namespace from the arrays it
receives (:func:`get_namespace`) or from an engine-level policy
(:func:`resolve_namespace`) instead of importing ``numpy`` directly.  The
same code then runs on

* **numpy** — the default; results are bit-identical to the pre-seam
  engines;
* **array_api_strict** — the reference implementation of the standard,
  used by CI to prove no NumPy-only idiom leaks through the seam.

Each loop has one implementation that every namespace runs, so the two
registry entries differ only in the arrays they compute on.  That holds
for the thermal kernel's partitioned plan too: numpy evaluates its
elementwise chain in place through ``out=``, which the Array API lacks,
and every other namespace allocates, with the same operations in the
same order.

Precision is the second half of the policy: a :class:`Precision` names
the working dtype (``float64`` or ``float32``) together with the
documented tolerances float32 results are pinned to against the float64
reference (``tests/test_precision.py``).  ``float64`` is the default and
carries zero tolerances — it *is* the reference.

Both registries surface in :class:`repro.api.specs.StudySpec`
(``array_backend=`` / ``precision=``), the CLI (``repro info``) and
``docs/precision.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

import numpy as np

__all__ = [
    "ARRAY_BACKENDS",
    "PRECISIONS",
    "Precision",
    "array_backend_available",
    "array_backend_names",
    "get_namespace",
    "precision_names",
    "resolve_namespace",
    "resolve_precision",
    "result_float_dtype",
    "to_numpy",
]


def get_namespace(*arrays: Any) -> Any:
    """The Array-API namespace shared by ``arrays``.

    The ``array_api_compat.get_namespace`` contract, self-contained so the
    seam has no dependency beyond numpy: arrays advertising
    ``__array_namespace__`` resolve to that namespace, plain numpy arrays
    (and scalars / nested lists, which numpy will consume) resolve to
    ``numpy``, and mixing two different namespaces is an error.
    """
    namespaces = []
    for array in arrays:
        probe = getattr(array, "__array_namespace__", None)
        if probe is None:
            continue
        namespace = probe()
        if all(namespace is not seen for seen in namespaces):
            namespaces.append(namespace)
    if len(namespaces) > 1:
        names = ", ".join(getattr(ns, "__name__", repr(ns)) for ns in namespaces)
        raise TypeError(f"arrays mix incompatible namespaces: {names}")
    if namespaces and namespaces[0] is not None:
        namespace = namespaces[0]
        # numpy >= 2 advertises __array_namespace__ on ndarrays; keep the
        # canonical module object so `xp is numpy` stays a valid fast-path
        # test everywhere downstream.
        if getattr(namespace, "__name__", "") == "numpy":
            return np
        return namespace
    return np


#: Selectable array namespaces, in registry order.  ``numpy`` is always
#: available; ``array_api_strict`` resolves lazily and only if importable.
ARRAY_BACKENDS: Tuple[str, ...] = ("numpy", "array_api_strict")

_NAMESPACE_MODULES: Dict[str, str] = {
    "numpy": "numpy",
    "array_api_strict": "array_api_strict",
}


def array_backend_names() -> Tuple[str, ...]:
    """Registry names of the selectable array backends."""
    return ARRAY_BACKENDS


def resolve_namespace(name: Optional[str]) -> Any:
    """The namespace module registered under ``name`` (default: numpy).

    Raises ``ValueError`` for unknown names and ``ImportError`` (with the
    registry name in the message) when an optional backend is selected but
    not installed — the caller decides whether that is fatal.  An already
    resolved namespace object (anything exposing ``asarray``) passes
    through unchanged, so engines can be handed e.g. a compat-wrapped
    namespace directly.
    """
    if name is None:
        return np
    if not isinstance(name, str):
        if hasattr(name, "asarray"):
            return name
        raise TypeError(f"array_backend must be a registry name or namespace: {name!r}")
    if name not in _NAMESPACE_MODULES:
        raise ValueError(
            f"unknown array_backend {name!r}; "
            f"known backends: {', '.join(ARRAY_BACKENDS)}"
        )
    if name == "numpy":
        return np
    import importlib

    try:
        return importlib.import_module(_NAMESPACE_MODULES[name])
    except ImportError as error:
        raise ImportError(
            f"array_backend {name!r} is not installed "
            f"(module {_NAMESPACE_MODULES[name]!r}): {error}"
        ) from error


def array_backend_available(name: str) -> bool:
    """Whether the named backend can actually be imported here."""
    try:
        resolve_namespace(name)
    except (ImportError, ValueError):
        return False
    return True


def to_numpy(array: Any) -> np.ndarray:
    """``array`` as a numpy ndarray (no copy when it already is one).

    The engine-boundary export: results always leave the engines as numpy
    arrays whatever namespace computed them, so downstream consumers
    (serialization, reductions, plotting) stay namespace-free.
    """
    if isinstance(array, np.ndarray):
        return array
    if hasattr(array, "__dlpack__"):
        try:
            return np.from_dlpack(array)
        except (BufferError, RuntimeError, TypeError):
            pass
    return np.asarray(array)


@dataclass(frozen=True)
class Precision:
    """A named working-precision policy.

    Attributes
    ----------
    name:
        Registry name (``"float64"`` / ``"float32"``).
    dtype_name:
        Array-API dtype attribute the policy computes in (resolved per
        namespace via :meth:`dtype`).
    rtol, atol:
        Documented tolerances of this policy's results against the
        float64 reference (temperatures in K, powers relative); zero for
        float64 itself, which *is* the reference.
    description:
        One-line selection guidance (``repro info``, docs).
    """

    name: str
    dtype_name: str
    rtol: float
    atol: float
    description: str

    def dtype(self, xp: Any = np) -> Any:
        """This policy's dtype object within the namespace ``xp``."""
        return getattr(xp, self.dtype_name)


#: Selectable precision policies.  float64 is the default (and the
#: reference the float32 tolerances are measured against — see
#: ``docs/precision.md`` for the calibration).
PRECISIONS: Dict[str, Precision] = {
    "float64": Precision(
        name="float64",
        dtype_name="float64",
        rtol=0.0,
        atol=0.0,
        description="bit-exact verification runs (default)",
    ),
    "float32": Precision(
        name="float32",
        dtype_name="float32",
        rtol=1e-4,
        atol=5e-3,
        description="fast serving maps; within rtol=1e-4/atol=5e-3 of float64",
    ),
}


def precision_names() -> Tuple[str, ...]:
    """Registry names of the selectable precision policies."""
    return tuple(PRECISIONS)


def resolve_precision(name: Optional[str]) -> Precision:
    """The :class:`Precision` registered under ``name`` (default float64)."""
    if name is None:
        return PRECISIONS["float64"]
    if isinstance(name, Precision):
        return name
    try:
        return PRECISIONS[name]
    except KeyError:
        raise ValueError(
            f"unknown precision {name!r}; "
            f"known precisions: {', '.join(PRECISIONS)}"
        ) from None


def result_float_dtype(*arrays: Any) -> Any:
    """The working float dtype carried by ``arrays``.

    The first real-floating dtype found wins; float64 otherwise.  This is
    how the kernels thread a caller's precision policy through without a
    dtype parameter on every call: packed arrays carry the policy dtype
    and every intermediate/output allocation follows it.  Integer or bool
    inputs (index arrays, masks) never dictate the result dtype.
    """
    for array in arrays:
        dtype = getattr(array, "dtype", None)
        if dtype is None:
            continue
        try:
            if np.issubdtype(np.dtype(dtype), np.floating):
                return dtype
        except TypeError:
            # Non-numpy dtype objects (e.g. array_api_strict's) — probe
            # via their kind/name instead.
            if "float" in str(dtype):
                return dtype
    return np.float64
