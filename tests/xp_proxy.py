"""A minimal non-numpy Array-API namespace for exercising the ``xp`` seam.

``array_api_strict`` (the reference implementation) is an optional CI-only
dependency, so the local suite needs its own way to prove the engines'
functional loops stay within the Array-API surface and agree with numpy.
This module wraps every numpy array in :class:`ProxyArray` — an object that
is *not* an ``np.ndarray`` and whose ``__array_namespace__`` resolves to
:data:`xp_proxy` rather than numpy — while delegating all arithmetic to
numpy underneath.  Engines and kernels therefore take every non-numpy
branch (``get_namespace`` returns the proxy, ``xp is np`` is False), yet
compute bit-identical float64 results, which the parity tests assert
exactly.

Only the Array-API surface the repro kernels/engines actually use is
implemented; growing it is intentional when the seam grows.
"""

from __future__ import annotations

import numpy as np


def _unwrap(value):
    if isinstance(value, ProxyArray):
        return value.value
    if isinstance(value, (list, tuple)):
        return type(value)(_unwrap(entry) for entry in value)
    return value


def _wrap(value):
    if isinstance(value, (np.ndarray, np.generic)):
        return ProxyArray(np.asarray(value))
    return value


class ProxyArray:
    """A numpy array masquerading as a foreign Array-API array."""

    __hash__ = None

    def __init__(self, value) -> None:
        self.value = np.asarray(value)

    def __array_namespace__(self, api_version=None):
        return xp_proxy

    def __repr__(self) -> str:
        return f"ProxyArray({self.value!r})"

    # -- inspection ---------------------------------------------------- #
    @property
    def dtype(self):
        return self.value.dtype

    @property
    def shape(self):
        return self.value.shape

    @property
    def ndim(self):
        return self.value.ndim

    @property
    def size(self):
        return self.value.size

    @property
    def T(self):
        return ProxyArray(self.value.T)

    @property
    def mT(self):
        return ProxyArray(np.swapaxes(self.value, -1, -2))

    def __len__(self) -> int:
        return len(self.value)

    def __bool__(self) -> bool:
        return bool(self.value)

    def __float__(self) -> float:
        return float(self.value)

    def __int__(self) -> int:
        return int(self.value)

    def __getitem__(self, key):
        return _wrap(self.value[_unwrap(key)])

    def __setitem__(self, key, value):
        self.value[_unwrap(key)] = _unwrap(value)

    # -- interop ------------------------------------------------------- #
    def __dlpack__(self, **kwargs):
        return self.value.__dlpack__(**kwargs)

    def __dlpack_device__(self):
        return self.value.__dlpack_device__()

    # -- arithmetic ---------------------------------------------------- #
    def __add__(self, other):
        return _wrap(self.value + _unwrap(other))

    def __radd__(self, other):
        return _wrap(_unwrap(other) + self.value)

    def __sub__(self, other):
        return _wrap(self.value - _unwrap(other))

    def __rsub__(self, other):
        return _wrap(_unwrap(other) - self.value)

    def __mul__(self, other):
        return _wrap(self.value * _unwrap(other))

    def __rmul__(self, other):
        return _wrap(_unwrap(other) * self.value)

    def __truediv__(self, other):
        return _wrap(self.value / _unwrap(other))

    def __rtruediv__(self, other):
        return _wrap(_unwrap(other) / self.value)

    def __pow__(self, other):
        return _wrap(self.value ** _unwrap(other))

    def __rpow__(self, other):
        return _wrap(_unwrap(other) ** self.value)

    def __matmul__(self, other):
        return _wrap(self.value @ _unwrap(other))

    def __rmatmul__(self, other):
        return _wrap(_unwrap(other) @ self.value)

    def __neg__(self):
        return _wrap(-self.value)

    def __pos__(self):
        return _wrap(+self.value)

    def __abs__(self):
        return _wrap(abs(self.value))

    def __invert__(self):
        return _wrap(~self.value)

    def __and__(self, other):
        return _wrap(self.value & _unwrap(other))

    def __or__(self, other):
        return _wrap(self.value | _unwrap(other))

    # -- comparisons --------------------------------------------------- #
    def __eq__(self, other):
        return _wrap(self.value == _unwrap(other))

    def __ne__(self, other):
        return _wrap(self.value != _unwrap(other))

    def __lt__(self, other):
        return _wrap(self.value < _unwrap(other))

    def __le__(self, other):
        return _wrap(self.value <= _unwrap(other))

    def __gt__(self, other):
        return _wrap(self.value > _unwrap(other))

    def __ge__(self, other):
        return _wrap(self.value >= _unwrap(other))


class _ProxyNamespace:
    """Function namespace: numpy semantics behind Array-API lookups."""

    __name__ = "xp_proxy"

    # dtype objects are namespace attributes in the Array API.
    float64 = np.float64
    float32 = np.float32
    int64 = np.int64
    int32 = np.int32
    bool = np.bool_

    def __getattr__(self, name: str):
        function = getattr(np, name)

        def call(*args, **kwargs):
            args = tuple(_unwrap(argument) for argument in args)
            kwargs = {key: _unwrap(value) for key, value in kwargs.items()}
            return _wrap(function(*args, **kwargs))

        call.__name__ = name
        return call


#: The singleton namespace object every :class:`ProxyArray` resolves to.
xp_proxy = _ProxyNamespace()


def wrap(array) -> ProxyArray:
    """``array`` as a :class:`ProxyArray` (converting via numpy)."""
    return ProxyArray(np.asarray(array))


def unwrap(array) -> np.ndarray:
    """The numpy array behind ``array`` (pass-through for plain arrays)."""
    return np.asarray(_unwrap(array))
