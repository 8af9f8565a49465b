"""Unit tests for :mod:`repro.core.backend` — the Array-API/precision seam."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import kinds
from repro.core import backend
from repro.core.backend import (
    ARRAY_BACKENDS,
    PRECISIONS,
    Precision,
    array_backend_available,
    array_backend_names,
    get_namespace,
    precision_names,
    resolve_namespace,
    resolve_precision,
    result_float_dtype,
    to_numpy,
)

from xp_proxy import ProxyArray, xp_proxy


class TestGetNamespace:
    def test_numpy_arrays_resolve_to_numpy(self):
        assert get_namespace(np.zeros(3)) is np

    def test_no_arrays_default_to_numpy(self):
        assert get_namespace() is np
        assert get_namespace(1.0, [2.0], None) is np

    def test_foreign_arrays_resolve_their_namespace(self):
        assert get_namespace(ProxyArray(np.zeros(3))) is xp_proxy

    def test_mixing_namespaces_is_an_error(self):
        with pytest.raises(TypeError, match="incompatible"):
            get_namespace(np.zeros(3), ProxyArray(np.zeros(3)))


class TestResolveNamespace:
    def test_none_and_numpy_resolve_to_numpy(self):
        assert resolve_namespace(None) is np
        assert resolve_namespace("numpy") is np

    def test_unknown_name_lists_the_registry(self):
        with pytest.raises(ValueError, match="numpy"):
            resolve_namespace("not-a-backend")

    def test_namespace_objects_pass_through(self):
        assert resolve_namespace(xp_proxy) is xp_proxy
        assert resolve_namespace(np) is np

    def test_non_namespace_objects_are_rejected(self):
        with pytest.raises(TypeError):
            resolve_namespace(object())

    def test_unavailable_backend_raises_a_helpful_error(self, monkeypatch):
        monkeypatch.setitem(
            backend._NAMESPACE_MODULES, "array_api_strict", "repro_no_such_module"
        )
        with pytest.raises(
            ImportError,
            match=r"array_backend 'array_api_strict' is not installed "
            r"\(module 'repro_no_such_module'\)",
        ):
            resolve_namespace("array_api_strict")
        assert not array_backend_available("array_api_strict")

    def test_numpy_is_always_available(self):
        assert array_backend_available("numpy")
        assert not array_backend_available("not-a-backend")


class TestToNumpy:
    def test_ndarray_passes_through_unchanged(self):
        array = np.arange(3.0)
        assert to_numpy(array) is array

    def test_proxy_arrays_convert_via_dlpack(self):
        values = np.asarray([1.5, -2.5])
        converted = to_numpy(ProxyArray(values))
        assert isinstance(converted, np.ndarray)
        np.testing.assert_array_equal(converted, values)

    def test_plain_sequences_convert_via_asarray(self):
        np.testing.assert_array_equal(to_numpy([1.0, 2.0]), np.asarray([1.0, 2.0]))


class TestPrecisionRegistry:
    def test_registry_names(self):
        assert precision_names() == ("float64", "float32")
        assert set(PRECISIONS) == {"float64", "float32"}

    def test_none_resolves_to_float64(self):
        assert resolve_precision(None) is PRECISIONS["float64"]

    def test_names_resolve_and_objects_pass_through(self):
        float32 = resolve_precision("float32")
        assert float32.name == "float32"
        assert resolve_precision(float32) is float32

    def test_unknown_precision_lists_the_registry(self):
        with pytest.raises(ValueError, match="float64"):
            resolve_precision("float16")

    def test_float64_is_the_exact_reference(self):
        reference = PRECISIONS["float64"]
        assert reference.rtol == 0.0 and reference.atol == 0.0
        assert reference.dtype(np) == np.float64

    def test_float32_documents_nonzero_tolerances(self):
        single = PRECISIONS["float32"]
        assert single.rtol > 0.0 and single.atol > 0.0
        assert single.dtype(np) == np.float32

    def test_dtype_resolves_in_any_namespace(self):
        assert PRECISIONS["float32"].dtype(xp_proxy) == np.float32

    def test_precision_is_immutable(self):
        with pytest.raises(AttributeError):
            PRECISIONS["float64"].rtol = 1.0

    def test_precision_repr_mentions_the_name(self):
        assert "float32" in repr(PRECISIONS["float32"])
        assert isinstance(PRECISIONS["float32"], Precision)


class TestResultFloatDtype:
    def test_defaults_to_float64(self):
        assert result_float_dtype() == np.float64
        assert result_float_dtype(np.arange(3)) == np.float64

    def test_first_floating_operand_wins(self):
        assert result_float_dtype(np.zeros(2, np.float32)) == np.float32
        assert (
            result_float_dtype(np.zeros(2, np.float32), np.zeros(2, np.float64))
            == np.float32
        )

    def test_non_array_operands_are_skipped(self):
        assert result_float_dtype([1.0], np.zeros(2, np.float32)) == np.float32


class TestKindMirrors:
    """`repro.api.kinds` repeats the registries as plain literals so the
    CLI's `--help` stays numpy-free; the mirrors must never drift."""

    def test_array_backends_mirror(self):
        assert kinds.ARRAY_BACKENDS == ARRAY_BACKENDS == tuple(array_backend_names())

    def test_precisions_mirror(self):
        assert kinds.PRECISIONS == tuple(PRECISIONS)
