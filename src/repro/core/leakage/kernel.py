"""Vectorized struct-of-arrays leakage kernel (paper Eqs. 1–2, 6–13).

The scalar helpers in :mod:`repro.core.leakage.subthreshold` and
:mod:`repro.core.leakage.stack_collapse` evaluate one device (or one chain
collapse step) per call through ``math.exp``, which makes technology-node
sweeps and the electro-thermal fixed point O(devices x scenarios)
Python-level calls.  This module packs device parameters into a
:class:`DeviceArray` and OFF chains into a :class:`StackArray` (contiguous
``ndarray`` per field) and evaluates the closed forms — subthreshold
current (Eqs. 1–2), the pair-collapse recursion (Eqs. 6–10), whole-chain
collapse (Eqs. 11–12) and the equivalent-width gate current (Eq. 13) —
for whole batches of (device, bias, temperature) tuples in a handful of
NumPy broadcasts.

The arithmetic intentionally mirrors the scalar path
operation-by-operation (same association order, same
:data:`~repro.core.leakage.subthreshold.MAX_EXPONENT` clamp applied via
``np.clip`` before ``np.exp``) so the two agree to round-off; the parity
suite in ``tests/test_leakage_kernel.py`` pins the agreement to <= 1e-12
relative across the full technology-node table.  The scalar path stays in
the tree as the readable reference implementation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ...technology.constants import BOLTZMANN, ELEMENTARY_CHARGE
from ...technology.parameters import DeviceParameters, TechnologyParameters
from ..backend import get_namespace, result_float_dtype
from .subthreshold import MAX_EXPONENT


def safe_exp(values) -> np.ndarray:
    """Batched mirror of :func:`repro.core.leakage.subthreshold.safe_exp`.

    The exponent is clamped symmetrically to ``[-MAX_EXPONENT,
    +MAX_EXPONENT]`` with ``clip`` before ``exp`` in the values' own array
    namespace, matching the scalar clamp exactly (both saturate at
    ``exp(+-250)``).  Python-float bounds keep the values' dtype (so a
    float32 batch clamps and exponentiates in float32).
    """
    xp = get_namespace(values)
    return xp.exp(xp.clip(values, -MAX_EXPONENT, MAX_EXPONENT))


def thermal_voltage(temperature) -> np.ndarray:
    """Thermal voltage ``kT/q`` [V], broadcast over temperatures."""
    xp = get_namespace(temperature)
    temperature = xp.asarray(temperature, dtype=result_float_dtype(temperature))
    if xp.any(temperature <= 0.0):
        raise ValueError("temperature must be positive in Kelvin")
    return BOLTZMANN * temperature / ELEMENTARY_CHARGE


@dataclass(frozen=True)
class DeviceArray:
    """Compact-model parameters of a batch of devices, struct-of-arrays.

    Every field is a float ``ndarray`` (any mutually broadcastable shapes;
    scalars are fine for parameters shared by the whole batch).  The fields
    correspond one-to-one with
    :class:`~repro.technology.parameters.DeviceParameters`.
    """

    i0: np.ndarray
    n: np.ndarray
    vt0: np.ndarray
    body_effect: np.ndarray
    dibl: np.ndarray
    kt: np.ndarray
    channel_length: np.ndarray

    @classmethod
    def from_device(cls, device: DeviceParameters, xp=np, dtype=None) -> "DeviceArray":
        """Pack a single device type (fields become 0-d arrays)."""
        dtype = xp.float64 if dtype is None else dtype
        return cls(
            i0=xp.asarray(device.i0, dtype=dtype),
            n=xp.asarray(device.n, dtype=dtype),
            vt0=xp.asarray(device.vt0, dtype=dtype),
            body_effect=xp.asarray(device.body_effect, dtype=dtype),
            dibl=xp.asarray(device.dibl, dtype=dtype),
            kt=xp.asarray(device.kt, dtype=dtype),
            channel_length=xp.asarray(device.channel_length, dtype=dtype),
        )

    @classmethod
    def from_devices(
        cls, devices: Sequence[DeviceParameters], xp=np, dtype=None
    ) -> "DeviceArray":
        """Pack a sequence of device parameter sets into arrays."""
        dtype = xp.float64 if dtype is None else dtype
        return cls(
            i0=xp.asarray([d.i0 for d in devices], dtype=dtype),
            n=xp.asarray([d.n for d in devices], dtype=dtype),
            vt0=xp.asarray([d.vt0 for d in devices], dtype=dtype),
            body_effect=xp.asarray([d.body_effect for d in devices], dtype=dtype),
            dibl=xp.asarray([d.dibl for d in devices], dtype=dtype),
            kt=xp.asarray([d.kt for d in devices], dtype=dtype),
            channel_length=xp.asarray(
                [d.channel_length for d in devices], dtype=dtype
            ),
        )

    @classmethod
    def from_technologies(
        cls,
        technologies: Sequence[TechnologyParameters],
        device_type: str = "nmos",
        xp=np,
        dtype=None,
    ) -> "DeviceArray":
        """Pack one device type out of a sequence of technology nodes."""
        return cls.from_devices(
            [t.device(device_type) for t in technologies], xp=xp, dtype=dtype
        )

    def take(self, indices) -> "DeviceArray":
        """Index every field along axis 0 (e.g. expand per-scenario rows).

        Integer-array indexing is optional in the Array API standard;
        ``take`` is the portable spelling of the same (exact) gather.
        """
        xp = get_namespace(self.i0)
        indices = xp.asarray(indices)
        return DeviceArray(
            i0=xp.take(self.i0, indices, axis=0),
            n=xp.take(self.n, indices, axis=0),
            vt0=xp.take(self.vt0, indices, axis=0),
            body_effect=xp.take(self.body_effect, indices, axis=0),
            dibl=xp.take(self.dibl, indices, axis=0),
            kt=xp.take(self.kt, indices, axis=0),
            channel_length=xp.take(self.channel_length, indices, axis=0),
        )

    def reshape(self, shape) -> "DeviceArray":
        """Reshape every field (e.g. to ``(S, 1)`` for scenario x block)."""
        xp = get_namespace(self.i0)
        return DeviceArray(
            i0=xp.reshape(self.i0, shape),
            n=xp.reshape(self.n, shape),
            vt0=xp.reshape(self.vt0, shape),
            body_effect=xp.reshape(self.body_effect, shape),
            dibl=xp.reshape(self.dibl, shape),
            kt=xp.reshape(self.kt, shape),
            channel_length=xp.reshape(self.channel_length, shape),
        )

    def threshold_voltage(
        self, vsb, vds, vdd, temperature, reference_temperature
    ) -> np.ndarray:
        """Threshold-voltage magnitude [V], broadcast Eq. (2).

        Mirrors
        :meth:`~repro.technology.parameters.DeviceParameters.threshold_voltage`
        term-for-term.
        """
        xp = get_namespace(self.vt0, temperature)
        dtype = result_float_dtype(self.vt0, temperature)
        temperature = xp.asarray(temperature, dtype=dtype)
        return (
            self.vt0
            + self.body_effect * xp.asarray(vsb, dtype=dtype)
            - self.kt
            * (temperature - xp.asarray(reference_temperature, dtype=dtype))
            - self.dibl
            * (xp.asarray(vds, dtype=dtype) - xp.asarray(vdd, dtype=dtype))
        )


def subthreshold_current(
    devices: DeviceArray,
    width,
    vgs,
    vds,
    vsb,
    vdd,
    temperature,
    reference_temperature,
    length=None,
    include_drain_factor: bool = True,
) -> np.ndarray:
    """Subthreshold current [A], broadcast Eq. (1).

    Mirrors :func:`repro.core.leakage.subthreshold.subthreshold_current`
    operation-by-operation; all bias arguments broadcast against the
    :class:`DeviceArray` fields.
    """
    xp = get_namespace(devices.i0, width, temperature)
    dtype = result_float_dtype(devices.i0, width, temperature)
    width = xp.asarray(width, dtype=dtype)
    if xp.any(width <= 0.0):
        raise ValueError("width must be positive")
    if length is not None:
        channel_length = xp.asarray(length, dtype=dtype)
    else:
        channel_length = devices.channel_length
    if xp.any(channel_length <= 0.0):
        raise ValueError("length must be positive")
    temperature = xp.asarray(temperature, dtype=dtype)
    if xp.any(temperature <= 0.0):
        raise ValueError("temperature must be positive (Kelvin)")
    vds = xp.asarray(vds, dtype=dtype)

    vt = thermal_voltage(temperature)
    vth = devices.threshold_voltage(vsb, vds, vdd, temperature, reference_temperature)
    prefactor = (
        (width / channel_length)
        * devices.i0
        * (temperature / xp.asarray(reference_temperature, dtype=dtype)) ** 2
    )
    gate_factor = safe_exp((xp.asarray(vgs, dtype=dtype) - vth) / (devices.n * vt))
    if not include_drain_factor:
        return prefactor * gate_factor
    drain_factor = 1.0 - safe_exp(-vds / vt)
    return prefactor * gate_factor * drain_factor


def single_device_off_current(
    devices: DeviceArray,
    width,
    vdd,
    temperature,
    reference_temperature,
    body_voltage=0.0,
) -> np.ndarray:
    """OFF current [A] of lone devices with the full supply across them.

    Batched mirror of
    :func:`repro.core.leakage.subthreshold.single_device_off_current`
    (paper Eq. 13 for an effective width): ``VGS = 0``, ``VDS = Vdd`` (the
    DIBL term cancels) and the drain factor dropped.
    """
    xp = get_namespace(devices.i0, width, temperature, body_voltage)
    dtype = result_float_dtype(devices.i0, width, temperature)
    body_voltage = xp.asarray(body_voltage, dtype=dtype)
    return subthreshold_current(
        devices,
        width,
        0.0,
        vdd,
        -body_voltage,
        vdd,
        temperature,
        reference_temperature,
        include_drain_factor=False,
    )


def gate_leakage(
    devices: DeviceArray,
    effective_width,
    vdd,
    temperature,
    reference_temperature,
    body_voltage=0.0,
) -> np.ndarray:
    """Gate OFF current [A] from collapsed effective widths (paper Eq. 13).

    Batched mirror of
    :func:`repro.core.leakage.subthreshold.effective_width_off_current`.
    """
    xp = get_namespace(devices.i0, effective_width)
    dtype = result_float_dtype(devices.i0, effective_width)
    effective_width = xp.asarray(effective_width, dtype=dtype)
    if xp.any(effective_width <= 0.0):
        raise ValueError("effective_width must be positive")
    return single_device_off_current(
        devices, effective_width, vdd, temperature, reference_temperature, body_voltage
    )


# --------------------------------------------------------------------- #
# Stack collapsing (Eqs. 6–12)
# --------------------------------------------------------------------- #
def alpha(devices: DeviceArray) -> np.ndarray:
    """``alpha = n / (1 + gamma' + 2 sigma)`` (Eq. 9), broadcast."""
    return devices.n / (1.0 + devices.body_effect + 2.0 * devices.dibl)


def stacking_exponent(devices: DeviceArray) -> np.ndarray:
    """``1 + gamma' + sigma`` — the exponent coefficient of Eq. (6)."""
    return 1.0 + devices.body_effect + devices.dibl


def f_value(
    upper_width, lower_width, devices: DeviceArray, vdd, temperature
) -> np.ndarray:
    """Dimensionless ``f`` of Eq. (9) for pairs of series devices, broadcast."""
    xp = get_namespace(devices.dibl, upper_width, lower_width, temperature)
    dtype = result_float_dtype(devices.dibl, upper_width, lower_width, temperature)
    upper_width = xp.asarray(upper_width, dtype=dtype)
    lower_width = xp.asarray(lower_width, dtype=dtype)
    if xp.any(upper_width <= 0.0) or xp.any(lower_width <= 0.0):
        raise ValueError("widths must be positive")
    vt = thermal_voltage(temperature)
    dibl_term = devices.dibl * xp.asarray(vdd, dtype=dtype) / (devices.n * vt)
    return xp.log(upper_width / lower_width) + dibl_term


def node_voltage_strong(
    upper_width, lower_width, devices: DeviceArray, vdd, temperature
) -> np.ndarray:
    """Asymptotic node voltage for ``dV >> VT`` (Eq. 7): ``alpha VT f``."""
    f = f_value(upper_width, lower_width, devices, vdd, temperature)
    vt = thermal_voltage(temperature)
    return alpha(devices) * vt * f


def node_voltage_weak(
    upper_width, lower_width, devices: DeviceArray, vdd, temperature
) -> np.ndarray:
    """Asymptotic node voltage for ``dV < VT`` (Eq. 8): ``VT exp(f)``."""
    f = f_value(upper_width, lower_width, devices, vdd, temperature)
    vt = thermal_voltage(temperature)
    return vt * safe_exp(f)


def node_voltage(
    upper_width, lower_width, devices: DeviceArray, vdd, temperature
) -> np.ndarray:
    """Unified node-voltage estimate (Eq. 10 reconstruction), broadcast.

    ``dV = VT [alpha + (1 - alpha) / (1 + e^f)] ln(1 + e^f)``, mirroring
    :meth:`repro.core.leakage.stack_collapse.StackCollapser.node_voltage`.
    """
    f = f_value(upper_width, lower_width, devices, vdd, temperature)
    vt = thermal_voltage(temperature)
    a = alpha(devices)
    exp_f = safe_exp(f)
    blend = a + (1.0 - a) / (1.0 + exp_f)
    return vt * blend * get_namespace(f).log1p(exp_f)


@dataclass(frozen=True)
class StackArray:
    """A batch of equal-depth OFF chains in struct-of-arrays layout.

    Attributes
    ----------
    widths:
        Device widths [m], shape ``(stacks, depth)``; column 0 is the
        transistor closest to the source rail (the paper's T1) and the last
        column the device tied to the opposite rail — the scalar
        :meth:`~repro.core.leakage.stack_collapse.StackCollapser.collapse_chain_widths`
        ordering.
    """

    widths: np.ndarray

    def __post_init__(self) -> None:
        if self.widths.ndim != 2 or self.widths.shape[1] < 1:
            raise ValueError("widths must have shape (stacks, depth >= 1)")
        if not get_namespace(self.widths).all(self.widths > 0.0):
            raise ValueError("widths must be positive")

    @classmethod
    def from_chains(
        cls, chains: Sequence[Sequence[float]], xp=np, dtype=None
    ) -> "StackArray":
        """Pack equal-depth chains of widths (T1 first) into one array."""
        if not len(chains):
            raise ValueError("at least one chain is required")
        depths = {len(chain) for chain in chains}
        if len(depths) != 1:
            raise ValueError(
                "all chains in a StackArray must share a depth; "
                "group mixed-depth workloads into one StackArray per depth"
            )
        dtype = xp.float64 if dtype is None else dtype
        return cls(widths=xp.asarray(chains, dtype=dtype))

    def __len__(self) -> int:
        return int(self.widths.shape[0])

    @property
    def depth(self) -> int:
        """Number of series devices in every chain."""
        return int(self.widths.shape[1])


@dataclass(frozen=True)
class StackCollapseBatch:
    """Result of collapsing a batch of OFF chains (Eqs. 11–12).

    Attributes
    ----------
    effective_width:
        Widths [m] of the single equivalent transistors; shape ``(stacks,)``,
        or the broadcast batch shape when device/supply/temperature carry
        extra batch dimensions.
    node_voltages:
        Drain-source voltages [V] of devices T1 ... T(N-1), bottom upwards
        (the scalar result's ordering), shape ``(*batch, depth - 1)``.
    top_width:
        Width [m] of each chain's top device (stacking-factor denominator).
    """

    effective_width: np.ndarray
    node_voltages: np.ndarray
    top_width: np.ndarray

    @property
    def stacking_factor(self) -> np.ndarray:
        """``W_eff / W_top`` per chain — the stacking effect (Eq. 13)."""
        return self.effective_width / self.top_width

    @property
    def top_node_voltage(self) -> np.ndarray:
        """Voltage [V] of node ``V_{N-1}`` below the top device (Eq. 12)."""
        xp = get_namespace(self.node_voltages)
        return xp.sum(self.node_voltages, axis=-1)


def collapse_stacks(
    stacks: StackArray, devices: DeviceArray, vdd, temperature
) -> StackCollapseBatch:
    """Collapse every chain of a :class:`StackArray` at once (Eqs. 6–12).

    Walks the shared depth once (the paper's Fig. 2 recursion is inherently
    sequential *down one chain*) while evaluating all chains — and any
    broadcast device/supply/temperature batch — elementwise per step,
    mirroring the scalar
    :meth:`~repro.core.leakage.stack_collapse.StackCollapser.collapse_chain_widths`.
    """
    widths = stacks.widths
    xp = get_namespace(widths, devices.n, temperature)
    dtype = result_float_dtype(widths, devices.n, temperature)
    depth = widths.shape[1]
    vt = thermal_voltage(temperature)
    n_vt = devices.n * vt
    dibl_term = devices.dibl * xp.asarray(vdd, dtype=dtype) / n_vt
    a = alpha(devices)
    exponent = stacking_exponent(devices)

    # The batch shape is the broadcast of the chain count with every
    # per-chain parameter (device fields, supply, temperature), so e.g. a
    # (scenarios, 1) temperature batch against (stacks,) chains collapses
    # to (scenarios, stacks) in one walk.  Shapes are plain tuples, so the
    # numpy helper applies whatever namespace holds the data.
    batch_shape = np.broadcast_shapes(
        widths[:, -1].shape, n_vt.shape, dibl_term.shape, a.shape
    )
    equivalent_width = xp.asarray(
        xp.broadcast_to(widths[:, -1], batch_shape), copy=True
    )
    voltages_top_down = []
    for column in range(depth - 2, -1, -1):
        lower_width = widths[:, column]
        f = xp.log(equivalent_width / lower_width) + dibl_term
        exp_f = safe_exp(f)
        blend = a + (1.0 - a) / (1.0 + exp_f)
        dv = vt * blend * xp.log1p(exp_f)
        equivalent_width = equivalent_width * safe_exp(-exponent * dv / n_vt)
        voltages_top_down.append(xp.broadcast_to(dv, batch_shape))
    if voltages_top_down:
        # Scalar result orders node voltages bottom-up (T1's drop first).
        node_voltages = xp.stack(voltages_top_down[::-1], axis=-1)
    else:
        node_voltages = xp.empty(batch_shape + (0,), dtype=dtype)
    return StackCollapseBatch(
        effective_width=equivalent_width,
        node_voltages=node_voltages,
        top_width=widths[:, -1],
    )


def collapsed_stack_current(
    stacks: StackArray,
    devices: DeviceArray,
    vdd,
    temperature,
    reference_temperature,
    body_voltage=0.0,
) -> np.ndarray:
    """OFF current [A] of every chain: collapse (Eqs. 6–12) + Eq. (13).

    The batched composition of
    :meth:`~repro.core.leakage.stack_collapse.StackCollapser.collapse_chain_widths`
    and
    :func:`~repro.core.leakage.subthreshold.effective_width_off_current`.
    """
    collapse = collapse_stacks(stacks, devices, vdd, temperature)
    return gate_leakage(
        devices,
        collapse.effective_width,
        vdd,
        temperature,
        reference_temperature,
        body_voltage,
    )


def leakage_temperature_ratio(
    devices: DeviceArray,
    vdd,
    temperature,
    reference_temperature,
    parameter_reference_temperature=None,
    width: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Ratio ``Ioff(T) / Ioff(Tref)`` (Eq. 13), broadcast.

    Batched mirror of
    :func:`repro.core.cosim.coupling.leakage_temperature_ratio`:
    ``reference_temperature`` is the ratio's denominator temperature while
    ``parameter_reference_temperature`` (default: the same) is the
    temperature the device parameters are specified at.  The ratio is
    width-independent (widths cancel) but a width is still threaded through
    both evaluations so the arithmetic matches the scalar path.
    """
    if parameter_reference_temperature is None:
        parameter_reference_temperature = reference_temperature
    if width is None:
        xp = get_namespace(devices.i0, temperature)
        width = xp.asarray(1.0e-6, dtype=result_float_dtype(devices.i0, temperature))
    hot = single_device_off_current(
        devices, width, vdd, temperature, parameter_reference_temperature
    )
    cold = single_device_off_current(
        devices, width, vdd, reference_temperature, parameter_reference_temperature
    )
    return hot / cold
