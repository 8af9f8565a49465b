"""Technology and device parameter containers.

The analytical models of the paper are written in terms of a small set of
compact-model parameters:

* the subthreshold current pre-factor ``I0`` and ideality factor ``n``
  (Eq. 1),
* the zero-bias threshold voltage ``VT0``, the linearised body-effect
  coefficient ``gamma'``, the threshold temperature sensitivity ``KT`` and
  the DIBL coefficient ``sigma`` (Eq. 2),
* supply voltage, nominal channel length / width, and a reference
  temperature.

:class:`DeviceParameters` bundles the per-device-type quantities and
:class:`TechnologyParameters` bundles an NMOS/PMOS pair together with the
electrical and thermal environment (supply, oxide capacitance, die geometry,
silicon conductivity).  Every model in :mod:`repro.core`, every baseline in
:mod:`repro.baselines` and the numerical reference solvers consume these
containers, so a single parameter set drives analytical and numerical
results alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, Optional

from .constants import (
    REFERENCE_TEMPERATURE_K,
    celsius_to_kelvin,
    thermal_voltage,
)
from .materials import SILICON, Material


@dataclass(frozen=True)
class DeviceParameters:
    """Compact subthreshold-model parameters of a single device type.

    Attributes
    ----------
    device_type:
        ``"nmos"`` or ``"pmos"``.
    i0:
        Subthreshold current pre-factor ``I0`` [A] of Eq. (1); the current of
        a square (W = L) device biased at ``VGS = VTH`` at the reference
        temperature, up to the ``(1 - exp(-VDS/VT))`` factor.
    n:
        Subthreshold swing ideality factor (dimensionless, typically
        1.2 – 1.6 for sub-0.18 um bulk CMOS).
    vt0:
        Zero-bias threshold voltage magnitude [V] at the reference
        temperature.
    body_effect:
        Linearised body-effect coefficient ``gamma'`` (dimensionless) of
        Eq. (2): the threshold increases by ``gamma' * VSB``.
    dibl:
        DIBL coefficient ``sigma`` (dimensionless): the threshold decreases
        by ``sigma * (VDS - VDD)`` relative to the ``VDS = VDD`` condition.
    kt:
        Threshold-voltage temperature sensitivity ``KT`` [V/K]; the threshold
        decreases by ``KT * (T - Tref)``.
    channel_length:
        Drawn channel length ``L`` [m].
    nominal_width:
        Default channel width ``W`` [m] used when a device does not specify
        its own.
    mobility_temperature_exponent:
        Exponent of the ``(T/Tref)^{-m}`` mobility degradation used by the
        strong-inversion (ON current) part of the numerical device model.
    saturation_current_density:
        ON-current density [A/m] at nominal ``VGS = VDS = VDD`` and reference
        temperature, used by dynamic/short-circuit models and by the
        self-heating measurement bench.
    """

    device_type: str
    i0: float
    n: float
    vt0: float
    body_effect: float
    dibl: float
    kt: float
    channel_length: float
    nominal_width: float
    mobility_temperature_exponent: float = 1.5
    saturation_current_density: float = 600.0

    def __post_init__(self) -> None:
        if self.device_type not in ("nmos", "pmos"):
            raise ValueError("device_type must be 'nmos' or 'pmos'")
        if self.i0 <= 0.0:
            raise ValueError("i0 must be positive")
        if self.n < 1.0:
            raise ValueError("ideality factor n must be >= 1")
        if self.vt0 <= 0.0:
            raise ValueError("vt0 must be positive (magnitude)")
        if self.body_effect < 0.0:
            raise ValueError("body_effect must be non-negative")
        if self.dibl < 0.0:
            raise ValueError("dibl must be non-negative")
        if self.kt < 0.0:
            raise ValueError("kt must be non-negative")
        if self.channel_length <= 0.0:
            raise ValueError("channel_length must be positive")
        if self.nominal_width <= 0.0:
            raise ValueError("nominal_width must be positive")
        if self.saturation_current_density <= 0.0:
            raise ValueError("saturation_current_density must be positive")

    @property
    def is_nmos(self) -> bool:
        """True when the device is an n-channel MOSFET."""
        return self.device_type == "nmos"

    def threshold_voltage(
        self,
        vsb: float = 0.0,
        vds: float = 0.0,
        vdd: float = 0.0,
        temperature: float = REFERENCE_TEMPERATURE_K,
        reference_temperature: float = REFERENCE_TEMPERATURE_K,
    ) -> float:
        """Threshold voltage magnitude [V] following the paper's Eq. (2).

        ``VTH = VT0 + gamma' * VSB - KT * (T - Tref) - sigma * (VDS - VDD)``

        All voltages are magnitudes (source-referenced), which lets the same
        expression serve NMOS and PMOS devices.
        """
        return (
            self.vt0
            + self.body_effect * vsb
            - self.kt * (temperature - reference_temperature)
            - self.dibl * (vds - vdd)
        )

    def subthreshold_swing(self, temperature: float = REFERENCE_TEMPERATURE_K) -> float:
        """Subthreshold swing [V/decade]: ``S = n * VT * ln(10)``."""
        return self.n * thermal_voltage(temperature) * math.log(10.0)

    def with_width(self, width: float) -> "DeviceParameters":
        """Copy of the parameter set with a different nominal width."""
        return replace(self, nominal_width=width)

    def scaled(self, **overrides: float) -> "DeviceParameters":
        """Copy of the parameter set with arbitrary field overrides."""
        return replace(self, **overrides)


@dataclass(frozen=True)
class ThermalParameters:
    """Die-level thermal environment parameters.

    Attributes
    ----------
    silicon:
        Substrate material (defaults to bulk silicon).
    die_thickness:
        Substrate thickness [m] between the active surface and the
        isothermal bottom (heat-sink side) assumed by the paper's boundary
        conditions.
    ambient_temperature:
        Heat-sink / bottom-of-die temperature [K]; the paper assumes the die
        bottom is isothermal at this value.
    heat_sink_resistance:
        Additional lumped thermal resistance [K/W] between the die bottom and
        the true ambient (package + heat-sink).  The paper's model assumes an
        ideal (zero-resistance) sink; the co-simulation engine exposes it as
        an optional refinement.
    convection_coefficient:
        Effective top-surface convection coefficient [W/m^2/K].  The paper
        assumes an adiabatic top surface (zero), which is the default.
    """

    silicon: Material = SILICON
    die_thickness: float = 500.0e-6
    ambient_temperature: float = celsius_to_kelvin(25.0)
    heat_sink_resistance: float = 0.0
    convection_coefficient: float = 0.0

    def __post_init__(self) -> None:
        if self.die_thickness <= 0.0:
            raise ValueError("die_thickness must be positive")
        if self.ambient_temperature <= 0.0:
            raise ValueError("ambient_temperature must be positive (Kelvin)")
        if self.heat_sink_resistance < 0.0:
            raise ValueError("heat_sink_resistance must be non-negative")
        if self.convection_coefficient < 0.0:
            raise ValueError("convection_coefficient must be non-negative")

    @property
    def conductivity(self) -> float:
        """Substrate thermal conductivity [W/m/K] at the ambient temperature."""
        return self.silicon.conductivity_at(self.ambient_temperature)


@dataclass(frozen=True)
class TechnologyParameters:
    """Complete description of a CMOS technology node.

    The container couples the NMOS / PMOS compact-model parameters with the
    electrical environment (supply voltage, oxide capacitance, representative
    gate load) and the thermal environment.  It is the single object passed
    to every model in the library.
    """

    name: str
    nmos: DeviceParameters
    pmos: DeviceParameters
    vdd: float
    oxide_capacitance: float
    gate_capacitance_per_width: float
    reference_temperature: float = REFERENCE_TEMPERATURE_K
    thermal: ThermalParameters = field(default_factory=ThermalParameters)
    feature_size: Optional[float] = None
    metadata: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("technology name must not be empty")
        if self.vdd <= 0.0:
            raise ValueError("vdd must be positive")
        if self.oxide_capacitance <= 0.0:
            raise ValueError("oxide_capacitance must be positive")
        if self.gate_capacitance_per_width <= 0.0:
            raise ValueError("gate_capacitance_per_width must be positive")
        if self.reference_temperature <= 0.0:
            raise ValueError("reference_temperature must be positive (Kelvin)")
        if self.feature_size is not None and self.feature_size <= 0.0:
            raise ValueError("feature_size must be positive when given")

    def device(self, device_type: str) -> DeviceParameters:
        """Return the NMOS or PMOS parameter set by name."""
        if device_type == "nmos":
            return self.nmos
        if device_type == "pmos":
            return self.pmos
        raise ValueError("device_type must be 'nmos' or 'pmos'")

    @property
    def minimum_length(self) -> float:
        """Drawn channel length [m] of the nominal NMOS device."""
        return self.nmos.channel_length

    def thermal_voltage(self, temperature: Optional[float] = None) -> float:
        """Thermal voltage [V] at ``temperature`` (reference T by default)."""
        if temperature is None:
            temperature = self.reference_temperature
        return thermal_voltage(temperature)

    def gate_input_capacitance(self, width: float) -> float:
        """Gate input capacitance [F] of a device of the given width."""
        if width <= 0.0:
            raise ValueError("width must be positive")
        return self.gate_capacitance_per_width * width

    def with_supply(self, vdd: float) -> "TechnologyParameters":
        """Copy of the technology operated at a different supply voltage."""
        if vdd <= 0.0:
            raise ValueError("vdd must be positive")
        return replace(self, vdd=vdd)

    def scaled(self, **overrides) -> "TechnologyParameters":
        """Copy of the technology with arbitrary field overrides."""
        return replace(self, **overrides)
