"""Block power models: the temperature-dependent half of the co-simulation.

The electro-thermal fixed point needs, for every floorplan block, the power
dissipated as a function of its junction temperature.  Two concrete models
are provided:

* :class:`ScaledLeakageBlockModel` — block power described by a fixed
  dynamic component plus a static component specified at the reference
  temperature and rescaled analytically with temperature using the paper's
  Eq. (13) (the usual abstraction when no gate-level netlist is available);
* :class:`NetlistBlockModel` — block power obtained from a gate-level
  netlist through :class:`~repro.core.dynamic.total.TotalPowerModel`
  (the paper's gate-level granularity).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, Mapping, Optional

import numpy as np

from ...circuit.netlist import Netlist
from ...technology.parameters import TechnologyParameters
from ..leakage import kernel as leakage_kernel
from ..dynamic.switching import SwitchingActivity
from ..dynamic.total import PowerBreakdown, TotalPowerModel
from ..leakage.subthreshold import single_device_off_current


def require_finite(**options: Optional[float]) -> None:
    """Reject NaN and infinite option values with an error naming the option.

    Such values slip through plain ``<= 0.0`` range checks: a NaN
    tolerance never reports a settled row, and a NaN ceiling poisons every
    temperature.  ``None`` (an unset optional) passes.
    """
    for name, value in options.items():
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


class BlockPowerModel(ABC):
    """Power of one floorplan block as a function of junction temperature."""

    @property
    @abstractmethod
    def block_name(self) -> str:
        """Name of the floorplan block this model describes."""

    @abstractmethod
    def breakdown(self, temperature: float) -> PowerBreakdown:
        """Power breakdown [W] at the given junction temperature [K]."""

    def total_power(self, temperature: float) -> float:
        """Total power [W] at the given junction temperature [K]."""
        return self.breakdown(temperature).total


def leakage_temperature_ratio(
    technology: TechnologyParameters,
    temperature: float,
    reference_temperature: Optional[float] = None,
    device_type: str = "nmos",
) -> float:
    """Ratio ``Ioff(T) / Ioff(Tref)`` from the analytical model (Eq. 13).

    The ratio is geometry-independent (widths cancel), so one evaluation
    serves a whole block.
    """
    if reference_temperature is None:
        reference_temperature = technology.reference_temperature
    device = technology.device(device_type)
    width = device.nominal_width
    hot = single_device_off_current(
        device, width, technology.vdd, temperature, technology.reference_temperature
    )
    cold = single_device_off_current(
        device,
        width,
        technology.vdd,
        reference_temperature,
        technology.reference_temperature,
    )
    return hot / cold


def leakage_temperature_ratio_batch(
    technology: TechnologyParameters,
    temperatures,
    reference_temperature: Optional[float] = None,
    device_type: str = "nmos",
) -> np.ndarray:
    """Batched :func:`leakage_temperature_ratio` over a temperature array.

    One broadcast evaluation of the paper's Eq. (13) through the vectorized
    leakage kernel, mirroring the scalar arithmetic; this is what lets the
    scenario engine rescale every (scenario, block) static power at once.
    """
    if reference_temperature is None:
        reference_temperature = technology.reference_temperature
    device = technology.device(device_type)
    return leakage_kernel.leakage_temperature_ratio(
        leakage_kernel.DeviceArray.from_device(device),
        technology.vdd,
        np.asarray(temperatures, dtype=float),
        reference_temperature,
        parameter_reference_temperature=technology.reference_temperature,
        width=np.asarray(device.nominal_width),
    )


@dataclass
class ScaledLeakageBlockModel(BlockPowerModel):
    """Block power with analytically temperature-scaled static component.

    Attributes
    ----------
    name:
        Floorplan block name.
    technology:
        Technology parameters providing the leakage temperature law.
    dynamic_power:
        Temperature-independent dynamic power [W].
    static_power_at_reference:
        Static power [W] at the technology's reference temperature.
    device_type:
        Polarity used for the temperature law (leakage is dominated by the
        NMOS network in most static CMOS blocks).
    """

    name: str
    technology: TechnologyParameters
    dynamic_power: float
    static_power_at_reference: float
    device_type: str = "nmos"

    def __post_init__(self) -> None:
        dynamic, static = self.dynamic_power, self.static_power_at_reference
        if not 0.0 <= dynamic < math.inf:
            require_finite(dynamic_power=dynamic)
            raise ValueError("dynamic_power must be non-negative")
        if not 0.0 <= static < math.inf:
            require_finite(static_power_at_reference=static)
            raise ValueError("static_power_at_reference must be non-negative")

    @property
    def block_name(self) -> str:
        return self.name

    def breakdown(self, temperature: float) -> PowerBreakdown:
        ratio = leakage_temperature_ratio(
            self.technology, temperature, device_type=self.device_type
        )
        return PowerBreakdown(
            switching=self.dynamic_power,
            short_circuit=0.0,
            static=self.static_power_at_reference * ratio,
        )



class NetlistBlockModel(BlockPowerModel):
    """Block power evaluated from a gate-level netlist.

    Parameters
    ----------
    name:
        Floorplan block name; only instances assigned to this block (or all
        instances when ``use_whole_netlist`` is True) contribute.
    netlist:
        The combinational netlist.
    primary_inputs:
        Logic values of the netlist's primary inputs (leakage is
        vector-dependent).
    technology:
        Technology parameters.
    activity:
        Switching activity description applied to every instance.
    use_whole_netlist:
        Treat the whole netlist as belonging to this block regardless of the
        instances' ``block`` attribute.
    """

    def __init__(
        self,
        name: str,
        netlist: Netlist,
        primary_inputs: Mapping[str, int],
        technology: TechnologyParameters,
        activity: Optional[SwitchingActivity] = None,
        use_whole_netlist: bool = False,
    ) -> None:
        self._name = name
        self.netlist = netlist
        self.primary_inputs = dict(primary_inputs)
        self.technology = technology
        self.activity = activity or SwitchingActivity()
        self.use_whole_netlist = use_whole_netlist
        self._power_model = TotalPowerModel(technology, default_activity=self.activity)

    @property
    def block_name(self) -> str:
        return self._name

    def breakdown(self, temperature: float) -> PowerBreakdown:
        per_instance = self._power_model.instance_breakdown(
            self.netlist, self.primary_inputs, temperature
        )
        total = PowerBreakdown(switching=0.0, short_circuit=0.0, static=0.0)
        for instance in self.netlist.instances():
            if not self.use_whole_netlist and instance.block != self._name:
                continue
            total = total + per_instance[instance.name]
        return total


def block_models_from_powers(
    technology: TechnologyParameters,
    dynamic_powers: Mapping[str, float],
    static_powers_at_reference: Mapping[str, float],
) -> Dict[str, BlockPowerModel]:
    """Build :class:`ScaledLeakageBlockModel` objects from per-block powers."""
    names = set(dynamic_powers) | set(static_powers_at_reference)
    if not names:
        raise ValueError("at least one block power must be given")
    models: Dict[str, BlockPowerModel] = {}
    for name in sorted(names):
        models[name] = ScaledLeakageBlockModel(
            name=name,
            technology=technology,
            dynamic_power=float(dynamic_powers.get(name, 0.0)),
            static_power_at_reference=float(static_powers_at_reference.get(name, 0.0)),
        )
    return models
