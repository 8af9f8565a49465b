"""Temperature calibration of the self-heating measurement.

The paper measures the same device at three ambient temperatures (30, 35 and
40 degC).  Because the drain current — and therefore the sense-resistor
voltage — varies linearly with temperature for small excursions, those three
traces calibrate the voltage-to-temperature conversion: the initial (not yet
self-heated) ON voltage of each trace is paired with its known ambient
temperature and a straight line is fitted.  The fitted line then converts
the voltage droop observed during a pulse into a junction temperature rise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Tuple

import numpy as np


@dataclass(frozen=True)
class TemperatureCalibration:
    """Linear sense-voltage <-> temperature conversion.

    ``voltage = intercept + slope * temperature_celsius``

    Attributes
    ----------
    slope:
        Sensitivity [V / degC]; negative for MOSFETs whose ON current drops
        with temperature.
    intercept:
        Voltage [V] extrapolated to 0 degC.
    residual:
        RMS residual [V] of the calibration fit.
    points:
        The (temperature, voltage) pairs the calibration was fitted to.
    """

    slope: float
    intercept: float
    residual: float
    points: Tuple[Tuple[float, float], ...]

    def __post_init__(self) -> None:
        if self.slope == 0.0:
            raise ValueError("calibration slope must be non-zero")

    def voltage_to_temperature(self, voltage: float) -> float:
        """Temperature [degC] corresponding to a sense voltage [V]."""
        return (voltage - self.intercept) / self.slope

    def temperature_to_voltage(self, temperature_celsius: float) -> float:
        """Sense voltage [V] expected at a junction temperature [degC]."""
        return self.intercept + self.slope * temperature_celsius

    def voltage_drop_to_temperature_rise(self, voltage_change: float) -> float:
        """Temperature rise [K] producing a given voltage change [V]."""
        return voltage_change / self.slope

    @classmethod
    def from_points(
        cls, points: Mapping[float, float]
    ) -> "TemperatureCalibration":
        """Fit the calibration line to (ambient degC -> voltage) pairs."""
        if len(points) < 2:
            raise ValueError("at least two calibration points are required")
        temperatures = np.array(sorted(points), dtype=float)
        voltages = np.array([points[t] for t in sorted(points)], dtype=float)
        slope, intercept = np.polyfit(temperatures, voltages, 1)
        fitted = intercept + slope * temperatures
        residual = float(np.sqrt(np.mean((fitted - voltages) ** 2)))
        return cls(
            slope=float(slope),
            intercept=float(intercept),
            residual=residual,
            points=tuple(zip(temperatures.tolist(), voltages.tolist())),
        )
