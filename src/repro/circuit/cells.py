"""Static CMOS standard cells built from series/parallel networks.

A :class:`LogicGate` couples a pull-up (PMOS) and a pull-down (NMOS) network
that share the gate's output node.  The cell constructors below build the
classic static CMOS library (inverter, NAND, NOR, AOI/OAI complex gates)
with widths derived from a technology's nominal device sizes and standard
series up-sizing rules, so that the leakage experiments operate on realistic
cell geometries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from ..technology.parameters import TechnologyParameters
from .devices import MOSFET, nmos, pmos
from .topology import (
    DeviceLeaf,
    Network,
    ParallelNetwork,
    SeriesNetwork,
    parallel_of_devices,
    series_of_devices,
)


@dataclass(frozen=True)
class LogicGate:
    """A static CMOS gate: complementary pull-up and pull-down networks.

    Attributes
    ----------
    name:
        Cell name, e.g. ``"NAND2"``.
    inputs:
        Ordered tuple of input names.
    pull_up:
        PMOS network between the output and VDD.
    pull_down:
        NMOS network between the output and ground.
    output_name:
        Name of the output net.
    """

    name: str
    inputs: Tuple[str, ...]
    pull_up: Network
    pull_down: Network
    output_name: str = "Z"
    metadata: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.inputs:
            raise ValueError("a gate needs at least one input")
        if self.pull_up.device_type() != "pmos":
            raise ValueError("pull-up network must be built from PMOS devices")
        if self.pull_down.device_type() != "nmos":
            raise ValueError("pull-down network must be built from NMOS devices")
        missing_up = set(self.pull_up.input_names()) - set(self.inputs)
        missing_down = set(self.pull_down.input_names()) - set(self.inputs)
        if missing_up or missing_down:
            raise ValueError(
                f"networks reference inputs not declared by the gate: "
                f"{sorted(missing_up | missing_down)}"
            )

    # ------------------------------------------------------------------ #
    # Logic behaviour
    # ------------------------------------------------------------------ #
    def _check_vector(self, inputs: Dict[str, int]) -> Dict[str, int]:
        vector = {}
        for name in self.inputs:
            if name not in inputs:
                raise KeyError(f"input vector is missing {name!r}")
            value = int(inputs[name])
            if value not in (0, 1):
                raise ValueError("logic values must be 0 or 1")
            vector[name] = value
        return vector

    def evaluate(self, inputs: Dict[str, int]) -> int:
        """Logic value of the output for a full input vector.

        The gate must be complementary: exactly one of the two networks
        conducts for every input vector.  Non-complementary states raise.
        """
        vector = self._check_vector(inputs)
        up = self.pull_up.conducts(vector)
        down = self.pull_down.conducts(vector)
        if up and down:
            raise ValueError(
                f"{self.name}: both networks conduct for {vector} (crowbar state)"
            )
        if not up and not down:
            raise ValueError(
                f"{self.name}: neither network conducts for {vector} "
                f"(floating output)"
            )
        return 1 if up else 0

    # ------------------------------------------------------------------ #
    # Structure
    # ------------------------------------------------------------------ #
    def devices(self) -> Tuple[MOSFET, ...]:
        """Every transistor of the cell (pull-up first)."""
        return self.pull_up.devices() + self.pull_down.devices()

    def device_count(self) -> int:
        """Total transistor count of the cell."""
        return len(self.devices())

    def total_width(self) -> float:
        """Sum of all channel widths [m] (a proxy for cell area / leakage)."""
        return sum(d.width for d in self.devices())

    def leakage_network(self, inputs: Dict[str, int]) -> Network:
        """The non-conducting network that carries the gate's leakage.

        For a complementary gate exactly one network conducts; subthreshold
        current from VDD to ground flows through the *other* network, which
        is what the paper's collapsing technique analyses.
        """
        vector = self._check_vector(inputs)
        if self.pull_up.conducts(vector):
            return self.pull_down
        return self.pull_up

    def output_capacitance(
        self,
        technology: TechnologyParameters,
        external_load: float = 0.0,
        drain_capacitance_factor: float = 0.6,
    ) -> float:
        """Estimate of the capacitance [F] loading the gate output.

        The self-load is the drain diffusion of every device connected to the
        output, approximated as a fraction of the gate capacitance of the
        same width; ``external_load`` adds wire plus fanout capacitance.
        """
        if external_load < 0.0:
            raise ValueError("external_load must be non-negative")
        self_load = sum(
            drain_capacitance_factor
            * technology.gate_input_capacitance(d.width)
            for d in self.devices()
        )
        return self_load + external_load

    def input_capacitance(
        self, technology: TechnologyParameters, input_name: str
    ) -> float:
        """Gate capacitance [F] presented by one of the cell's inputs."""
        if input_name not in self.inputs:
            raise KeyError(f"{self.name} has no input {input_name!r}")
        width = sum(
            d.width for d in self.devices() if d.gate_input == input_name
        )
        if width == 0.0:
            raise ValueError(f"input {input_name!r} drives no device")
        return technology.gate_input_capacitance(width)


# ---------------------------------------------------------------------- #
# Sizing helpers
# ---------------------------------------------------------------------- #
def _nominal_widths(
    technology: TechnologyParameters,
    size: float,
) -> Tuple[float, float]:
    """Nominal (NMOS, PMOS) widths scaled by a drive-strength multiplier."""
    if size <= 0.0:
        raise ValueError("size must be positive")
    return (
        technology.nmos.nominal_width * size,
        technology.pmos.nominal_width * size,
    )


# ---------------------------------------------------------------------- #
# Standard-cell constructors
# ---------------------------------------------------------------------- #
def inverter(
    technology: TechnologyParameters,
    size: float = 1.0,
    input_name: str = "A",
    name: str = "INV",
) -> LogicGate:
    """Static CMOS inverter."""
    wn, wp = _nominal_widths(technology, size)
    return LogicGate(
        name=name,
        inputs=(input_name,),
        pull_up=DeviceLeaf(pmos("MP1", wp, gate_input=input_name)),
        pull_down=DeviceLeaf(nmos("MN1", wn, gate_input=input_name)),
    )


def nand_gate(
    technology: TechnologyParameters,
    fan_in: int = 2,
    size: float = 1.0,
    input_names: Optional[Sequence[str]] = None,
    name: Optional[str] = None,
) -> LogicGate:
    """N-input static CMOS NAND: series NMOS pull-down, parallel PMOS pull-up.

    Series NMOS devices are up-sized by the fan-in so the worst-case pull-down
    resistance matches the reference inverter, the standard sizing rule.
    """
    if fan_in < 1:
        raise ValueError("fan_in must be at least 1")
    names = list(input_names) if input_names else [
        chr(ord("A") + i) for i in range(fan_in)
    ]
    if len(names) != fan_in:
        raise ValueError("input_names length must equal fan_in")
    wn, wp = _nominal_widths(technology, size)
    # Pull-down: series chain, input closest to ground first (T1).
    nmos_devices = [
        nmos(f"MN{i + 1}", wn * fan_in, gate_input=names[i]) for i in range(fan_in)
    ]
    pmos_devices = [
        pmos(f"MP{i + 1}", wp, gate_input=names[i]) for i in range(fan_in)
    ]
    return LogicGate(
        name=name or f"NAND{fan_in}",
        inputs=tuple(names),
        pull_up=parallel_of_devices(pmos_devices),
        pull_down=series_of_devices(nmos_devices),
    )


def nor_gate(
    technology: TechnologyParameters,
    fan_in: int = 2,
    size: float = 1.0,
    input_names: Optional[Sequence[str]] = None,
    name: Optional[str] = None,
) -> LogicGate:
    """N-input static CMOS NOR: parallel NMOS pull-down, series PMOS pull-up."""
    if fan_in < 1:
        raise ValueError("fan_in must be at least 1")
    names = list(input_names) if input_names else [
        chr(ord("A") + i) for i in range(fan_in)
    ]
    if len(names) != fan_in:
        raise ValueError("input_names length must equal fan_in")
    wn, wp = _nominal_widths(technology, size)
    nmos_devices = [
        nmos(f"MN{i + 1}", wn, gate_input=names[i]) for i in range(fan_in)
    ]
    pmos_devices = [
        pmos(f"MP{i + 1}", wp * fan_in, gate_input=names[i]) for i in range(fan_in)
    ]
    return LogicGate(
        name=name or f"NOR{fan_in}",
        inputs=tuple(names),
        pull_up=series_of_devices(pmos_devices),
        pull_down=parallel_of_devices(nmos_devices),
    )


def aoi21(
    technology: TechnologyParameters,
    size: float = 1.0,
    input_names: Sequence[str] = ("A", "B", "C"),
    name: str = "AOI21",
) -> LogicGate:
    """AND-OR-INVERT gate: ``Z = not(A*B + C)``."""
    a, b, c = input_names
    wn, wp = _nominal_widths(technology, size)
    # Pull-down: (A series B) parallel C; series devices doubled in width.
    pull_down = ParallelNetwork(
        [
            series_of_devices(
                [nmos("MN1", 2 * wn, gate_input=a), nmos("MN2", 2 * wn, gate_input=b)]
            ),
            DeviceLeaf(nmos("MN3", wn, gate_input=c)),
        ]
    )
    # Pull-up: (A parallel B) series C; series devices doubled in width.
    pull_up = SeriesNetwork(
        [
            DeviceLeaf(pmos("MP3", 2 * wp, gate_input=c)),
            parallel_of_devices(
                [pmos("MP1", 2 * wp, gate_input=a), pmos("MP2", 2 * wp, gate_input=b)]
            ),
        ]
    )
    return LogicGate(
        name=name, inputs=tuple(input_names), pull_up=pull_up, pull_down=pull_down,
    )


def aoi22(
    technology: TechnologyParameters,
    size: float = 1.0,
    input_names: Sequence[str] = ("A", "B", "C", "D"),
    name: str = "AOI22",
) -> LogicGate:
    """AND-OR-INVERT gate: ``Z = not(A*B + C*D)``."""
    a, b, c, d = input_names
    wn, wp = _nominal_widths(technology, size)
    pull_down = ParallelNetwork(
        [
            series_of_devices(
                [nmos("MN1", 2 * wn, gate_input=a), nmos("MN2", 2 * wn, gate_input=b)]
            ),
            series_of_devices(
                [nmos("MN3", 2 * wn, gate_input=c), nmos("MN4", 2 * wn, gate_input=d)]
            ),
        ]
    )
    pull_up = SeriesNetwork(
        [
            parallel_of_devices(
                [pmos("MP1", 2 * wp, gate_input=a), pmos("MP2", 2 * wp, gate_input=b)]
            ),
            parallel_of_devices(
                [pmos("MP3", 2 * wp, gate_input=c), pmos("MP4", 2 * wp, gate_input=d)]
            ),
        ]
    )
    return LogicGate(
        name=name, inputs=tuple(input_names), pull_up=pull_up, pull_down=pull_down,
    )


def oai21(
    technology: TechnologyParameters,
    size: float = 1.0,
    input_names: Sequence[str] = ("A", "B", "C"),
    name: str = "OAI21",
) -> LogicGate:
    """OR-AND-INVERT gate: ``Z = not((A + B) * C)``."""
    a, b, c = input_names
    wn, wp = _nominal_widths(technology, size)
    pull_down = SeriesNetwork(
        [
            DeviceLeaf(nmos("MN3", 2 * wn, gate_input=c)),
            parallel_of_devices(
                [nmos("MN1", 2 * wn, gate_input=a), nmos("MN2", 2 * wn, gate_input=b)]
            ),
        ]
    )
    pull_up = ParallelNetwork(
        [
            series_of_devices(
                [pmos("MP1", 2 * wp, gate_input=a), pmos("MP2", 2 * wp, gate_input=b)]
            ),
            DeviceLeaf(pmos("MP3", wp, gate_input=c)),
        ]
    )
    return LogicGate(
        name=name, inputs=tuple(input_names), pull_up=pull_up, pull_down=pull_down,
    )


#: Constructors of the default standard-cell library keyed by cell name.
STANDARD_CELLS = {
    "INV": inverter,
    "NAND2": lambda tech, size=1.0: nand_gate(tech, 2, size),
    "NAND3": lambda tech, size=1.0: nand_gate(tech, 3, size),
    "NAND4": lambda tech, size=1.0: nand_gate(tech, 4, size),
    "NOR2": lambda tech, size=1.0: nor_gate(tech, 2, size),
    "NOR3": lambda tech, size=1.0: nor_gate(tech, 3, size),
    "NOR4": lambda tech, size=1.0: nor_gate(tech, 4, size),
    "AOI21": aoi21,
    "AOI22": aoi22,
    "OAI21": oai21,
}


def standard_cell(
    name: str, technology: TechnologyParameters, size: float = 1.0
) -> LogicGate:
    """Instantiate a standard cell from the built-in library by name."""
    key = name.strip().upper()
    if key not in STANDARD_CELLS:
        known = ", ".join(sorted(STANDARD_CELLS))
        raise KeyError(f"unknown cell {name!r}; known cells: {known}")
    return STANDARD_CELLS[key](technology, size)


def standard_cell_names() -> Tuple[str, ...]:
    """Names of all cells in the built-in library."""
    return tuple(sorted(STANDARD_CELLS))
