"""Floorplan blocks.

A block is a named rectangular region of the die that groups logic (and
therefore power).  Blocks are the granularity at which the electro-thermal
engine couples power and temperature, following the paper's "at a higher
level of abstraction an entire circuit block can be considered as a heat
source".
"""

from __future__ import annotations

import math
from collections import abc
from dataclasses import dataclass, field, fields, replace
from typing import Dict, Mapping, Sequence, Union

from ..core.thermal.sources import HeatSource


@dataclass(frozen=True)
class Block:
    """A rectangular floorplan block.

    Attributes
    ----------
    name:
        Unique block name.
    x, y:
        Centre coordinates [m] in die coordinates.
    width, length:
        Extents along x and y [m].
    gate_count:
        Number of gate instances assigned to the block (used for default
        power-density estimates when no netlist is attached).
    total_device_width:
        Total transistor width [m] inside the block (drives default leakage
        estimates at block granularity).
    metadata:
        Free-form annotations (e.g. activity, clock domain).
    """

    name: str
    x: float
    y: float
    width: float
    length: float
    gate_count: int = 0
    total_device_width: float = 0.0
    metadata: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("block name must not be empty")
        for key in ("x", "y", "width", "length", "total_device_width"):
            value = getattr(self, key)
            if not math.isfinite(value):
                raise ValueError(f"block field {key!r} must be finite, got {value!r}")
        for key in ("width", "length"):
            if getattr(self, key) <= 0.0:
                raise ValueError(f"block field {key!r} must be positive")
        if self.gate_count < 0:
            raise ValueError("gate_count must be non-negative")
        if self.total_device_width < 0.0:
            raise ValueError("total_device_width must be non-negative")

    @property
    def area(self) -> float:
        """Block footprint [m^2]."""
        return self.width * self.length

    @property
    def x_min(self) -> float:
        return self.x - 0.5 * self.width

    @property
    def x_max(self) -> float:
        return self.x + 0.5 * self.width

    @property
    def y_min(self) -> float:
        return self.y - 0.5 * self.length

    @property
    def y_max(self) -> float:
        return self.y + 0.5 * self.length

    def contains(self, x: float, y: float) -> bool:
        """True when the point lies inside the block footprint."""
        return self.x_min <= x <= self.x_max and self.y_min <= y <= self.y_max

    def overlaps(self, other: "Block") -> bool:
        """True when the two block footprints overlap with non-zero area."""
        return (
            self.x_min < other.x_max
            and other.x_min < self.x_max
            and self.y_min < other.y_max
            and other.y_min < self.y_max
        )

    def to_heat_source(self, power: float) -> HeatSource:
        """Heat source with this block's footprint dissipating ``power``."""
        return HeatSource(
            x=self.x,
            y=self.y,
            width=self.width,
            length=self.length,
            power=power,
            name=self.name,
        )

    def moved_to(self, x: float, y: float) -> "Block":
        """Copy of the block centred at a new position."""
        return replace(self, x=x, y=y)

    def resized(self, width: float, length: float) -> "Block":
        """Copy of the block with new dimensions."""
        return replace(self, width=width, length=length)

    @classmethod
    def from_mapping(cls, data: Mapping[str, object]) -> "Block":
        """Build a block from a plain mapping, validating field names.

        Declarative callers (the :mod:`repro.api` specs, JSON study files)
        describe blocks as dictionaries; this constructor reports missing,
        unknown or non-numeric entries as :class:`ValueError` naming the
        offending field instead of a bare ``KeyError``/``TypeError``.
        """
        known = {spec.name for spec in fields(cls)}
        required = ("name", "x", "y", "width", "length")
        missing = [name for name in required if name not in data]
        if missing:
            raise ValueError(
                f"block spec is missing required field(s): {', '.join(missing)}"
            )
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"block spec has unknown field(s): {', '.join(unknown)}; "
                f"known fields: {', '.join(sorted(known))}"
            )
        values: Dict[str, object] = {"name": data["name"]}
        if not isinstance(values["name"], str):
            raise ValueError("block spec field 'name' must be a string")
        for key in ("x", "y", "width", "length", "total_device_width"):
            if key in data:
                try:
                    values[key] = float(data[key])  # type: ignore[arg-type]
                except (TypeError, ValueError):
                    raise ValueError(
                        f"block spec field {key!r} must be a number, "
                        f"got {data[key]!r}"
                    ) from None
        if "gate_count" in data:
            try:
                values["gate_count"] = int(data["gate_count"])  # type: ignore[arg-type]
            except (TypeError, ValueError):
                raise ValueError(
                    f"block spec field 'gate_count' must be an integer, "
                    f"got {data['gate_count']!r}"
                ) from None
        if "metadata" in data:
            metadata = data["metadata"]
            if not isinstance(metadata, abc.Mapping):
                raise ValueError("block spec field 'metadata' must be a mapping")
            values["metadata"] = dict(metadata)
        return cls(**values)  # type: ignore[arg-type]

    def as_dict(self) -> Dict[str, object]:
        """Plain-data description, the inverse of :meth:`from_mapping`.

        Default-valued optional fields are omitted so serialized floorplans
        stay compact.
        """
        data: Dict[str, object] = {
            "name": self.name,
            "x": self.x,
            "y": self.y,
            "width": self.width,
            "length": self.length,
        }
        if self.gate_count:
            data["gate_count"] = self.gate_count
        if self.total_device_width:
            data["total_device_width"] = self.total_device_width
        if self.metadata:
            data["metadata"] = dict(self.metadata)
        return data


#: Anything :func:`as_block` can coerce into a :class:`Block`.
BlockLike = Union[Block, Mapping[str, object], Sequence[object]]


def as_block(value: BlockLike) -> Block:
    """Coerce a block description into a :class:`Block`.

    Accepts a :class:`Block` (returned unchanged), a mapping of field names
    (see :meth:`Block.from_mapping`) or a ``(name, x, y, width, length)``
    tuple.  Malformed descriptions raise :class:`ValueError` naming the
    offending field.
    """
    if isinstance(value, Block):
        return value
    if isinstance(value, abc.Mapping):
        return Block.from_mapping(value)
    if isinstance(value, abc.Sequence) and not isinstance(value, (str, bytes)):
        items = tuple(value)
        if len(items) != 5:
            raise ValueError(
                "block tuple must be (name, x, y, width, length), "
                f"got {len(items)} item(s)"
            )
        return Block.from_mapping(
            dict(zip(("name", "x", "y", "width", "length"), items))
        )
    raise TypeError(
        f"cannot interpret {type(value).__name__!r} as a block; "
        "expected Block, mapping or (name, x, y, width, length) tuple"
    )
