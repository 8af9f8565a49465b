"""Standby (sleep) input-vector selection for minimum leakage.

The paper motivates its static-power model as the basis of a "performance
estimation and optimization" tool.  The classic optimisation enabled by a
fast per-vector leakage model is *sleep-vector selection*: choosing the
primary-input assignment that minimises the circuit's standby leakage, so it
can be forced onto the inputs when the block is idle.

Two search strategies are provided, both driven entirely by the analytical
model of :mod:`repro.core.leakage` (which is what makes them cheap):

* :func:`exhaustive_sleep_vector` — exact minimum by enumerating all
  ``2^n`` primary-input vectors (practical up to ~20 inputs);
* :func:`greedy_sleep_vector` — bit-flipping descent from a seed vector,
  linear in the input count per pass, with optional random restarts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple, Union

from ..circuit.netlist import Netlist
from ..circuit.vectors import enumerate_vectors
from ..core.leakage.circuit_leakage import CircuitLeakageModel
from ..technology.parameters import TechnologyParameters


@dataclass(frozen=True)
class SleepVectorResult:
    """Outcome of a sleep-vector search.

    Attributes
    ----------
    vector:
        The selected primary-input assignment.
    leakage_power:
        Analytical static power [W] at that vector.
    evaluations:
        Number of full-netlist leakage evaluations performed.
    baseline_power:
        Static power [W] of the reference (worst or seed) vector, for
        reporting the achieved reduction.
    """

    vector: Dict[str, int]
    leakage_power: float
    evaluations: int
    baseline_power: float

    @property
    def reduction_factor(self) -> float:
        """Baseline leakage divided by the selected vector's leakage."""
        if self.leakage_power <= 0.0:
            return float("inf")
        return self.baseline_power / self.leakage_power


class SleepVectorOptimizer:
    """Search for the minimum-leakage standby vector of a netlist.

    Parameters
    ----------
    technology:
        Technology parameters.
    netlist:
        The combinational netlist to optimise.
    temperature:
        Junction temperature [K] at which leakage is evaluated (standby
        leakage is usually evaluated hot); defaults to the reference.
    """

    def __init__(
        self,
        technology: TechnologyParameters,
        netlist: Netlist,
        temperature: Optional[float] = None,
    ) -> None:
        self.technology = technology
        self.netlist = netlist
        self.temperature = temperature
        self._model = CircuitLeakageModel(technology)
        self._evaluations = 0

    # ------------------------------------------------------------------ #
    # Evaluation
    # ------------------------------------------------------------------ #
    def leakage(self, vector: Mapping[str, int]) -> float:
        """Analytical static power [W] of the netlist for one vector."""
        self._evaluations += 1
        return self._model.total_power(self.netlist, vector, self.temperature)

    @property
    def evaluations(self) -> int:
        """Total number of netlist leakage evaluations performed so far."""
        return self._evaluations

    # ------------------------------------------------------------------ #
    # Searches
    # ------------------------------------------------------------------ #
    def exhaustive(self) -> SleepVectorResult:
        """Exact minimum-leakage vector by full enumeration."""
        inputs = self.netlist.primary_inputs
        if len(inputs) > 20:
            raise ValueError(
                f"exhaustive search over {len(inputs)} inputs is impractical; "
                f"use the greedy search instead"
            )
        best_vector: Optional[Dict[str, int]] = None
        best_power = float("inf")
        worst_power = 0.0
        start = self._evaluations
        for vector in enumerate_vectors(inputs):
            power = self.leakage(vector)
            worst_power = max(worst_power, power)
            if power < best_power:
                best_power = power
                best_vector = dict(vector)
        assert best_vector is not None
        return SleepVectorResult(
            vector=best_vector,
            leakage_power=best_power,
            evaluations=self._evaluations - start,
            baseline_power=worst_power,
        )

    def _descend(
        self,
        start_vector: Dict[str, int],
        max_passes: int,
        start_power: Optional[float] = None,
    ) -> Tuple[Dict[str, int], float]:
        """One bit-flipping descent; returns the local optimum and power."""
        inputs = self.netlist.primary_inputs
        current = dict(start_vector)
        current_power = self.leakage(current) if start_power is None else start_power
        for _ in range(max_passes):
            improved = False
            for name in inputs:
                trial = dict(current)
                trial[name] = 1 - trial[name]
                trial_power = self.leakage(trial)
                if trial_power < current_power:
                    current = trial
                    current_power = trial_power
                    improved = True
            if not improved:
                break
        return current, current_power

    def greedy(
        self,
        seed: Optional[Mapping[str, int]] = None,
        max_passes: int = 10,
        restarts: int = 0,
        rng: Optional[Union[int, random.Random]] = None,
    ) -> SleepVectorResult:
        """Bit-flipping descent from a seed vector, with random restarts.

        Each pass tries flipping every primary input once, keeping any flip
        that lowers the leakage; a descent stops when a full pass makes no
        improvement or after ``max_passes`` passes.  With ``restarts > 0``
        further descents start from random vectors drawn from ``rng`` (an
        integer seed or a :class:`random.Random`; defaults to seed 0) in a
        fixed order, so the same seed replays the same search and the same
        result exactly.  The best vector over all descents wins; ties keep
        the earliest descent's result.
        """
        if max_passes < 1:
            raise ValueError("max_passes must be at least 1")
        if restarts < 0:
            raise ValueError("restarts must be non-negative")
        inputs = self.netlist.primary_inputs
        if seed is None:
            first = {name: 0 for name in inputs}
        else:
            first = {name: int(seed[name]) for name in inputs}
            if any(value not in (0, 1) for value in first.values()):
                raise ValueError("seed values must be 0 or 1")
        if isinstance(rng, random.Random):
            generator = rng
        else:
            generator = random.Random(0 if rng is None else int(rng))
        start = self._evaluations
        baseline_power = self.leakage(first)
        best_vector, best_power = self._descend(
            first, max_passes, start_power=baseline_power
        )
        for _ in range(restarts):
            restart_vector = {name: generator.randrange(2) for name in inputs}
            vector, power = self._descend(restart_vector, max_passes)
            if power < best_power:
                best_vector, best_power = vector, power
        return SleepVectorResult(
            vector=best_vector,
            leakage_power=best_power,
            evaluations=self._evaluations - start,
            baseline_power=baseline_power,
        )


def exhaustive_sleep_vector(
    technology: TechnologyParameters,
    netlist: Netlist,
    temperature: Optional[float] = None,
) -> SleepVectorResult:
    """Exact minimum-leakage standby vector of a netlist."""
    return SleepVectorOptimizer(technology, netlist, temperature).exhaustive()


def greedy_sleep_vector(
    technology: TechnologyParameters,
    netlist: Netlist,
    seed: Optional[Mapping[str, int]] = None,
    temperature: Optional[float] = None,
    max_passes: int = 10,
    restarts: int = 0,
    rng: Optional[Union[int, random.Random]] = None,
) -> SleepVectorResult:
    """Greedy bit-flipping standby-vector search with seeded restarts."""
    return SleepVectorOptimizer(technology, netlist, temperature).greedy(
        seed=seed, max_passes=max_passes, restarts=restarts, rng=rng
    )
