"""Concurrent electro-thermal co-simulation (the paper's headline capability)."""

from .coupling import (
    BlockPowerModel,
    NetlistBlockModel,
    ScaledLeakageBlockModel,
    block_models_from_powers,
    leakage_temperature_ratio,
    leakage_temperature_ratio_batch,
)
from .engine import ElectroThermalEngine
from .resistance_cache import reduced_unit_matrix, unit_resistance_matrix
from .result import CosimIteration, CosimResult
from .scenarios import (
    Scenario,
    ScenarioBatchResult,
    ScenarioEngine,
    ScenarioPhysics,
    scenario_grid,
    scenario_grid_stream,
    solve_fixed_point,
)
from .streaming import (
    DEFAULT_CHUNK_SIZE,
    DEFAULT_TRANSIENT_CHUNK_SIZE,
    ChunkPlan,
    OnlineSteadyReduction,
    OnlineTransientReduction,
    StreamProgress,
    StreamResult,
    format_progress,
    stream_steady,
    stream_transient,
)
from .transient import (
    TransientCosimResult,
    TransientElectroThermalSimulator,
    square_wave_activity_profile,
    step_activity_profile,
)
from .transient_scenarios import (
    ActivityGrid,
    ConstantActivity,
    PWMActivity,
    StepActivity,
    TraceActivity,
    TransientBatchResult,
    TransientScenarioEngine,
    integrate_relaxation,
)

__all__ = [
    "TransientElectroThermalSimulator",
    "TransientCosimResult",
    "step_activity_profile",
    "square_wave_activity_profile",
    "ActivityGrid",
    "ConstantActivity",
    "StepActivity",
    "PWMActivity",
    "TraceActivity",
    "TransientBatchResult",
    "TransientScenarioEngine",
    "integrate_relaxation",
    "ScenarioPhysics",
    "BlockPowerModel",
    "ScaledLeakageBlockModel",
    "NetlistBlockModel",
    "block_models_from_powers",
    "leakage_temperature_ratio",
    "leakage_temperature_ratio_batch",
    "ElectroThermalEngine",
    "CosimIteration",
    "CosimResult",
    "Scenario",
    "ScenarioBatchResult",
    "ScenarioEngine",
    "scenario_grid",
    "scenario_grid_stream",
    "solve_fixed_point",
    "DEFAULT_CHUNK_SIZE",
    "DEFAULT_TRANSIENT_CHUNK_SIZE",
    "ChunkPlan",
    "OnlineSteadyReduction",
    "OnlineTransientReduction",
    "StreamProgress",
    "StreamResult",
    "format_progress",
    "stream_steady",
    "stream_transient",
    "reduced_unit_matrix",
    "unit_resistance_matrix",
]
