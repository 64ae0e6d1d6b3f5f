"""Power-fault injection, transient faults and post-crash ACID checking."""

from .checker import (
    CheckReport,
    Violation,
    check_device,
    check_write_order,
    latest_acked_values,
)
from .campaign import make_artifact, replay_artifact
from .chaos import ChaosResult, chaos_scenario, minimize_chaos, run_chaos
from .checker import check_undetected_corruption
from .corruption import (
    CORRUPTION_PROFILES,
    CorruptionConfig,
    CorruptionModel,
    make_corruption_profile,
)
from .death import (
    DEATH_PROFILES,
    DeviceDeathModel,
    DeviceDeathSchedule,
    make_death_schedule,
)
from .faults import FaultConfig, FlashFaultError, TransientFaultModel
from .grayfaults import (
    PROFILES,
    GrayFaultModel,
    GrayFaultProfile,
    make_profile,
)
from .injector import PowerCut, PowerFailureInjector, run_until_power_cut
from .torture import (
    TortureScenario,
    TrialResult,
    SweepResult,
    build_world,
    generate_ops,
    minimize,
    record,
    run_trial,
    sweep,
    verify_determinism,
)

__all__ = [
    "CORRUPTION_PROFILES",
    "ChaosResult",
    "CheckReport",
    "CorruptionConfig",
    "CorruptionModel",
    "DEATH_PROFILES",
    "DeviceDeathModel",
    "DeviceDeathSchedule",
    "FaultConfig",
    "FlashFaultError",
    "GrayFaultModel",
    "GrayFaultProfile",
    "PROFILES",
    "PowerCut",
    "PowerFailureInjector",
    "SweepResult",
    "TortureScenario",
    "TransientFaultModel",
    "TrialResult",
    "Violation",
    "build_world",
    "chaos_scenario",
    "check_device",
    "check_undetected_corruption",
    "check_write_order",
    "generate_ops",
    "latest_acked_values",
    "make_artifact",
    "make_corruption_profile",
    "make_death_schedule",
    "make_profile",
    "minimize",
    "minimize_chaos",
    "record",
    "replay_artifact",
    "run_chaos",
    "run_trial",
    "run_until_power_cut",
    "sweep",
    "verify_determinism",
]
