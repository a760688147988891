"""Per-type active-node cardinality estimation for heterogeneous slotted
random-access networks: protocol simulators, closed-form analysis, and a
Monte-Carlo harness."""

from .core import (
    AllSlotsBusy,
    EnergyLedger,
    EstimateReport,
    InconsistentOutcome,
    PopulationSpec,
    ProtocolConfig,
    RngBank,
    SlotLedger,
    SlotOutcome,
    UnknownAccuracyKey,
    derive_config,
)

__all__ = [
    "AllSlotsBusy", "EnergyLedger", "EstimateReport", "InconsistentOutcome",
    "PopulationSpec", "ProtocolConfig", "RngBank", "SlotLedger",
    "SlotOutcome", "UnknownAccuracyKey", "derive_config",
]
