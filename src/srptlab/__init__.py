"""srpt-lab: a desk-scale lab for preemptive online SRPT scheduling on
identical machines -- exact simulation, offline optima, competitive-ratio
claim verification, and Gantt rendering."""

from .analysis import (
    THEOREMS,
    ReportRow,
    TheoremSpec,
    competitive_ratio,
    theorem_spec,
    verify_all,
    verify_theorem,
)
from .engine import (
    EngineTrace,
    Epoch,
    Migration,
    PolicyConfig,
    remaining_profile,
    simulate_srpt,
)
from .model import (
    Instance,
    Job,
    Schedule,
    Segment,
    validate_schedule,
)
from .oracles import (
    DEFAULT_CEILING,
    OptResult,
    SearchCeiling,
    SearchCeilingError,
    UnsupportedInstanceError,
    brute_force_opt,
    mcnaughton,
    zero_release_opt,
)
from .reports import discrepancy_report
from .workloads import ClassId, ClassSpec, S3Interpretation, generate

__version__ = "0.1.0"

__all__ = [
    "ClassId",
    "ClassSpec",
    "DEFAULT_CEILING",
    "EngineTrace",
    "Epoch",
    "Instance",
    "Job",
    "Migration",
    "OptResult",
    "PolicyConfig",
    "ReportRow",
    "S3Interpretation",
    "Schedule",
    "SearchCeiling",
    "SearchCeilingError",
    "Segment",
    "THEOREMS",
    "TheoremSpec",
    "UnsupportedInstanceError",
    "brute_force_opt",
    "competitive_ratio",
    "discrepancy_report",
    "generate",
    "mcnaughton",
    "remaining_profile",
    "simulate_srpt",
    "theorem_spec",
    "validate_schedule",
    "verify_all",
    "verify_theorem",
    "zero_release_opt",
]
