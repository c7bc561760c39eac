"""chwplan: simulation and planning for community-health-worker visit schedules."""

__version__ = "0.1.0"

from .clustering import ClusterResult, cluster_params, elbow_curve
from .engine import (
    Cohort,
    RunResult,
    SimulationConfig,
    SummaryRow,
    capacity_sweep,
    simulate,
    summarize,
)
from .estimation import (
    EstimationConfig,
    EstimationFailedError,
    EstimationResult,
    VisitHistory,
    estimate_patient,
)
from .model import (
    PatientParams,
    PatientState,
    benefit,
    enroll_decision,
    step_adverse,
    step_fbg,
    step_patient,
    step_perception,
)
from .policy import POLICY_KINDS, PolicySpec, select_visits
from .scenarios import (
    GroupSpec,
    SamplingError,
    ScenarioSpec,
    builtin_scenarios,
    sample_cohort,
)

__all__ = [
    "__version__",
    "ClusterResult",
    "cluster_params",
    "elbow_curve",
    "Cohort",
    "RunResult",
    "SimulationConfig",
    "SummaryRow",
    "capacity_sweep",
    "simulate",
    "summarize",
    "EstimationConfig",
    "EstimationFailedError",
    "EstimationResult",
    "VisitHistory",
    "estimate_patient",
    "PatientParams",
    "PatientState",
    "benefit",
    "enroll_decision",
    "step_adverse",
    "step_fbg",
    "step_patient",
    "step_perception",
    "POLICY_KINDS",
    "PolicySpec",
    "select_visits",
    "GroupSpec",
    "SamplingError",
    "ScenarioSpec",
    "builtin_scenarios",
    "sample_cohort",
]
