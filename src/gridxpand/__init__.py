"""Distribution-grid expansion planning for community-solar interconnection."""

from .assess import (
    AssessmentReport,
    UnresolvedPlanError,
    assess,
    breakdown,
    classify,
    compare_siting,
    downsizing_metric,
    incremental_cost,
    normalize,
)
from .builder import BuildError, CandidateSet, build
from .costs import CostDatabase, annualize, default_cost_database, load_cost_database
from .milp import LinConstraint, MilpModel, VarRef
from .mps import export_model, import_model
from .network import (
    Bus,
    FeederNetwork,
    LineSegment,
    NetworkError,
    ScenarioDay,
    SolarUnit,
    StorageUnit,
    UpgradeOption,
    load_feeder,
    minimum_daily_load,
    save_feeder,
)
from .powerflow import (
    FlowResult,
    OperatingPoint,
    Violation,
    check_violations,
    operating_point,
    solve_lindistflow,
)
from .scenarios import (
    EngineConfig,
    ExpansionResult,
    NetloadScenario,
    expansion_loop,
    make_scenario,
    select_candidates,
)
from .solver import NumericalBreakdown, Solution, solve_lp, solve_milp

__version__ = "0.1.0"
