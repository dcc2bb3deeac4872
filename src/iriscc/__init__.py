"""Rate control on shared bottlenecks: a delay-gradient controller that
learns how its sending rate moves queueing delay, classic loss- and
delay-based baselines, a deterministic event-driven network simulator,
and fairness/convergence metrics for comparing them.
"""

from .baselines import AimdController, ConstantRateController, VegasController
from .controller import (
    IrisController,
    IrisParams,
    IrisState,
    Phase,
    compute_objective,
    effective_slope,
    expected_rtt_variation,
    gap_contraction_factor,
    new_state,
    next_sending_rate,
    on_epoch_end,
)
from .feedback import EpochFeedback, RateController
from .metrics import (
    FairnessReport,
    convergence_time,
    fairness_report,
    jain_index,
    jain_series,
    mean_rtt,
    mean_throughput,
    stability,
    utilization,
)
from .netsim import Simulation, estimate_receiving_rate, run_scenario
from .regression import RegressionFit, analyze_trace, fit_k_b
from .scenario import (
    FlowSpec,
    LinkConfig,
    Scenario,
    ScenarioError,
    dump_scenario,
    load_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from .trace import FlowTrace, TraceRow, read_trace_csv, write_trace_csv
from .units import (
    DEFAULT_PACKET_BYTES,
    kbps_to_pkts_per_ms,
    mbps_to_pkts_per_ms,
    pkts_per_ms_to_mbps,
)

__version__ = "0.1.0"

__all__ = [
    "AimdController",
    "ConstantRateController",
    "DEFAULT_PACKET_BYTES",
    "EpochFeedback",
    "FairnessReport",
    "FlowSpec",
    "FlowTrace",
    "IrisController",
    "IrisParams",
    "IrisState",
    "LinkConfig",
    "Phase",
    "RateController",
    "RegressionFit",
    "Scenario",
    "ScenarioError",
    "Simulation",
    "TraceRow",
    "VegasController",
    "analyze_trace",
    "compute_objective",
    "convergence_time",
    "dump_scenario",
    "effective_slope",
    "estimate_receiving_rate",
    "expected_rtt_variation",
    "fairness_report",
    "fit_k_b",
    "gap_contraction_factor",
    "jain_index",
    "jain_series",
    "kbps_to_pkts_per_ms",
    "load_scenario",
    "mbps_to_pkts_per_ms",
    "mean_rtt",
    "mean_throughput",
    "new_state",
    "next_sending_rate",
    "on_epoch_end",
    "pkts_per_ms_to_mbps",
    "read_trace_csv",
    "run_scenario",
    "scenario_from_dict",
    "scenario_to_dict",
    "stability",
    "utilization",
    "write_trace_csv",
]
