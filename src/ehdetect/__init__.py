"""Optimal transmit-power maps for energy-harvesting distributed detection.

The package splits along the pipeline: config carries the scenario types and
file format, detection the divergence surrogate, battery the harvest chain,
optimizer the constrained power allocation, simulator the Monte Carlo
validation, and cli the command-line front end.
"""

from .battery import (
    ArrivalUnitPmf,
    ChainSpec,
    arrival_unit_pmf,
    battery_transition,
    gain_level_probs,
    quantize_gain,
    stationary_oracle,
    stationary_solve,
    steady_state_psi,
    transmit_probability,
    transition_matrix,
)
from .config import (
    BatteryDistribution,
    LocalObservationModel,
    MonteCarloReport,
    NetworkParams,
    PowerMap,
    Scenario,
    ScenarioError,
    SensorParams,
    dumps_scenario,
    emit_scenario,
    load_scenario,
    loads_scenario,
    units_from_power,
)
from .detection import (
    RocCoefficients,
    local_lrt_probabilities,
    q_function,
    roc_coefficients,
    sensor_j_divergence,
)
from .optimizer import (
    ExhaustiveRefused,
    ExhaustiveResult,
    KktReport,
    OptimizationOutcome,
    evaluate_unit_map,
    exhaustive_best_map,
    marginal_divergence_gain,
    optimize_power_map,
    outage_cap,
    stationarity_root,
)
from .simulator import (
    SimBatch,
    Streams,
    calibrate_threshold,
    fusion_llr,
    make_streams,
    run_monte_carlo,
    simulate_slots,
)

__version__ = "0.1.0"
