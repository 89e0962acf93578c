"""streamopt: assign event-selection lines to output streams.

Minimizes the expected disk-read cost of analysis jobs by optimizing which
line modules share an output stream, via a softmax-relaxed differentiable
surrogate driven by AdaMax, with exact discrete cost/storage models, an
exhaustive oracle for small instances, and a measurement-calibration helper.
"""

from .calibrate import (CalibrationReport, MeasurementRecord,
                        corrected_read_cost, fit_linear)
from .cost import (CostBreakdown, StorageBreakdown, StreamCost,
                   extreme_schemes, objective_scorer, parse_objective,
                   read_cost, read_cost_from_modules, storage_cost)
from .errors import DataError, InfeasibleError, StreamOptError
from .instances import (InstanceFile, SyntheticSpec, gen_synthetic,
                        load_instance, load_measurements, load_scheme,
                        write_scheme)
from .model import (EventLineIncidence, LineCatalog, LineRecord,
                    ModuleIncidence, Scheme, fold_modules, validate_dataset)
from .optimize import (OptimizationResult, OptimizerConfig, RestartRecord,
                       SweepPoint, optimize, sweep_streams)
from .oracle import (MonteCarloCheck, OracleResult, count_partitions,
                     enumerate_optimal, mc_prescale_check,
                     restricted_growth_strings)
from .relax import LossEvaluator, softmax_rows

__version__ = "0.1.0"

__all__ = [
    "CalibrationReport", "CostBreakdown", "DataError", "EventLineIncidence",
    "InfeasibleError", "InstanceFile", "LineCatalog", "LineRecord",
    "LossEvaluator", "MeasurementRecord", "ModuleIncidence",
    "MonteCarloCheck", "OptimizationResult", "OptimizerConfig",
    "OracleResult", "RestartRecord", "Scheme", "StorageBreakdown",
    "StreamCost", "StreamOptError", "SweepPoint", "SyntheticSpec",
    "corrected_read_cost", "count_partitions", "enumerate_optimal",
    "extreme_schemes", "fit_linear", "fold_modules", "gen_synthetic",
    "load_instance", "load_measurements", "load_scheme", "mc_prescale_check",
    "objective_scorer", "optimize", "parse_objective", "read_cost",
    "read_cost_from_modules", "restricted_growth_strings", "softmax_rows",
    "storage_cost", "sweep_streams", "validate_dataset", "write_scheme",
]
