"""Network Bell functionals: construction, bounds, optimization, and
sum-of-squares certificates for bipartite and star-network inequalities."""

from .certify import (
    CorrespondenceReport,
    SOSReport,
    TrialResult,
    bilocal_max_pair,
    correlation_matrix,
    correspondence_scan,
    horodecki_chsh_max,
    sos_certificate,
)
from .classical import (
    DeterministicStrategy,
    HiddenVariableModel,
    enumerate_deterministic_max,
    eval_model,
    eval_strategy,
    root_sum_lemma_check,
    sample_nlocal_value,
)
from .functionals import (
    Functional,
    Kind,
    ObservableAssignment,
    build_functional,
    build_sign_table,
    classical_bound,
    eval_functional,
    quantum_bound,
)
from .optimize import (
    OptimizationResult,
    SeesawConfig,
    optimal_assignment,
    realize,
    seesaw_optimize,
    vector_model_optimize,
    vector_model_value,
)
from .qcore import expectation, tensor_product
from .states import (
    Observable,
    QuantumState,
    anticommuting_set,
    maximally_entangled,
    network_product_state,
    observable_from_bloch,
    random_two_qubit_density,
    schmidt_pure_two_qubit,
)

__version__ = "0.1.0"

__all__ = [
    "CorrespondenceReport",
    "DeterministicStrategy",
    "Functional",
    "HiddenVariableModel",
    "Kind",
    "Observable",
    "ObservableAssignment",
    "OptimizationResult",
    "QuantumState",
    "SOSReport",
    "SeesawConfig",
    "TrialResult",
    "anticommuting_set",
    "bilocal_max_pair",
    "build_functional",
    "build_sign_table",
    "classical_bound",
    "correlation_matrix",
    "correspondence_scan",
    "enumerate_deterministic_max",
    "eval_functional",
    "eval_model",
    "eval_strategy",
    "expectation",
    "horodecki_chsh_max",
    "maximally_entangled",
    "network_product_state",
    "observable_from_bloch",
    "optimal_assignment",
    "quantum_bound",
    "random_two_qubit_density",
    "realize",
    "root_sum_lemma_check",
    "sample_nlocal_value",
    "schmidt_pure_two_qubit",
    "seesaw_optimize",
    "sos_certificate",
    "tensor_product",
    "vector_model_optimize",
    "vector_model_value",
    "__version__",
]
