"""Quantum context incompatibility: measures, geometry, protocol, search."""

from .bloch import (
    BlochVector,
    basis_to_bloch_frame,
    bloch_to_state,
    geometric_context_incompatibility,
    geometric_leakage_ratio,
    geometric_maps,
    geometric_measurement_incompatibility,
    qubit_measures,
    star,
    state_to_bloch,
    wedge,
)
from .core import (
    Context,
    DensityMatrix,
    ObservableBasis,
    dephase,
    information,
    outcome_probabilities,
    probability_vector,
    random_density_matrix,
    random_observable_basis,
    shannon_entropy,
    transition_matrix,
    von_neumann_entropy,
)
from .errors import (
    ChannelValidationError,
    CrossCheckError,
    DimensionMismatchError,
    InvariantViolationError,
    ZeroInformationError,
)
from .measures import (
    ContextClass,
    IncompatibilityReport,
    classify_context,
    context_incompatibility,
    depolarizing_kraus,
    eigenstate_ratio,
    incompatibility_report,
    leakage_ratio,
    measurement_incompatibility,
    monotonicity_check,
)
from .mubsearch import (
    SearchConfig,
    SearchResult,
    maximize_incompatibility,
    mub_certificate,
)
from .protocol import (
    LedgerEntry,
    NoiseSweepPoint,
    apply_noise,
    default_epsilon_grid,
    mass_model_context_incompat,
    noise_sweep,
    small_eps_expansion,
    stinespring_ledger,
    weak_measure,
)

__version__ = "0.1.0"
