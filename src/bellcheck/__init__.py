"""bellcheck: exact and Monte Carlo checks for CHSH experiment statistics.

The package covers the full chain from Hilbert-space primitives to
decision procedures: Born-rule pair probabilities for the polarization
singlet, the four independent real-world experiments and their 256
elementary joint outcomes, the 16-outcome counterfactual device with
its |E| <= 2 bound, Fine's joint-distribution feasibility test, the
CHSH operator spectrum, and the quasi-probability table whose negative
cells mark jointly unmeasurable observables.
"""

__version__ = "0.1.0"

from .born import JointPmf2x2, Pmf2, chsh_expectation, chsh_expectations, correlation, joint_pmf, pmf_single
from .chsh_operator import (
    ChshSpectrum,
    atom_magnitude,
    chsh_operator,
    chsh_spectra,
    chsh_spectrum,
    closed_form_expectation,
    sample_outcomes,
)
from .counterfactual import (
    CfOutcome,
    CfPmf,
    FeasibilityResult,
    PairMarginals,
    chsh_all_variants,
    fine_feasibility,
    identify_run,
    outcome_statistic,
    outcome_values,
    pair_marginals,
    quantum_pair_marginals,
)
from .errors import InternalCheckError
from .linalg import adjoint, commutator, eig_hermitian, kron
from .polarization import (
    AngleConfig,
    rotated_basis,
    singlet_state,
    x_operator,
    y_operator,
    z_operator,
)
from .quasiprob import QuasiPmf2, QuasiPmf3, f_jk, f_jkl, find_negativity, q_reconstruct, q_value
from .realworld import (
    EstimatorResult,
    ExperimentOutcome,
    RunRecord,
    enumerate_total_sample_space,
    run_experiments,
    sample_pair,
    statistic_histogram,
    tensor_chsh_expectation,
    tensor_joint_pmf,
    tensor_state,
)

__all__ = [
    "AngleConfig",
    "CfOutcome",
    "CfPmf",
    "ChshSpectrum",
    "EstimatorResult",
    "ExperimentOutcome",
    "FeasibilityResult",
    "InternalCheckError",
    "JointPmf2x2",
    "PairMarginals",
    "Pmf2",
    "QuasiPmf2",
    "QuasiPmf3",
    "RunRecord",
    "adjoint",
    "atom_magnitude",
    "chsh_all_variants",
    "chsh_expectation",
    "chsh_expectations",
    "chsh_operator",
    "chsh_spectra",
    "chsh_spectrum",
    "closed_form_expectation",
    "commutator",
    "correlation",
    "eig_hermitian",
    "enumerate_total_sample_space",
    "f_jk",
    "f_jkl",
    "find_negativity",
    "fine_feasibility",
    "identify_run",
    "joint_pmf",
    "kron",
    "outcome_statistic",
    "outcome_values",
    "pair_marginals",
    "pmf_single",
    "q_reconstruct",
    "q_value",
    "quantum_pair_marginals",
    "rotated_basis",
    "run_experiments",
    "sample_outcomes",
    "sample_pair",
    "singlet_state",
    "statistic_histogram",
    "tensor_chsh_expectation",
    "tensor_joint_pmf",
    "tensor_state",
    "x_operator",
    "y_operator",
    "z_operator",
]
