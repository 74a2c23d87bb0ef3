"""bellcheck: exact and Monte Carlo checks for CHSH experiment statistics.

The package covers the full chain from Hilbert-space primitives to
decision procedures: Born-rule pair probabilities for the polarization
singlet, the four independent real-world experiments and their 256
elementary joint outcomes, the 16-outcome counterfactual device with
its |E| <= 2 bound, Fine's joint-distribution feasibility test, the
CHSH operator spectrum, and the quasi-probability table whose negative
cells mark jointly unmeasurable observables.
"""

__version__ = "0.4.0"

from types import ModuleType as _ModuleType

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
from .linalg import commutator, eig_hermitian
from .polarization import AngleConfig, singlet_state, x_operator, y_operator, z_operator
from .quasiprob import QuasiPmf2, QuasiPmf3, f_jk, f_jkl, find_negativity, q_reconstruct, q_value
from .realworld import (
    EstimatorResult,
    ExperimentOutcome,
    RunRecord,
    enumerate_total_sample_space,
    run_experiments,
    statistic_histogram,
    tensor_chsh_expectation,
    tensor_joint_pmf,
    tensor_state,
)

# The imports above are the one list of exports: every public name they
# bind, leaving out the submodules that importing them binds as well.
__all__ = sorted(
    name for name, value in vars().items() if not name.startswith("_") and not isinstance(value, _ModuleType)
)
