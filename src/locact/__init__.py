"""Local activity and passivity analysis for linear and linearized port
systems ``x'(t) = A x(t) + P u(t)``.

The package decides activity (some input extracts energy: the functional
``W_T(u) = int_0^T <x, P u> dt`` goes negative), certifies passivity through
dissipativity of the projected system matrix, constructs verified witness
signals, classifies edge-of-chaos behavior of rational complexity functions,
and applies the same machinery to nonlinear models (FitzHugh-Nagumo,
single-cell reaction-diffusion) through equilibrium linearization.
"""

from .activity import (
    ACTIVE,
    INCONCLUSIVE,
    PASSIVE,
    ActivityVerdict,
    Certificate,
    GenericTwoPulseWitness,
    WitnessRecord,
    WitnessSearchConfig,
    classify_activity,
    complex_eigen_signal,
    energy_integral,
    real_eigen_signal,
    witness_two_pulse_generic,
)
from .complexity import (
    ClassifierTolerances,
    EdgeClassification,
    PoleSet,
    RationalFunction,
    edge_of_chaos_classify,
    make_rational,
    min_real_on_axis,
    one_port_rational,
    poles,
)
from .genericity import (
    GenericityReport,
    in_generic_M,
    port_transform,
    sample_density_M,
)
from .linsys import (
    LinearPortSystem,
    Spectrum,
    Trajectory,
    load_matrix,
    make_system,
    matrix_exponential,
    max_sym_eigenvalue,
    solve_forced,
    spectrum,
)
from .nonlinear import (
    EquilibriumReport,
    HopfResult,
    NonlinearPortSystem,
    analyze_equilibrium_pipeline,
    discrete_laplacian,
    fhn_complexity_function,
    fhn_system,
    find_equilibrium,
    hopf_locate,
    jacobian_fd,
    rd_single_cell,
)
from .signals import (
    MollifiedTwoPulse,
    MollifierComplex,
    MollifierReal,
    MollifierTrajectory,
    TwoPulse,
    eval_signal,
    mollifier,
    mollifier_derivative,
    signal_from_json,
)

__version__ = "0.1.0"
