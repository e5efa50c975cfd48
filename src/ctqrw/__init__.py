"""Continuous-time quantum random walks.

A renewal process whose events apply a fixed completely positive map to a
density matrix, the associated memory-kernel master equation
``drho/dt = int_0^t K(t-s) L[rho(s)] ds``, four independent solution routes
(Monte Carlo, renewal series, Volterra quadrature, closed forms /
subordination), safe-vs-dangerous kernel classification, and Choi-matrix
complete-positivity audits of the resulting solution maps.
"""

__version__ = "0.1.0"

from . import config, engine, kernels, laplace, models, quantum, solvers, special
from .engine import (
    EnsembleStats,
    RenewalProbabilities,
    Trajectory,
    ensemble_average,
    event_counts,
    renewal_probabilities,
    run_realization,
    series_solution,
)
from .errors import CtqrwError
from .kernels import (
    EmpiricalWaiting,
    ExponentialKernel,
    ExponentialWaiting,
    FractionalKernel,
    HypoexponentialWaiting,
    KernelVerdict,
    LaplaceKernel,
    MarkovianKernel,
    MittagLefflerWaiting,
    classify_kernel,
    renewal_mean_count,
    waiting_from_kernel,
    waiting_pdf,
    waiting_survival,
)
from .models import (
    DeltaPhase,
    Dephasing,
    Depolarizing,
    ExponentialPhase,
    GaussianJumps,
    LevyJumps,
    LogFormalPhase,
    PointMassJumps,
    SpectrumModel,
    Thermal,
    WignerWalkConfig,
    fourier_mode_rate,
    intrinsic_decoherence,
    qubit_closed_solution,
    qubit_kraus,
    second_order_generator,
    wigner_ctrw,
)
from .quantum import (
    ChoiMatrix,
    DampingBasis,
    DensityMatrix,
    GeneratorMatrix,
    KrausMap,
    apply_kraus,
    choi_of_map,
    damping_basis,
    exp_generator_to_kraus,
    linear_entropy,
    lindblad_from_kraus,
    make_density,
    mixture_generator,
    pure_state,
)
from .solvers import (
    closed_form_solve,
    cp_defect_over_time,
    short_time_entropy,
    subordination_pdf,
    subordination_solve,
    telegraph_h,
    telegraph_ode_solve,
    volterra_solve,
)
from .special import mittag_leffler
