"""Weighted second moments of weight-2 Hecke L-functions at prime level.

The package computes A(p^j, q, t) = sum over primitive weight-2 eigenforms
of level q of L(1/2+it,f)^2 lambda_f(p^j), and verifies the sums against
their closed-form main terms at desk scale.  Pipeline: exact modular
symbols -> Hecke eigendata -> smoothed approximate functional equation ->
moment records, with contour-vs-residue cross-checks of every main-term
derivation.
"""

from .harness import SweepConfig, get_eigendata, load_eigendata, run_sweep, save_eigendata
from .heckespace import (
    EigenformTable,
    HeckeSpace,
    build_space,
    eigen_split,
    extend_prime_eigenvalues,
    genus_oracle,
    hecke_matrix,
    lambda_extend,
    trace,
)
from .lvalue import AfeResult, afe_cutoff, l_central_oracle, l_squared_afe
from .moments import (
    MomentRecord,
    build_moment_record,
    empirical_moment,
    exchange_identity,
    main_term_thm11,
    main_term_thm12,
    mellin_numeric,
    residue_closed_form,
    second_moment_main,
    tau_square_series,
)
from .smoothing import KernelParams, truncation_cutoff, wt_eval, wt_eval_shifted
from .special import ZetaConstants, divisor_count, gamma, primes_up_to, zeta, zeta_constants, zeta_log_deriv, zeta_q

__version__ = "0.1.0"
