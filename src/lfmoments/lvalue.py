"""Squared central L-values through the smoothed approximate functional equation.

The primary route is the two-term AFE for L(1/2+it, f)^2:

    L(1/2+it,f)^2 = Gamma(1+it)^{-2} [ S(t) + (q/4pi^2)^{-2it} conj(S(t)) ],
    S(t) = sum_{(d,q)=1} d^{-1-2it} sum_n tau(n) lambda_f(n) n^{-1/2-it}
           W_t(4 pi^2 n d^2 / q),

with the lattice n d^2 truncated by the kernel-decay cutoff.  S(t) is
linear in lambda_f, so it is lambda_f @ V with one weight vector V per
(q, t, cutoff) (afe_weights, the one cache of the lattice).  Every n d^2
sum reads it: each form, the trace route, and the Delta_2/Delta_3
blocks of moments; afe_assemble forms L^2 from S.  The
independent cross-route at t=0 is the classical exponentially smoothed
series for the completed L-function (no contour quadrature involved):

    L(1/2, f) = (1 + eps_f) sum_n lambda_f(n) n^{-1/2} e^{-2 pi n / sqrt(q)},

with eps_f = sqrt(q) lambda_f(q) as the Heilbronn engine stores it on the table.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .heckespace import EigenformTable, MissingEigenvalueError
from .smoothing import KernelParams, truncation_cutoff, wt_grid
from .special import divisor_sieve, fixed_matmul, gamma

__all__ = [
    "AFE_CUTOFF_MAX",
    "AfeResult",
    "CutoffCapError",
    "afe_assemble",
    "afe_cutoff",
    "afe_weights",
    "l_squared_afe",
    "l_squared_many",
    "l_central_oracle",
    "wt_lattice",
]


# The largest lattice cutoff a moment may ask for.  The cutoff grows like
# e^{pi |t|}: at q=101 and tol 1e-4 it is 4096 at t=0 and 4194304 at t=10,
# where the eigendata would need every prime below 4.2e6.  The Heilbronn
# engine costs about 4x per doubling of the cutoff (5.5 s to 32768 at
# q=101), so a table to 2^17 takes about 90 s, and one to 2^20 hours.
AFE_CUTOFF_MAX = 1 << 17


class CutoffCapError(ValueError):
    """The AFE cutoff at (q, t, tol) exceeds AFE_CUTOFF_MAX."""


def afe_cutoff(q: int, t: float, tol: float) -> int:
    """Lattice cutoff l_squared_afe will use at (q, t, tol).

    The 1/|Gamma(1+it)|^2 prefactor amplifies the lattice sums, so the
    cutoff is solved at the correspondingly tightened tolerance; tables
    must extend at least this far.  CutoffCapError above AFE_CUTOFF_MAX.
    """
    amp = abs(gamma(1.0 + 1j * t)) ** 2
    n = truncation_cutoff(q, 1, min(tol * amp, 1e-4))
    if n > AFE_CUTOFF_MAX:
        raise CutoffCapError(
            f"AFE cutoff {n} at q={q}, t={t}, tol={tol} exceeds AFE_CUTOFF_MAX = {AFE_CUTOFF_MAX}; "
            "use a smaller |t| or a larger tol"
        )
    return n


def wt_lattice(denom: float, t: float, n: int, tol: float) -> np.ndarray:
    """W_t(4 pi^2 k / denom), k = 1..n, evaluated at min(tol, 1e-8); real at t = 0."""
    ys = 4.0 * math.pi ** 2 * np.arange(1, n + 1, dtype=np.float64) / denom
    vals = wt_grid(t, ys, KernelParams(t=t, tol=min(tol, 1e-8)))
    return vals.real if t == 0.0 else vals


def afe_weights(q: int, t: float, n: int, tol: float) -> np.ndarray:
    """The AFE weight vector V(k), k = 1..n, so that S_f(t) = lambda_f[1:n+1] @ V:

        V(k) = tau(k) k^{-1/2-it} sum_{d^2 k <= n, (d,q)=1} d^{-1-2it} W_t(4 pi^2 k d^2 / q).

    Read-only and kept in a 9-entry LRU cache keyed on (q, t, n, min(tol, 1e-8)),
    the tol the W_t grid is evaluated at; the grid itself is not kept.
    """
    return _afe_weights(int(q), float(t), int(n), min(float(tol), 1e-8))


@lru_cache(maxsize=9)
def _afe_weights(q: int, t: float, n: int, tol: float) -> np.ndarray:
    w = wt_lattice(float(q), t, n, tol)
    v = np.zeros(n, dtype=w.dtype)
    for d in range(1, math.isqrt(n) + 1):
        if d % q != 0:
            dd = d * d
            v[:n // dd] += w[dd - 1::dd] * (1.0 / d if t == 0.0 else d ** (-1.0 - 2j * t))
    k = np.arange(1, n + 1, dtype=np.float64)
    k_pow = 1.0 / np.sqrt(k) if t == 0.0 else np.exp((-0.5 - 1j * t) * np.log(k))
    v *= divisor_sieve(n)[1:] * k_pow
    v.flags.writeable = False
    return v


def afe_assemble(s: complex, q: int, t: float) -> complex:
    """Gamma(1+it)^{-2} [S + (q/4pi^2)^{-2it} conj(S)] from the lattice sum S; 2 Re S at t = 0."""
    if t == 0.0:
        return complex(2.0 * s.real)
    rot = cmath.exp(-2j * t * math.log(q / (4.0 * math.pi ** 2)))
    return 1.0 / gamma(1.0 + 1j * t) ** 2 * (s + rot * s.conjugate())


def _tail_model(q: int, n: int) -> float:
    """Calibrated truncation-tail estimate for the AFE lattice sums."""
    y = 4.0 * math.pi ** 2 * (n + 1) / q
    ln_y = math.log(y)
    return math.sqrt(q) * math.exp(-ln_y * ln_y / 4.0 + 1.65 * ln_y - 15.3)


@dataclass(frozen=True)
class AfeResult:
    """L(1/2+it,f)^2 with its truncation bookkeeping."""

    value: complex
    n_cutoff: int
    d_cutoff: int
    tail_bound: float


def l_squared_afe(table: EigenformTable, t: float, tol: float = 1e-8) -> AfeResult:
    """L(1/2+it, f)^2 by the smoothed approximate functional equation.

    The lattice nd^2 is truncated at truncation_cutoff(q, 1, tol); the
    table must extend at least that far.  The functional-equation sign is
    never read: the squared-L equation does not contain it.
    """
    return l_squared_many([table], t, tol)[0]


def l_squared_many(tables: list[EigenformTable], t: float, tol: float = 1e-8) -> list[AfeResult]:
    """AFE values for several forms of one level: one product lambda @ V for all forms."""
    if not tables:
        return []
    q = tables[0].q
    amp = abs(gamma(1.0 + 1j * t)) ** 2
    n_cutoff = afe_cutoff(q, t, tol)
    for table in tables:
        if table.n_max < n_cutoff:
            raise MissingEigenvalueError(
                f"table n_max={table.n_max} below AFE cutoff {n_cutoff} (q={q}, tol={tol})"
            )
    v = afe_weights(q, t, n_cutoff, tol)
    d_cutoff = int(math.isqrt(n_cutoff))
    tail = _tail_model(q, n_cutoff) / amp
    sums = fixed_matmul(np.vstack([table.full(n_cutoff)[1:n_cutoff + 1] for table in tables]), v)
    return [AfeResult(value=afe_assemble(s, q, t), n_cutoff=n_cutoff, d_cutoff=d_cutoff,
                      tail_bound=tail) for s in sums]


def l_central_oracle(table: EigenformTable, tol: float = 1e-8) -> float:
    """L(1/2, f) by the exponentially smoothed central-value series.

    Independent of the W_t quadrature route; uses the functional-equation
    sign the table carries, which extend_prime_eigenvalues sets.  A table
    without one (sign 0, straight from eigen_split) is a ValueError.
    """
    q = table.q
    sign = table.sign
    if sign not in (-1, 1):
        raise ValueError(f"form {table.index} at q={q} carries no FE sign; "
                         "extend_prime_eigenvalues sets it")
    m = max(32, math.ceil(math.sqrt(q) * (math.log(1.0 / tol) + 8.0) / (2.0 * math.pi)))
    if table.n_max < m:
        raise MissingEigenvalueError(f"table too short for the central-value series: need {m}")
    lam = table.full(m)
    n = np.arange(1, m + 1, dtype=np.float64)
    series = float(np.sum(lam[1:m + 1] / np.sqrt(n) * np.exp(-2.0 * math.pi * n / math.sqrt(q))))
    return (1 + sign) * series
