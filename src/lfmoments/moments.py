"""Weighted moment sums over eigenform families and their closed-form main terms.

Empirical side:  A(p^j, q, t) = sum_f L(1/2+it, f)^2 lambda_f(p^j), computed
form by form through the smoothed AFE.  Closed-form side: the two-theorem
main terms (both t-branches), the second-moment main term, and the
moment-exchange display.

Derivation checks reproduce the proof's algebra numerically:

  * tau_square_series: the three divisor Dirichlet-series identities
    sum tau(c l^2)/l^s for c in {1, p, p^2};
  * residue_closed_form / mellin_numeric: the residue extractions behind
    the main terms, cross-checked against direct two-line contour
    quadrature of the printed integrands;
  * trace-route assembly: A(p,q,t) rebuilt from Tr(T_k) by the
    coprime/divisible splitting of lambda_f(n) lambda_f(p), plus the
    square-support identity (the k-square block of the coprime branch
    vanishes identically) and the Delta_2 = Delta_3 / p identity.

residue_closed_form(..., exact=True) keeps the exact q^{-s}-derivative
term of the level-deprived zeta at the double pole (the theorems fold it
into their error terms); exact=False gives the printed truncations, which
is what the theorem-level main terms use.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .heckespace import EigenformTable
from .lvalue import afe_assemble, afe_cutoff, afe_weights, l_squared_many
from .smoothing import KernelParams, halving_quad, wt_grid
from .special import (
    divisor_sieve,
    gamma,
    gamma_vec,
    is_prime,
    primes_up_to,
    zeta,
    zeta_constants,
    zeta_q,
    zeta_vec,
)

__all__ = [
    "MomentRecord",
    "empirical_moment",
    "main_term_thm11",
    "main_term_thm12",
    "main_term_from_residues",
    "second_moment_main",
    "exchange_identity",
    "tau_square_series",
    "residue_closed_form",
    "mellin_numeric",
    "mellin_remainder",
    "trace_route_moment",
    "m1_square_block",
    "delta23_trace_route",
    "build_moment_record",
    "check_t",
    "T_ZERO_EPS",
]

T_ZERO_EPS = 1e-12
T_MAX = 25.0  # the main terms call zeta(4+4it), which special.zeta gives for |Im s| <= 100
_POLE_MERGE_BAND = 1e-3
_FOUR_PI_SQ = 4.0 * math.pi ** 2


@lru_cache(maxsize=1)
def _zc():
    return zeta_constants()


@dataclass(frozen=True)
class MomentRecord:
    """One comparison row: empirical A(p^j,q,t) against the theorem main term."""

    q: int
    p: int
    j: int
    t: float
    empirical: complex
    main_term: complex
    ratio: complex | None
    abs_residual: float
    dim: int
    n_cutoff: int
    warnings: tuple[str, ...] = ()


def check_t(t: float) -> None:
    """The main terms, and so every moment, hold for |t| <= T_MAX."""
    if not abs(t) <= T_MAX:
        raise ValueError(f"t must lie in [-{T_MAX:g}, {T_MAX:g}], where zeta(4+4it) is accurate, got {t:g}")


def _check_pt(p: int, q: int | None, t: float) -> None:
    """The moments are stated for a prime p other than the level q, and |t| <= T_MAX."""
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if p == q:
        raise ValueError(f"p must differ from the level q={q}")
    check_t(t)


# ---------------------------------------------------------------------------
# Empirical side


def empirical_moment(
    tables: list[EigenformTable], j: int, p: int, t: float, tol: float = 1e-8
) -> complex:
    """sum_f L(1/2+it,f)^2 lambda_f(p^j); the empty family sums to 0."""
    if j not in (1, 2):
        raise ValueError(f"j must be 1 or 2, got {j}")
    _check_pt(p, tables[0].q if tables else None, t)
    if not tables:
        return 0.0 + 0.0j
    pj = p ** j
    results = l_squared_many(tables, t, tol)
    acc = 0.0 + 0.0j
    for table, res in zip(tables, results):
        acc += res.value * table.lam(pj)
    return acc


# ---------------------------------------------------------------------------
# Theorem main terms, exactly as printed


def main_term_thm11(p: int, q: int, t: float) -> complex:
    """Main term of the first-power moment A(p,q,t), both t-branches."""
    _check_pt(p, q, t)
    if abs(t) < T_ZERO_EPS:
        c = _zc()
        bracket = (
            math.log(q / (_FOUR_PI_SQ * p))
            + 2.0 * math.log(p) / (1.0 + p * p)
            + 6.0 * c.zeta2_logderiv
            - 4.0 * c.zeta4_logderiv
        )
        pref = (
            (1.0 + 1.0 / p)
            * ((1.0 - 1.0 / q) / (1.0 + p ** -2))
            * (c.zeta2 ** 3 / (6.0 * c.zeta4))
            * (q / math.sqrt(p))
        )
        return complex(pref * bracket)
    it = 1j * t
    g_ratio = (gamma(1.0 - it) / gamma(1.0 + it)) ** 2
    rot = cmath.exp(-2.0 * it * math.log(q / _FOUR_PI_SQ))
    term_m = (
        g_ratio
        * rot
        * zeta_q(1.0 - 2.0 * it, q)
        / (6.0 * (1.0 + p ** (-2.0 + 2.0 * it)))
        * zeta(2.0 - 2.0 * it) ** 3
        / zeta(4.0 - 4.0 * it)
        * q
        * (p + 1.0)
        / p ** (1.5 - it)
    )
    term_p = (
        zeta_q(1.0 + 2.0 * it, q)
        / (6.0 * (1.0 + p ** (-2.0 - 2.0 * it)))
        * zeta(2.0 + 2.0 * it) ** 3
        / zeta(4.0 + 4.0 * it)
        * q
        * (p + 1.0)
        / p ** (1.5 + it)
    )
    return term_m + term_p


def main_term_thm12(p: int, q: int, t: float) -> complex:
    """Main term of the square-power moment A(p^2,q,t), both t-branches."""
    _check_pt(p, q, t)
    if abs(t) < T_ZERO_EPS:
        c = _zc()
        shape = p + (p + 1.0) * (3.0 - p ** -2) / (1.0 + p ** -2)
        bracket = (
            math.log(q / (_FOUR_PI_SQ * p * p))
            + 6.0 * c.zeta2_logderiv
            - 4.0 * c.zeta4_logderiv
        )
        term_a = (q - 1.0) * c.zeta2 ** 3 / (12.0 * p * p * c.zeta4) * shape * bracket
        log_shape = 1.0 + 4.0 * p * (p + 1.0) * (3.0 - p ** -2) / (
            (1.0 + p ** -2) * (p * p + 1.0) * (3.0 * p * p - 1.0)
        )
        term_b = (q - 1.0) * c.zeta2 ** 3 * math.log(p) / (6.0 * p * c.zeta4) * log_shape
        return complex(term_a + term_b)
    it = 1j * t
    term_p = (
        zeta_q(1.0 + 2.0 * it, q)
        * zeta(2.0 + 2.0 * it) ** 3
        / (12.0 * zeta(4.0 + 4.0 * it))
        * (q / p + q * (p + 1.0) * (3.0 - p ** (-2.0 - 2.0 * it)) / (p ** (2.0 + 2.0 * it) + 1.0))
    )
    g_ratio = (gamma(1.0 - it) / gamma(1.0 + it)) ** 2
    rot = cmath.exp(-2.0 * it * math.log(q / _FOUR_PI_SQ))
    term_m = (
        g_ratio
        * rot
        * zeta_q(1.0 - 2.0 * it, q)
        * zeta(2.0 - 2.0 * it) ** 3
        / (12.0 * zeta(4.0 - 4.0 * it))
        * (q / p + q * (p + 1.0) * (3.0 - p ** (-2.0 + 2.0 * it)) / (p ** (2.0 - 2.0 * it) + 1.0))
    )
    return term_p + term_m


def second_moment_main(q: int) -> float:
    """Main terms of sum_f L(1/2,f)^2 at prime level q."""
    c = _zc()
    return (
        c.zeta2 ** 3 / (12.0 * c.zeta4) * q * math.log(q / _FOUR_PI_SQ)
        + c.zeta2 ** 3 / (6.0 * c.zeta4) * (3.0 * c.zeta2_logderiv - 2.0 * c.zeta4_logderiv) * q
    )


def exchange_identity(
    tables_q: list[EigenformTable],
    tables_p: list[EigenformTable],
    p: int,
    tol: float = 1e-8,
) -> dict[str, float]:
    """Empirical A(p,q,0) - sqrt(p/q) A(q,p,0) against its displayed main terms.

    tables_p may be empty (genus-zero partner level, e.g. p=13), in which
    case the second moment sum is the empty sum.
    """
    if not tables_q:
        raise ValueError("need eigen tables for the level q")
    q = tables_q[0].q
    if tables_p and tables_p[0].q != p:
        raise ValueError(f"tables_p are for level {tables_p[0].q}, expected {p}")
    c = _zc()
    lhs = empirical_moment(tables_q, 1, p, 0.0, tol).real
    lhs -= math.sqrt(p / q) * (
        empirical_moment(tables_p, 1, q, 0.0, tol).real if tables_p else 0.0
    )
    rhs = c.zeta2 ** 3 / (6.0 * c.zeta4) * (q / math.sqrt(p)) * math.log(q / (_FOUR_PI_SQ * p))
    rhs += (
        c.zeta2 ** 3
        / (3.0 * c.zeta4)
        * (3.0 * c.zeta2_logderiv - 2.0 * c.zeta4_logderiv)
        * (q / math.sqrt(p))
    )
    return {"lhs": lhs, "rhs_main": rhs}


# ---------------------------------------------------------------------------
# Divisor Dirichlet series


def _tau_square_sieve(limit: int) -> np.ndarray:
    """t[m] = tau(m^2) for m <= limit.

    Each r^e || m with r <= sqrt(limit) gives 2e+1 (the multiples of r^e
    trade the 2e-1 of r^{e-1} for it); the cofactor left after those primes
    is 1 or one prime, which gives 3.
    """
    t = np.ones(limit + 1, dtype=np.int64)
    t[0] = 0
    rest = np.arange(limit + 1, dtype=np.int64)
    for r in primes_up_to(math.isqrt(limit)).tolist():
        pe = r
        e = 1
        while pe <= limit:
            t[pe::pe] = t[pe::pe] // (2 * e - 1) * (2 * e + 1)
            rest[pe::pe] //= r
            pe *= r
            e += 1
    t[rest > 1] *= 3
    return t


def tau_square_series(
    kind: str, p: int, s: complex, limit: int = 100_000
) -> tuple[complex, complex]:
    """(truncated, closed_form) for sum_l tau(c l^2) / l^s, c in {1, p, p^2}.

    Closed forms: zeta^3(s)/zeta(2s) times 1, 2/(1+p^{-s}),
    (3-p^{-s})/(1+p^{-s}) for kind plain, p, p2.
    """
    if kind not in ("plain", "p", "p2"):
        raise ValueError(f"kind must be plain|p|p2, got {kind}")
    if limit < 1000:
        raise ValueError("limit >= 1000 required")
    s = complex(s)
    if s.real < 1.5:
        raise ValueError("Re(s) >= 1.5 required for the truncated comparison")
    tau2 = _tau_square_sieve(limit)
    ell = np.arange(1, limit + 1, dtype=np.float64)
    if kind == "plain":
        vals = tau2[1:].astype(np.float64)
    else:
        j = 1 if kind == "p" else 2
        alpha = np.zeros(limit + 1, dtype=np.int64)
        m = np.arange(limit + 1, dtype=np.int64)
        while True:
            div = (m % p == 0) & (m > 0)
            if not div.any():
                break
            alpha[div] += 1
            m[div] //= p
        vals = (j + 2 * alpha[1:] + 1) * tau2[m[1:]]
        vals = vals.astype(np.float64)
    powers = np.exp(-s * np.log(ell))
    truncated = complex(np.dot(vals, powers))
    base = zeta(s) ** 3 / zeta(2.0 * s)
    if kind == "plain":
        closed = base
    elif kind == "p":
        closed = 2.0 / (1.0 + p ** (-s)) * base
    else:
        closed = (3.0 - p ** (-s)) / (1.0 + p ** (-s)) * base
    return truncated, closed


# ---------------------------------------------------------------------------
# Residue closed forms and the contour oracle

# kind -> (k, C, -x C'(x)/C(x)).  The kind's Mellin integrand is
#   zeta_q(s1) zeta(s2)^3 / zeta(s4) C(p^{-s2}) X^{-u} Gamma(1+it+u)^2 e^{u^2} / u
# with s1 = 1+2it+2u, s2 = s1+1, s4 = 2 s2 and X = 4 pi^2 p^k / q.
_KINDS = {
    "M22": (1, lambda x: 2.0 / (1.0 + x), lambda x: x / (1.0 + x)),
    "Delta1": (0, lambda x: 1.0, lambda x: 0.0),
    "Delta3": (2, lambda x: (3.0 - x) / (1.0 + x), lambda x: x / (3.0 - x) + x / (1.0 + x)),
}


def _residue_parts(kind: str, p: int, q: int, t: float, exact: bool) -> tuple[complex, complex]:
    """(pole_part, regular_part) of the residue sum for the kind's integrand.

    t=0: single double pole; returned entirely as the regular part, whose
    bracket is -log X + 2 log p (-x C'/C)(p^{-2}) + 6 zeta'/zeta(2) - 4 zeta'/zeta(4).
    t!=0: pole_part is the u=-it residue (the -e^{-t^2}/it term), regular
    the u=0 residue.
    """
    if kind not in _KINDS:
        raise ValueError(f"kind must be one of {tuple(_KINDS)}")
    k, c_of, d_of = _KINDS[kind]
    _check_pt(p, q, t)
    c = _zc()
    log_x = math.log(_FOUR_PI_SQ * p ** k / q)
    pref = (1.0 - 1.0 / q) * c.zeta2 ** 3 / c.zeta4 * c_of(p ** -2) / 2.0
    if abs(t) < T_ZERO_EPS:
        extra = 2.0 * math.log(q) / q / (1.0 - 1.0 / q) if exact else 0.0
        bracket = (-log_x + 2.0 * math.log(p) * d_of(p ** -2)
                   + 6.0 * c.zeta2_logderiv - 4.0 * c.zeta4_logderiv + extra)
        return 0.0 + 0.0j, complex(pref * bracket)
    it = 1j * t
    pole = pref * cmath.exp(it * log_x) * -cmath.exp(-t * t) / it
    reg = (c_of(p ** (-2.0 - 2.0 * it)) * zeta_q(1.0 + 2.0 * it, q) * zeta(2.0 + 2.0 * it) ** 3
           / zeta(4.0 + 4.0 * it) * gamma(1.0 + it) ** 2)
    return pole, reg


def residue_closed_form(kind: str, p: int, q: int, t: float, exact: bool = True) -> complex:
    """Residue value of the kind's Mellin integrand between the two lines.

    exact=True keeps the q^{-s}-derivative term of zeta_q at the t=0
    double pole (needed for 1e-8 agreement with mellin_numeric);
    exact=False reproduces the printed truncation used by the theorems.
    """
    pole, reg = _residue_parts(kind, p, q, t, exact)
    return pole + reg


def _mellin_integrand(kind: str, p: int, q: int, t: float, u: np.ndarray) -> np.ndarray:
    k, c_of, _ = _KINDS[kind]
    it = 1j * t
    s1 = 1.0 + 2.0 * it + 2.0 * u
    s2 = 2.0 + 2.0 * it + 2.0 * u
    s4 = 4.0 + 4.0 * it + 4.0 * u
    zq1 = (1.0 - np.exp(-s1 * math.log(q))) * zeta_vec(s1)
    body = zq1 * zeta_vec(s2) ** 3 / zeta_vec(s4) * c_of(np.exp(-s2 * math.log(p)))
    g = gamma_vec(1.0 + it + u)
    return body * np.exp(-u * math.log(_FOUR_PI_SQ * p ** k / q)) * g * g * np.exp(u * u) / u


def _refined_mellin_line(kind: str, p: int, q: int, t: float, sigma: float, tol: float) -> complex:
    """The kind's line integral on Re u = sigma; its poles lie on Re u = 0 and -1/2."""
    _check_pt(p, q, t)  # before the line, whose half-width grows with |t|
    return halving_quad(lambda u: _mellin_integrand(kind, p, q, t, u).sum(), sigma,
                        min(abs(sigma), abs(sigma + 0.5)), max(8.0, abs(t) + 8.0), tol,
                        f"mellin quadrature for {kind} at (p={p}, q={q}, t={t}, sigma={sigma})")


def mellin_numeric(kind: str, p: int, q: int, t: float, tol: float = 1e-10) -> complex:
    """Residues extracted numerically: line integral at Re u = 2 minus Re u = -1/4.

    No singularity lies strictly between Re u = -1/2 and 0, so any left line
    in that strip gives the same value; -1/4 is the farthest from both.
    """
    if kind not in _KINDS:
        raise ValueError(f"kind must be one of {tuple(_KINDS)}")
    right = _refined_mellin_line(kind, p, q, t, 2.0, tol)
    left = _refined_mellin_line(kind, p, q, t, -0.25, tol)
    return right - left


def mellin_remainder(kind: str, p: int, q: int, t: float, tol: float = 1e-10) -> complex:
    """The shifted-line integral alone (the O((p/q)^{1/2-eps}) remainder), on Re u = -1/4."""
    return _refined_mellin_line(kind, p, q, t, -0.25, tol)


def main_term_from_residues(j: int, p: int, q: int, t: float) -> complex:
    """Theorem main term reassembled from the residue route.

    Combines the B-block residues with the Gamma^{-2} conjugate pairing of
    the AFE.  The two pole-part contributions must cancel identically at
    t != 0; that cancellation is asserted here rather than assumed.
    """
    it = 1j * t
    if j == 1:
        pole, reg = _residue_parts("M22", p, q, t, exact=False)
        pref = q / (12.0 * p ** (0.5 + it)) * (1.0 + 1.0 / p)
        b_pole, b_reg = pref * pole, pref * reg
    elif j == 2:
        pole1, reg1 = _residue_parts("Delta1", p, q, t, exact=False)
        pole3, reg3 = _residue_parts("Delta3", p, q, t, exact=False)
        pref1 = q / (12.0 * p)
        pref3 = q / (12.0 * p ** (1.0 + 2.0 * it)) * (1.0 + 1.0 / p)
        b_pole = pref1 * pole1 + pref3 * pole3
        b_reg = pref1 * reg1 + pref3 * reg3
    else:
        raise ValueError("j must be 1 or 2")
    if abs(t) < T_ZERO_EPS:
        return complex(2.0 * b_reg)
    g2inv = 1.0 / gamma(1.0 + it) ** 2
    rot = cmath.exp(-2.0 * it * math.log(q / _FOUR_PI_SQ))
    combo_pole = g2inv * (b_pole + rot * b_pole.conjugate())
    combo_reg = g2inv * (b_reg + rot * b_reg.conjugate())
    scale = max(abs(combo_reg), 1.0)
    if abs(combo_pole) > 1e-10 * scale:
        raise RuntimeError(
            f"pole-pair contributions failed to cancel: |{combo_pole}| at (j={j}, p={p}, q={q}, t={t})"
        )
    return combo_reg + combo_pole


# ---------------------------------------------------------------------------
# Trace-route assembly (the proof's bookkeeping, evaluated directly)


def trace_route_moment(tables: list[EigenformTable], p: int, t: float, tol: float = 1e-8) -> complex:
    """A(p,q,t) assembled from Tr(T_k) by the coprime/divisible splitting.

    Independent evaluation order from the form-by-form route: the traces
    Tr(T_{np}) + Tr(T_{n/p}) meet the same AFE weight vector V (afe_weights)
    that each form's lambda_f(n) meets there; tables must extend to
    p * afe_cutoff(q, t, tol).
    """
    _check_pt(p, tables[0].q if tables else None, t)
    if not tables:
        return 0.0 + 0.0j
    q = tables[0].q
    n_cutoff = afe_cutoff(q, t, tol)
    need = p * n_cutoff
    tr = np.zeros(need + 1, dtype=np.float64)
    for table in tables:
        tr += table.full(need)[: need + 1]
    gvals = tr[p * np.arange(1, n_cutoff + 1)].copy()
    mult = np.arange(1, n_cutoff + 1) % p == 0
    gvals[mult] += tr[np.arange(1, n_cutoff + 1)[mult] // p]
    return afe_assemble(gvals @ afe_weights(q, t, n_cutoff, tol), q, t)


def m1_square_block(p: int, q: int, t: float, tol: float = 1e-8) -> complex:
    """The k-square main-term block of the coprime branch, assembled literally.

    Squares k <= pN with p | k carry tau(k/p) times the Moebius sum over
    d | (k/p, p), which is [p does not divide k/p]; W_t(4 pi^2 k d^2 / pq)
    is evaluated only where that coefficient is nonzero.  p | r^2 forces
    p | r^2/p, so no coefficient is, no kernel point is evaluated, and the
    block is exactly 0j.  Returned for the numeric assertion.
    """
    _check_pt(p, q, t)
    n_cutoff = afe_cutoff(q, t, tol)
    lattice = p * n_cutoff
    k = np.arange(p, math.isqrt(lattice) + 1, p) ** 2
    coeff = np.where(k // p % p != 0, divisor_sieve(n_cutoff)[k // p], 0)
    d = np.arange(1, math.isqrt(lattice) + 1)
    d = d[d % q != 0]
    i, j = np.nonzero((coeff[:, None] != 0) & (np.multiply.outer(k, d * d) <= lattice))
    w = wt_grid(t, _FOUR_PI_SQ * (k[i] * d[j] ** 2) / (p * q), KernelParams(t=t, tol=min(tol, 1e-8)))
    acc = np.sum(coeff[i] * np.exp((-1.0 - 1j * t) * np.log(k[i]))
                 * np.exp((-1.0 - 2j * t) * np.log(d[j])) * w)
    return q * p ** (0.5 + 1j * t) / 12.0 * complex(acc)


def delta23_trace_route(p: int, q: int, t: float, tol: float = 1e-8) -> tuple[complex, complex]:
    """(Delta_2, Delta_3) main-term blocks of the square-power moment, read off V.

    Delta_2 sums the squares n = r^2 with p | r: tau(n) n^{-1-it} times the
    d-sum of W_t(4 pi^2 n d^2 / q) is V(n)/sqrt(n), so Delta_2 = q/12 sum V(r^2)/r.
    Delta_3 sums the squares m with its own coefficient tau(m p^2) =
    (alpha+3) tau(m/p^alpha), alpha = v_p(m), and its own powers
    m^{-1-it}/p^{1+2it}, applied to the d-folded kernel
    D(k) = V(k) k^{1/2+it}/tau(k) at k = m p^2.  Delta_2 = Delta_3/p then
    checks the sieve tau against the (alpha+3) formula and the two power
    bookkeepings.
    """
    _check_pt(p, q, t)
    n_cutoff = afe_cutoff(q, t, tol)
    v = afe_weights(q, t, n_cutoff, tol)
    tau = divisor_sieve(n_cutoff)
    r = np.arange(p, math.isqrt(n_cutoff) + 1, p)
    delta2 = q / 12.0 * complex(np.sum(v[r * r - 1] / r))
    m = np.arange(1, math.isqrt(n_cutoff // (p * p)) + 1) ** 2
    mm, alpha = m.copy(), np.zeros(m.size, dtype=np.int64)
    while (div := mm % p == 0).any():
        alpha += div
        mm[div] //= p
    k = m * p * p
    kernel = v[k - 1] * np.exp((0.5 + 1j * t) * np.log(k)) / tau[k]
    acc3 = np.sum((alpha + 3) * tau[mm] * np.exp((-1.0 - 1j * t) * np.log(m)) * kernel)
    delta3 = q / (12.0 * p ** (1.0 + 2.0j * t)) * complex(acc3)
    return delta2, delta3


# ---------------------------------------------------------------------------
# Records


def build_moment_record(
    tables: list[EigenformTable], q: int, p: int, j: int, t: float, tol: float = 1e-8
) -> MomentRecord:
    """Empirical vs main-term comparison row for one configuration."""
    warnings: list[str] = []
    if not tables:
        warnings.append("empty-family")
        empirical = 0.0 + 0.0j
        n_cutoff = 0
    else:
        empirical = empirical_moment(tables, j, p, t, tol)
        n_cutoff = afe_cutoff(q, t, tol)
    if 0.0 < abs(t) < _POLE_MERGE_BAND:
        warnings.append("pole-merge-band")
    main = main_term_thm11(p, q, t) if j == 1 else main_term_thm12(p, q, t)
    ratio = empirical / main if abs(main) >= 1e-12 else None
    return MomentRecord(
        q=q,
        p=p,
        j=j,
        t=t,
        empirical=empirical,
        main_term=main,
        ratio=ratio,
        abs_residual=abs(empirical - main),
        dim=len(tables),
        n_cutoff=n_cutoff,
        warnings=tuple(warnings),
    )
