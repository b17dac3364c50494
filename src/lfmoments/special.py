"""Complex special functions and elementary arithmetic functions.

Everything downstream (kernel quadrature, Dirichlet-series identities,
main-term formulas) reduces to a handful of primitives implemented here:

  * gamma(s)           Lanczos rational approximation (g=7, n=9), with the
                       reflection formula for Re(s) < 1/2; gamma_vec is the
                       same sum on arrays, with one step of the recurrence.
  * zeta(s)            Euler-Maclaurin summation, valid for Re(s) >= -1 and
                       moderate |Im(s)|; truncation is configurable.
  * zeta_log_deriv(s)  zeta'(s)/zeta(s) for real s >= 1.5, by a complex
                       step through zeta.
  * zeta_q(s, q)       the level-deprived zeta (1 - q^{-s}) zeta(s).
  * divisor_count / divisor_sieve / primes_up_to / von Mangoldt helpers.
  * fixed_matmul(a, b) a @ b in blocks that OpenBLAS runs on one thread,
                       so the bits do not depend on its thread count.

All functions are pure and thread-safe.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = [
    "SpecialFunctionError",
    "PoleError",
    "ZetaConstants",
    "gamma",
    "zeta",
    "zeta_q",
    "zeta_log_deriv",
    "zeta_constants",
    "euler_gamma",
    "divisor_count",
    "divisor_sieve",
    "primes_up_to",
    "is_prime",
    "von_mangoldt_log_deriv",
    "fixed_matmul",
]


class SpecialFunctionError(ValueError):
    """Bad argument to a special-function routine."""


class PoleError(SpecialFunctionError):
    """Evaluation requested at (or too near) a pole."""


euler_gamma = float(np.euler_gamma)

# Lanczos coefficients, g = 7, n = 9.  Standard double-precision set;
# relative error below ~1e-13 on Re(s) > 1/2.
_LANCZOS_G = 7.0
_LANCZOS_P = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def _is_near_nonpositive_integer(s: complex, eps: float = 1e-14) -> bool:
    if abs(s.imag) > eps:
        return False
    k = round(s.real)
    return k <= 0 and abs(s.real - k) <= eps


def _lanczos(z, exp):
    """Gamma(z + 1) by the Lanczos sum for Re(z) > -1/2, with only + / ** and
    the given exp, so that complex scalars (cmath.exp) and arrays (np.exp)
    share it."""
    x = _LANCZOS_P[0]
    for i in range(1, len(_LANCZOS_P)):
        x = x + _LANCZOS_P[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * t ** (z + 0.5) * exp(-t) * x


def gamma(s: complex) -> complex:
    """Gamma(s) for complex s, away from the poles at 0, -1, -2, ...

    Raises PoleError when s is within 1e-14 of a non-positive integer.
    """
    s = complex(s)
    if _is_near_nonpositive_integer(s):
        raise PoleError(f"gamma pole at non-positive integer: s={s}")
    if s.real < 0.5:
        # Reflection: Gamma(s) Gamma(1-s) = pi / sin(pi s).
        return math.pi / (cmath.sin(math.pi * s) * gamma(1.0 - s))
    return _lanczos(s - 1.0, cmath.exp)


def gamma_vec(s: np.ndarray) -> np.ndarray:
    """Vectorized gamma for arrays with Re(s) > -1/2.

    Nodes with Re(s) < 1/2 take one step of Gamma(s) = Gamma(s+1)/s.  Used
    by the contour quadratures, whose nodes sit right of Re(s) = 0.1.
    """
    s = np.asarray(s, dtype=np.complex128)
    if np.any(s.real <= -0.5):
        raise SpecialFunctionError("gamma_vec requires Re(s) > -1/2")
    low = s.real < 0.5
    g = _lanczos(np.where(low, s + 1.0, s) - 1.0, np.exp)
    return np.where(low, g / s, g)


def _bernoulli_even(count: int) -> list[float]:
    """B_2, B_4, ..., B_{2*count} as floats, from the exact recurrence."""
    m_max = 2 * count
    b = [Fraction(0)] * (m_max + 1)
    b[0] = Fraction(1)
    for m in range(1, m_max + 1):
        acc = Fraction(0)
        binom = 1
        for k in range(m):
            # binom = C(m+1, k)
            if k > 0:
                binom = binom * (m + 2 - k) // k
            acc += binom * b[k]
        b[m] = -acc / (m + 1)
    return [float(b[2 * k]) for k in range(1, count + 1)]


_ZETA_TERMS = 50          # initial Dirichlet terms
_ZETA_BERNOULLI = 15      # Euler-Maclaurin correction terms
_B2K = _bernoulli_even(_ZETA_BERNOULLI + 2)
_B2K_OVER_FACT = [_B2K[k - 1] / math.factorial(2 * k) for k in range(1, _ZETA_BERNOULLI + 1)]


def _em_tail(acc, s, n_terms: int, exp):
    """acc plus the Euler-Maclaurin tail of zeta(s) from N = n_terms on.

    Uses only + * / and the exp it is given, so one body serves the scalar
    (cmath.exp) and the vectorized (np.exp) zeta.
    """
    nf = float(n_terms)
    npow = exp(-s * math.log(nf))  # N^{-s}
    acc += npow * nf / (s - 1.0)
    acc += 0.5 * npow
    # Correction terms: B_{2k}/(2k)! * s(s+1)...(s+2k-2) * N^{-s-2k+1}
    poch = s  # rising factorial s(s+1)...(s+2k-2), starts at k=1 with just s
    npow_k = npow / nf  # N^{-s-2k+1}, starts at k=1 with N^{-s-1}
    for k in range(1, _ZETA_BERNOULLI + 1):
        acc += _B2K_OVER_FACT[k - 1] * poch * npow_k
        # prepare next k: extend pochhammer by (s+2k-1)(s+2k), shift power by N^{-2}
        poch = poch * (s + (2 * k - 1)) * (s + 2 * k)
        npow_k /= nf ** 2
    return acc


def zeta(s: complex) -> complex:
    """Riemann zeta by Euler-Maclaurin.

    Accurate to ~1e-13 relative for Re(s) >= -1, |Im(s)| <= 100.  The
    simple pole at s = 1 is guarded.
    """
    s = complex(s)
    if abs(s - 1.0) <= 1e-10:
        raise PoleError(f"zeta pole at s=1 (got s={s})")
    n_terms = max(_ZETA_TERMS, int(0.6 * abs(s.imag)) + 8)
    acc = 0.0 + 0.0j
    for n in range(1, n_terms):
        acc += cmath.exp(-s * math.log(n))
    return _em_tail(acc, s, n_terms, cmath.exp)


def zeta_vec(s: np.ndarray) -> np.ndarray:
    """Vectorized Euler-Maclaurin zeta over an array of complex s.

    Same scheme as zeta(); the truncation is chosen from the largest
    |Im(s)| in the array.
    """
    s = np.asarray(s, dtype=np.complex128)
    if np.any(np.abs(s - 1.0) <= 1e-10):
        raise PoleError("zeta_vec called with a node at s=1")
    n_terms = max(_ZETA_TERMS, int(0.6 * float(np.max(np.abs(s.imag)))) + 8)
    ns = np.arange(1, n_terms, dtype=np.float64)
    # (n_nodes, n_terms) matrix of n^{-s}; chunk if large
    flat = s.reshape(-1)
    out = np.zeros(flat.shape, dtype=np.complex128)
    chunk = max(1, 2_000_000 // n_terms)
    logn = np.log(ns)
    for lo in range(0, flat.size, chunk):
        ss = flat[lo:lo + chunk, None]
        out[lo:lo + chunk] = np.exp(-ss * logn[None, :]).sum(axis=1)
    return _em_tail(out.reshape(s.shape), s, n_terms, np.exp)


def zeta_q(s: complex, q: int) -> complex:
    """Level-deprived zeta: (1 - q^{-s}) * zeta(s)."""
    s = complex(s)
    return (1.0 - cmath.exp(-s * math.log(q))) * zeta(s)


def zeta_log_deriv(s: float) -> float:
    """zeta'(s)/zeta(s) for real s >= 1.5, by a complex step through the
    Euler-Maclaurin zeta: zeta'(s) = Im zeta(s + ih)/h, exact to rounding."""
    if s < 1.5:
        raise SpecialFunctionError(f"zeta_log_deriv requires s >= 1.5, got {s}")
    return zeta(complex(s, 1e-30)).imag / 1e-30 / zeta(s).real


def von_mangoldt_log_deriv(s: float, n_max: int = 1_000_000) -> float:
    """zeta'(s)/zeta(s) via the von Mangoldt Dirichlet series.

    -sum_{n <= N} Lambda(n) n^{-s}, plus the smooth tail N^{1-s}/(s-1)
    (psi(x) ~ x).  Independent of the Euler-Maclaurin route; used as a
    cross-check oracle.
    """
    if s < 1.5:
        raise SpecialFunctionError(f"von Mangoldt series requires s >= 1.5, got {s}")
    primes = primes_up_to(n_max)
    acc = 0.0
    for p in primes.tolist():
        lp = math.log(p)
        pk = float(p)
        while pk <= n_max:
            acc += lp * pk ** (-s)
            pk *= p
    tail = n_max ** (1.0 - s) / (s - 1.0)
    return -(acc + tail)


@dataclass(frozen=True)
class ZetaConstants:
    """The zeta data entering every t=0 main term."""

    zeta2: float
    zeta4: float
    zeta2_logderiv: float
    zeta4_logderiv: float
    euler_gamma: float


def zeta_constants() -> ZetaConstants:
    return ZetaConstants(
        zeta2=float(zeta(2.0).real),
        zeta4=float(zeta(4.0).real),
        zeta2_logderiv=zeta_log_deriv(2.0),
        zeta4_logderiv=zeta_log_deriv(4.0),
        euler_gamma=euler_gamma,
    )


def primes_up_to(n: int) -> np.ndarray:
    """All primes <= n, increasing (sieve of Eratosthenes)."""
    if n < 2:
        raise SpecialFunctionError(f"primes_up_to requires n >= 2, got {n}")
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, int(n ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p:: p] = False
    return np.nonzero(sieve)[0].astype(np.int64)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def divisor_count(n: int) -> int:
    """tau(n), the number of positive divisors, by trial factorization."""
    if n < 1:
        raise SpecialFunctionError(f"divisor_count requires n >= 1, got {n}")
    tau = 1
    m = n
    d = 2
    while d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            tau *= e + 1
        d += 1 if d == 2 else 2
    if m > 1:
        tau *= 2
    return tau


def divisor_sieve(n: int) -> np.ndarray:
    """Array t with t[k] = tau(k) for 0 <= k <= n (t[0] = 0)."""
    if n < 1:
        raise SpecialFunctionError(f"divisor_sieve requires n >= 1, got {n}")
    t = np.zeros(n + 1, dtype=np.int64)
    for d in range(1, math.isqrt(n) + 1):  # each divisor pair d < k/d, and d = k/d
        t[d * d] += 1
        t[d * (d + 1)::d] += 2
    return t


# OpenBLAS multiplies a matrix by a vector on one thread below 9216 entries,
# and two matrices on one thread up to m n k = 2^18 multiply-adds.  Above
# that a second thread may take part of a long sum, and the bits then depend
# on the thread count.
_ONE_THREAD_GEMV = 9216
_ONE_THREAD_GEMM = 1 << 18


def fixed_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for a real (m, k) matrix a and a real (k,) or (k, n) b, or a
    complex (k,) b, with the same bits under any OpenBLAS thread count.

    The inner axis is summed in blocks that OpenBLAS multiplies on one
    thread, in a fixed order.  A complex b is two real products: no complex
    copy of a, and no two-column GEMM, whose packing buffer stays resident.
    """
    if np.iscomplexobj(b):
        re, im = (fixed_matmul(a, np.ascontiguousarray(part)) for part in (b.real, b.imag))
        return re + 1j * im
    m, k = a.shape
    n = 1 if b.ndim == 1 else b.shape[1]
    # numpy hands a product with one row or one column to GEMV
    size = max(1, ((_ONE_THREAD_GEMV - 1) if min(m, n) == 1 else _ONE_THREAD_GEMM) // max(1, m * n))
    out = a[:, :size] @ b[:size]
    for lo in range(size, k, size):
        out += a[:, lo:lo + size] @ b[lo:lo + size]
    return out
