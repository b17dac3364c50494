"""Reference computations the benchmark checks the package against.

Nothing here imports lfmoments.  Each function reaches its answer by a
route the package does not take: closed formulas, exact rational
arithmetic, enumeration, or mpmath.

- genus: the genus of X_0(q) from Legendre symbols.
- hurwitz_class_number: H(D) by enumerating reduced binary quadratic forms.
- eichler_selberg_trace: Tr T_n on S_2(Gamma_0(q)), q prime (Cohen's form of
  the Eichler-Selberg trace formula).
- hecke_lambda: lambda_f(n) for small n from the prime values of a cache.
- central_value: L(1/2, f) by the exponentially smoothed series.
- l_values_mpmath: L(1/2+it, f) by the incomplete-gamma AFE in mpmath.
- mellin_two_line_mpmath: the residue sum between Re u = 2 and Re u = -0.4 of
  the moment integrands, by mpmath quadrature with mpmath's zeta and gamma.
- tau_square_closed_mpmath: zeta(s)^3 / zeta(2s) times the stated factor.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import mpmath as mp


def _legendre(a: int, q: int) -> int:
    r = pow(a % q, (q - 1) // 2, q)
    return -1 if r == q - 1 else r


def genus(q: int) -> int:
    """Genus of X_0(q) for a prime q >= 5: (q+1)/12 - nu2/4 - nu3/3."""
    nu2 = 1 + _legendre(-1, q)
    nu3 = 1 + _legendre(-3, q)
    g = Fraction(q + 1, 12) - Fraction(nu2, 4) - Fraction(nu3, 3)
    if g.denominator != 1:
        raise ValueError(f"genus not integral at q={q}")
    return int(g)


@lru_cache(maxsize=None)
def hurwitz_class_number(d: int) -> Fraction:
    """H(D) for D >= 0: reduced forms of discriminant -D, non-primitive ones
    included, with weights 1/2 and 1/3 on multiples of x^2+y^2 and x^2+xy+y^2.
    H(0) = -1/12."""
    if d == 0:
        return Fraction(-1, 12)
    if d % 4 in (1, 2):
        return Fraction(0)
    total = Fraction(0)
    a = 1
    while 3 * a * a <= d:
        for b in range(-a + 1, a + 1):
            if (b * b + d) % (4 * a):
                continue
            c = (b * b + d) // (4 * a)
            if c < a or (c == a and b < 0):
                continue
            if b == 0 and a == c:
                total += Fraction(1, 2)
            elif b == a == c:
                total += Fraction(1, 3)
            else:
                total += 1
        a += 1
    return total


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def eichler_selberg_trace(n: int, q: int) -> Fraction:
    """Classical Tr T_n on S_2(Gamma_0(q)) for a prime q, exactly.

    Tr T_n = -1/2 sum_{t^2 <= 4n} c(t) - 1/2 sum_{dd'=n} min(d,d')([q!|d] + [q!|d'])
             + sum_{d|n, q!|(n/d)} d,
    with c(t) built from Hurwitz class numbers of 4n - t^2 and the root counts
    of x^2 - t x + n modulo q and q^2.
    """
    total = Fraction(0)
    tmax = math.isqrt(4 * n)
    for t in range(-tmax, tmax + 1):
        disc = 4 * n - t * t
        if disc == 0:
            root = math.isqrt(n)
            c = (q + 1) * hurwitz_class_number(0) if root % q else Fraction(0)
        else:
            h_full = hurwitz_class_number(disc)
            h_q = hurwitz_class_number(disc // (q * q)) if disc % (q * q) == 0 else Fraction(0)
            m1 = sum(1 for x in range(1, q) if (x * x - t * x + n) % q == 0)
            c = (h_full - h_q) * m1
            if h_q:
                m2 = sum(1 for x in range(q * q) if x % q and (x * x - t * x + n) % (q * q) == 0)
                c += h_q * Fraction(q + 1, q) * m2
        total -= c / 2
    for d in _divisors(n):
        e = n // d
        total -= Fraction(min(d, e) * ((d % q != 0) + (e % q != 0)), 2)
        if e % q:
            total += d
    return total


def hecke_lambda(prime_lambda: dict[int, float], q: int, n: int) -> float:
    """lambda_f(n) from prime values: lambda(p^e) = lambda(p) lambda(p^{e-1}) -
    lambda(p^{e-2}) for p != q, lambda(q^e) = lambda(q)^e, multiplicative."""
    out = 1.0
    m = n
    p = 2
    while m > 1:
        if p * p > m:
            p = m
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        if e:
            lp = prime_lambda[p]
            if p == q:
                out *= lp ** e
            else:
                prev, cur = 1.0, lp
                for _ in range(e - 1):
                    prev, cur = cur, lp * cur - prev
                out *= cur
        p += 1
    return out


def central_value(lam: list[float], sign: int, q: int) -> float:
    """L(1/2, f) = (1 + eps) sum_n lambda(n) n^{-1/2} exp(-2 pi n / sqrt(q)).

    lam[n] is lambda_f(n) for n = 1..len(lam)-1; the terms must have decayed
    below double precision by the end of the list.
    """
    acc = math.fsum(
        lam[n] / math.sqrt(n) * math.exp(-2.0 * math.pi * n / math.sqrt(q))
        for n in range(1, len(lam))
    )
    return (1 + sign) * acc


def afe_terms(q: int) -> int:
    """Terms the incomplete-gamma AFE needs: exp(-2 pi n / sqrt q) < 1e-19."""
    return math.ceil(44.0 * math.sqrt(q) / (2.0 * math.pi))


def l_values_mpmath(lams: list[list[float]], signs: list[int], q: int, t: float) -> list[complex]:
    """L(1/2+it, f) for each form by the classical incomplete-gamma AFE.

    Lambda(s) = (sqrt q / 2 pi)^s Gamma(s+1/2) L(s) = eps Lambda(1-s), and
    Lambda(s) = (2 pi/sqrt q)^{1/2} sum_n lambda(n) sqrt(n)
                [c^{-(s+1/2)} Gamma(s+1/2, c) + eps c^{s-3/2} Gamma(3/2-s, c)],
    c = 2 pi n / sqrt q.  The incomplete gammas are shared by every form.
    """
    with mp.workdps(20):
        s = mp.mpf(0.5) + 1j * mp.mpf(t)
        m = afe_terms(q)
        first, second = [], []
        for n in range(1, m + 1):
            c = 2 * mp.pi * n / mp.sqrt(q)
            first.append(mp.sqrt(n) * c ** (-(s + 0.5)) * mp.gammainc(s + 0.5, c))
            second.append(mp.sqrt(n) * c ** (s - 1.5) * mp.gammainc(1.5 - s, c))
        norm = mp.sqrt(2 * mp.pi / mp.sqrt(q)) / ((mp.sqrt(q) / (2 * mp.pi)) ** s * mp.gamma(s + 0.5))
        out = []
        for lam, eps in zip(lams, signs):
            acc = mp.fsum(lam[n] * (first[n - 1] + eps * second[n - 1]) for n in range(1, m + 1))
            out.append(complex(norm * acc))
        return out


_FOUR_PI_SQ = 4 * mp.pi ** 2


def _mellin_integrand_mp(kind: str, p: int, q: int, t: float, u):
    it = 1j * mp.mpf(t)
    s1 = 1 + 2 * it + 2 * u
    s2 = 2 + 2 * it + 2 * u
    s4 = 4 + 4 * it + 4 * u
    base = (1 - mp.power(q, -s1)) * mp.zeta(s1) * mp.zeta(s2) ** 3 / mp.zeta(s4)
    pp = mp.power(p, -s2)
    if kind == "M22":
        body = 2 * base / (1 + pp) * mp.power(_FOUR_PI_SQ * p / q, -u)
    elif kind == "Delta1":
        body = base * mp.power(_FOUR_PI_SQ / q, -u)
    elif kind == "Delta3":
        body = base * (3 - pp) / (1 + pp) * mp.power(_FOUR_PI_SQ * p * p / q, -u)
    else:
        raise ValueError(f"unknown kind {kind}")
    return body * mp.gamma(1 + it + u) ** 2 * mp.exp(u * u) / u


def mellin_two_line_mpmath(kind: str, p: int, q: int, t: float) -> complex:
    """(1/2 pi i) of the kind's integrand on Re u = 2 minus on Re u = -0.4.

    The e^{u^2} factor makes |v| <= 9 enough for 1e-20 of the line integrals.
    Gauss-Legendre panels meet at v = -t, nearest the zeta(2+2it+2u) pole.
    """
    with mp.workdps(15):
        def line(sigma):
            f = lambda v: _mellin_integrand_mp(kind, p, q, t, mp.mpc(sigma, v))
            return mp.quad(f, sorted({-9.0, -t - 1.0, -t, -t + 1.0, 9.0}),
                           method="gauss-legendre") / (2 * mp.pi)
        return complex(line(2) - line(mp.mpf(-0.4)))


def tau_square_closed_mpmath(kind: str, p: int, s: complex) -> complex:
    """zeta(s)^3/zeta(2s) times 1, 2/(1+p^{-s}) or (3-p^{-s})/(1+p^{-s})."""
    with mp.workdps(25):
        s = mp.mpc(s)
        base = mp.zeta(s) ** 3 / mp.zeta(2 * s)
        ps = mp.power(p, -s)
        factor = {"plain": 1, "p": 2 / (1 + ps), "p2": (3 - ps) / (1 + ps)}[kind]
        return complex(base * factor)


def tau_square_tail_bound(limit: int, sigma: float) -> float:
    """Upper bound on sum_{l > L} tau(c l^2) l^{-sigma} for c | p^2.

    tau(c l^2) <= 3 tau(l)^2, and sum_{l <= x} tau(l)^2 ~ x (log x)^3 / pi^2
    puts sum_{l > L} tau(l)^2 l^{-sigma} near sigma (log L)^3 L^{1-sigma} /
    (pi^2 (sigma - 1)); dropping sigma / pi^2 leaves a margin for sigma <= 3.
    """
    return 3.0 * math.log(limit) ** 3 * limit ** (1.0 - sigma) / (sigma - 1.0)
