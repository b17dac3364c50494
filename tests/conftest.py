import cmath
import math

import numpy as np
import pytest
from scipy.special import gamma

from lfmoments import heckespace as hs
from lfmoments.special import divisor_sieve

# Session-wide eigendata, sized for the most demanding consumer of each level:
# q=11: eta-product comparisons to 2048 and tol=5e-7 AFE work
# q=37: reconstruction at (3, 37, 0.5) needs 3 * afe_cutoff(37, 0.5, 1e-6)
# q=101: cross-route at tol=5e-7 and trace route at (2, 101, 0)
_N_MAX = {11: 8192, 37: 16384, 101: 16384}


@pytest.fixture(scope="session")
def eigen_cache():
    built = {}

    def get(q: int, n_max: int | None = None):
        target = max(n_max or 0, _N_MAX.get(q, 1024))
        if q in built:
            space, tables = built[q]
            if not tables or tables[0].n_max >= target:
                return space, tables
        space = hs.build_space(q)
        tables = hs.eigen_split(space, seed=0)
        tables = hs.extend_prime_eigenvalues(space, tables, target)
        built[q] = (space, tables)
        return space, tables

    return get


@pytest.fixture(scope="session")
def eigen11(eigen_cache):
    return eigen_cache(11)


@pytest.fixture(scope="session")
def eigen37(eigen_cache):
    return eigen_cache(37)


@pytest.fixture(scope="session")
def eigen101(eigen_cache):
    return eigen_cache(101)


def eta_level11_coefficients(n_max: int) -> np.ndarray:
    """Classical a_n of the level-11 weight-2 newform from its eta product.

    q prod (1-q^n)^2 (1-q^{11n})^2, exact integer power-series arithmetic;
    independent of every modular-symbols computation in the package.
    """
    c = np.zeros(n_max, dtype=np.int64)
    c[0] = 1
    for n in range(1, n_max):
        for _ in range(2):
            c[n:] -= c[:-n].copy()
        m = 11 * n
        if m < n_max:
            for _ in range(2):
                c[m:] -= c[:-m].copy()
    a = np.zeros(n_max + 1, dtype=np.int64)
    a[1:] = c[:n_max]
    return a


def count_affine_points(a1, a2, a3, a4, a6, p) -> int:
    """Brute-force #E(F_p) for a Weierstrass curve, including infinity."""
    cnt = 1
    for x in range(p):
        rhs = (x * x * x + a2 * x * x + a4 * x + a6) % p
        for y in range(p):
            if (y * y + a1 * x * y + a3 * y - rhs) % p == 0:
                cnt += 1
    return cnt


def lattice_sum_by_d(coeff: np.ndarray, t: float, q: int, n_cutoff: int, w: np.ndarray) -> complex:
    """The AFE lattice sum one d at a time, with coeff[n] in place of lambda_f(n):

    S = sum_{d^2 <= N, (d,q)=1} d^{-1-2it} sum_{n <= N/d^2} tau(n) coeff[n] n^{-1/2-it} W_t(n d^2),

    w[k-1] = W_t(4 pi^2 k / q).  The oracle for the shared AFE weight vector.
    """
    n = np.arange(1, n_cutoff + 1, dtype=np.float64)
    c = divisor_sieve(n_cutoff)[1:] * coeff[1:n_cutoff + 1] * np.exp((-0.5 - 1j * t) * np.log(n))
    acc = 0.0 + 0.0j
    d = 1
    while d * d <= n_cutoff:
        if d % q != 0:
            m = n_cutoff // (d * d)
            inner = np.dot(c[:m], w[d * d * np.arange(1, m + 1) - 1])
            acc += inner * cmath.exp((-1.0 - 2j * t) * math.log(d))
        d += 1
    return acc


def assert_nested_nodes(nodes: list[np.ndarray]) -> None:
    """The nodes one line quadrature evaluated, call by call, are distinct and
    together make one uniform grid: its finest grid, each node evaluated once."""
    v = np.sort(np.concatenate(nodes).imag)
    assert np.all(np.diff(v) > 0)
    assert np.allclose(np.diff(v), v[1] - v[0], rtol=0, atol=1e-12)


def wt_fixed_step(t: float, ys: np.ndarray, sigma: float = 2.0, h: float = 0.0125,
                  halfwidth: float = 8.0) -> np.ndarray:
    """W_t(Y) by one plain trapezoid at the fixed step h on Re u = sigma, |Im u| <= halfwidth:

    (h/2pi) sum_k Y^{-u_k} Gamma(1+it+u_k)^2 e^{u_k^2}/u_k, u_k = sigma + ikh.

    No refinement and no node reuse; scipy's gamma.  The oracle for the kernel grid.
    """
    n = math.ceil(halfwidth / h)
    u = sigma + 1j * h * np.arange(-n, n + 1)
    g = gamma(1.0 + 1j * t + u)
    coeff = h / (2.0 * math.pi) * g * g * np.exp(u * u) / u
    ln_y = np.log(ys)
    return np.concatenate([np.exp(-np.multiply.outer(ln_y[lo:lo + 256], u)) @ coeff
                           for lo in range(0, ln_y.size, 256)])


def afe_assemble(s: complex, q: int, t: float) -> complex:
    """Gamma(1+it)^{-2} [S + (q/4pi^2)^{-2it} conj(S)], which is 2 Re S at t = 0."""
    if t == 0.0:
        return complex(2.0 * s.real)
    rot = cmath.exp(-2j * t * math.log(q / (4.0 * math.pi ** 2)))
    return (s + rot * s.conjugate()) / gamma(1.0 + 1j * t) ** 2


def delta23_by_d(p: int, q: int, t: float, n_cutoff: int, w: np.ndarray) -> tuple[complex, complex]:
    """(Delta_2, Delta_3) one lattice point at a time, w[k-1] = W_t(4 pi^2 k / q).

    Delta_2 sums tau(n) n^{-1-it} d^{-1-2it} W_t(n d^2) over squares n with
    p | n; Delta_3 sums tau(m p^2) m^{-1-it} d^{-1-2it} W_t(m p^2 d^2) over
    squares m, over p^{1+2it}.  The oracle for the blocks read off V.
    """
    it = 1j * t
    tau = divisor_sieve(n_cutoff)

    def d_sum(kmax: int) -> list[int]:
        return [d for d in range(1, math.isqrt(kmax) + 1) if d % q != 0]

    acc2 = 0.0 + 0.0j
    roots = np.arange(1, math.isqrt(n_cutoff) + 1)
    squares = roots * roots
    for nn in squares[squares % p == 0].tolist():
        for d in d_sum(n_cutoff // nn):
            acc2 += (
                float(tau[nn])
                * cmath.exp((-1.0 - it) * math.log(nn))
                * cmath.exp((-1.0 - 2j * t) * math.log(d))
                * w[nn * d * d - 1]
            )
    acc3 = 0.0 + 0.0j
    for rr in roots.tolist():
        m = rr * rr
        if m * p * p > n_cutoff:
            break
        alpha = 0
        mm = m
        while mm % p == 0:
            alpha += 1
            mm //= p
        tau_mp2 = (alpha + 3) * int(tau[mm])
        for d in d_sum(n_cutoff // (m * p * p)):
            acc3 += (
                float(tau_mp2)
                * cmath.exp((-1.0 - it) * math.log(m))
                * cmath.exp((-1.0 - 2j * t) * math.log(d))
                * w[m * p * p * d * d - 1]
            )
    return q / 12.0 * acc2, q / (12.0 * p ** (1.0 + 2.0 * it)) * acc3
