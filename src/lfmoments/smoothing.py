"""The smoothing kernel of the squared-L approximate functional equation.

The kernel is the vertical-line Mellin integral

    W_t(Y) = (1/2 pi i) int_{Re u = sigma} Y^{-u} Gamma(1+it+u)^2 e^{u^2} du/u,

independent of sigma on 0 < Re u < infinity.  The e^{u^2} factor makes the
integrand decay like e^{sigma^2 - v^2} along u = sigma + iv, so the plain
trapezoid rule converges superexponentially in the truncation half-width,
and exponentially in the step: with the integrand analytic within dist of
the line, the error is about e^{-2 pi dist/h} (Trefethen and Weideman,
SIAM Review 2014).

Numerical routing: the integrand magnitude scales like Y^{-sigma}, so for
small Y a large abscissa loses the answer to float cancellation.  wt_eval
therefore clamps the working abscissa to the largest roundoff-safe value
not exceeding the requested one (floor 0.3); the mathematical value is
unchanged.  wt_eval_shifted takes the genuinely different route through
the residue at u = 0 plus the integral on Re u = -0.9, and the agreement
of the two routes is a standing cross-check.

truncation_cutoff converts the kernel's superexponential decay into the
lattice cutoff used by every downstream n,d-sum.  halving_quad is the one
vertical-line trapezoid, for this kernel and the Mellin lines of moments:
callers give a node sum and the distance from their line to the nearest
singularity, and it lays out the nodes, starts at the step that bound
asks for, and halves the step on new midpoints only until two successive
values agree.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from .special import gamma, gamma_vec

__all__ = [
    "KernelParams",
    "QuadratureError",
    "halving_quad",
    "wt_eval",
    "wt_eval_shifted",
    "wt_grid",
    "truncation_cutoff",
]

_SIGMA_FLOOR = 0.3
_QUAD_HALFWIDTH = 8.0  # keeps the discarded line tail below e^{sigma^2 - 64}
_SHIFTED_ABSCISSA = -0.9  # the -1+eps line with eps = 0.1


class QuadratureError(RuntimeError):
    """Contour quadrature failed its self-consistency (refinement) check."""


@dataclass(frozen=True)
class KernelParams:
    """Quadrature parameters for W_t."""

    t: float = 0.0
    tol: float = 1e-8
    contour_abscissa: float = 2.0

    def __post_init__(self):
        if not (0.0 < self.tol <= 1e-4):
            raise ValueError(f"tol must be in (0, 1e-4], got {self.tol}")
        if self.contour_abscissa <= 0.0:
            raise ValueError("contour_abscissa must be positive")


def _safe_abscissa(y: np.ndarray, requested: float, tol: float) -> np.ndarray:
    """Largest abscissa <= requested keeping Y^{-sigma} e^{sigma^2} within
    the float budget (node magnitude * 1e-15 <= tol/20), for each Y in y."""
    budget = math.log(tol) + math.log(1e15) - math.log(20.0)
    ln_y = np.log(y)
    # need sigma^2 - sigma*ln_y <= budget; take the positive root
    disc = ln_y * ln_y + 4.0 * budget
    root = 0.5 * (ln_y + np.sqrt(np.maximum(disc, 0.0)))
    return np.where(disc <= 0.0, _SIGMA_FLOOR, np.minimum(requested, np.maximum(_SIGMA_FLOOR, root)))


def halving_quad(node_sum: Callable[[np.ndarray], np.ndarray | complex], sigma: float, dist: float,
                 halfwidth: float, tol: float, what: str) -> np.ndarray | complex:
    """(1/2 pi) times the trapezoid sum of f over u = sigma + ikh, |kh| <= halfwidth.

    node_sum(u) returns the sum of f over the nodes u.  The integrand is
    analytic within dist of the line, so the start step follows the strip
    bound e^{-2 pi dist/h}; each of up to 3 halvings evaluates only the new
    midpoints, T(h/2) = T(h)/2 + (h/2) sum f(midpoints), until two successive
    values differ by at most tol/10 everywhere; else QuadratureError.
    """
    h = min(0.5, 2.0 * math.pi * dist / (math.log(10.0 / tol) + 6.0))
    n = math.ceil(halfwidth / h)
    total = node_sum(sigma + 1j * h * np.arange(-n, n + 1, dtype=np.float64))
    prev = total * (h / (2.0 * math.pi))
    for _ in range(3):
        total = total + node_sum(sigma + 1j * h * (np.arange(-n, n, dtype=np.float64) + 0.5))
        h *= 0.5
        n *= 2
        cur = total * (h / (2.0 * math.pi))
        if float(np.max(np.abs(cur - prev))) <= tol * 0.1:
            return cur
        prev = cur
    raise QuadratureError(f"{what} did not stabilize at tol={tol}")


def _kernel_node_sum(t: float, ln_y: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Sum over the nodes u of the W_t integrand Y^{-u} Gamma(1+it+u)^2 e^{u^2}/u, for each log Y."""
    g = gamma_vec(1.0 + 1j * t + u)
    coeff = g * g * np.exp(u * u) / u
    out = np.empty(ln_y.shape, dtype=np.complex128)
    # Blocks under 4096 elements (64 KB), which OpenBLAS multiplies on one
    # thread.  Against 4 MB blocks, six grid misses at q=101 grew peak RSS by
    # 0.2-0.4 MB, not 6.1 MB, at the same speed, and two such processes on two
    # cores no longer slow each other 3x through their BLAS threads.  A row's
    # bits do not depend on its block, except that BLAS rounds a one-row block
    # apart, so a lone last row joins the block before it.
    step = max(2, 4095 // u.size)
    edges = [*range(0, max(1, ln_y.size - 1), step), ln_y.size]
    for lo, hi in zip(edges[:-1], edges[1:]):
        e = np.multiply.outer(-ln_y[lo:hi], u)
        np.exp(e, out=e)  # in place: one block live, not two
        out[lo:hi] = e @ coeff
    return out


def _refined_line_quad(t: float, ys: np.ndarray, sigma: float, params: KernelParams) -> np.ndarray:
    """The W_t line integral on Re u = sigma by halving_quad.  The nearest
    singularity is the 1/u pole for sigma > 0, else the Gamma(1+it+u) pole."""
    ln_y = np.log(ys)
    return halving_quad(lambda u: _kernel_node_sum(t, ln_y, u), sigma,
                        sigma if sigma > 0.0 else sigma + 1.0, max(_QUAD_HALFWIDTH, abs(t) + 6.0),
                        params.tol, f"kernel quadrature (t={t}, sigma={sigma})")


def wt_eval(params: KernelParams, y: float) -> complex:
    """W_t(Y) by trapezoid quadrature on a vertical line in Re u > 0."""
    if y <= 0.0:
        raise ValueError(f"wt_eval requires Y > 0, got {y}")
    ys = np.array([y])
    sigma = float(_safe_abscissa(ys, params.contour_abscissa, params.tol)[0])
    return complex(_refined_line_quad(params.t, ys, sigma, params)[0])


def wt_eval_shifted(params: KernelParams, y: float) -> complex:
    """W_t(Y) as residue at u=0 plus the integral on Re u = -0.9.

    Valid for all Y > 0 (intended regime 0 < Y <= 1); must agree with
    wt_eval to the combined quadrature tolerance.
    """
    if y <= 0.0:
        raise ValueError(f"wt_eval_shifted requires Y > 0, got {y}")
    g1 = gamma(1.0 + 1j * params.t)
    residue = g1 * g1
    val = _refined_line_quad(params.t, np.array([y]), _SHIFTED_ABSCISSA, params)
    return complex(residue + val[0])


def wt_grid(t: float, ys: np.ndarray, params: KernelParams | None = None) -> np.ndarray:
    """Vectorized W_t over an array of Y > 0.

    Y values are bucketed by their roundoff-safe abscissa so a shared node
    set can be reused within each bucket.
    """
    if params is None:
        params = KernelParams(t=t)
    elif params.t != t:
        params = replace(params, t=t)
    ys = np.asarray(ys, dtype=np.float64)
    if np.any(ys <= 0.0):
        raise ValueError("wt_grid requires all Y > 0")
    out = np.empty(ys.shape, dtype=np.complex128)
    flat_y = ys.reshape(-1)
    flat_out = out.reshape(-1)
    sig = _safe_abscissa(flat_y, params.contour_abscissa, params.tol)
    levels = np.array(sorted({_SIGMA_FLOOR, 0.6, 1.0, 1.5, params.contour_abscissa}))
    quant = levels[np.clip(np.searchsorted(levels, sig, side="right") - 1, 0, len(levels) - 1)]
    for level in levels:  # not np.unique, which loads numpy.ma on its first call
        mask = quant == level
        if mask.any():
            flat_out[mask] = _refined_line_quad(t, flat_y[mask], float(level), params)
    return out


def truncation_cutoff(q: int, scale: int, tol: float) -> int:
    """Lattice cutoff N for sums weighted by W_t(4 pi^2 k * scale / q).

    The kernel decays like exp(-(log Y)^2/4) (quasi-polynomially; see the
    large-Y notes in the module docstring), so the cutoff solves
    (log Y)^2/4 - a log Y ~ log(sqrt(q*scale)/tol) for the argument
    Y = 4 pi^2 N/(q*scale), with constants calibrated against measured
    truncation-error profiles of the squared-L sums.  N is rounded up to a
    power of two; doubling N must leave downstream sums unchanged at tol,
    and tests enforce that validation.
    """
    if not (0.0 < tol <= 1e-4):
        raise ValueError(f"tol must be in (0, 1e-4], got {tol}")
    if q < 2 or scale < 1:
        raise ValueError("q >= 2 and scale >= 1 required")
    m_req = math.log(4.0 / tol) + 0.5 * math.log(q * scale) - 15.0
    # hard floor log Y* >= 6.9: the calibration only covers the fast-decay
    # regime, and shallower cutoffs leave percent-level kernel mass behind
    ln_y = max(3.3 + 2.0 * math.sqrt(max(0.3, 2.72 + m_req)), 6.9)
    n = max(32, math.ceil(q * scale / (4.0 * math.pi ** 2) * math.exp(ln_y)))
    return 1 << max(0, (int(n) - 1).bit_length())
