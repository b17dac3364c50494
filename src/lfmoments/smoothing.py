"""The smoothing kernel of the squared-L approximate functional equation.

The kernel is the vertical-line Mellin integral

    W_t(Y) = (1/2 pi i) int_{Re u = sigma} Y^{-u} Gamma(1+it+u)^2 e^{u^2} du/u,

independent of sigma on 0 < Re u < infinity.  The e^{u^2} factor makes the
integrand decay like e^{sigma^2 - v^2} along u = sigma + iv, so the plain
trapezoid rule converges superexponentially in both the step and the
truncation half-width.

Numerical routing: the integrand magnitude scales like Y^{-sigma}, so for
small Y a large abscissa loses the answer to float cancellation.  wt_eval
therefore clamps the working abscissa to the largest roundoff-safe value
not exceeding the requested one (floor 0.3); the mathematical value is
unchanged.  wt_eval_shifted takes the genuinely different route through
the residue at u = 0 plus the integral on Re u = -0.9, and the agreement
of the two routes is a standing cross-check.

truncation_cutoff converts the kernel's superexponential decay into the
lattice cutoff used by every downstream n,d-sum.  halving_quad is the one
step-halving self-check of every vertical-line quadrature: this kernel's
and the Mellin lines of moments.
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
_QUAD_STEP = 0.05
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


def _safe_abscissa(y: float, requested: float, tol: float) -> float:
    """Largest abscissa <= requested keeping Y^{-sigma} e^{sigma^2} within
    the float budget (node magnitude * 1e-15 <= tol/20)."""
    budget = math.log(tol) + math.log(1e15) - math.log(20.0)
    ln_y = math.log(y)
    # need sigma^2 - sigma*ln_y <= budget; take the positive root
    disc = ln_y * ln_y + 4.0 * budget
    if disc <= 0.0:
        return _SIGMA_FLOOR
    root = 0.5 * (ln_y + math.sqrt(disc))
    return min(requested, max(_SIGMA_FLOOR, root))


def _line_quad(t: float, ys: np.ndarray, sigma: float, step: float, halfwidth: float) -> np.ndarray:
    """Trapezoid values of the W_t integrand line integral at each Y in ys.

    Returns the integral over Re u = sigma, |Im u| <= halfwidth, including
    the 1/(2 pi) normalization.
    """
    n = int(math.ceil(halfwidth / step))
    v = np.arange(-n, n + 1, dtype=np.float64) * step
    u = sigma + 1j * v
    g = gamma_vec(1.0 + 1j * t + u)
    coeff = (step / (2.0 * math.pi)) * g * g * np.exp(u * u) / u
    ln_y = np.log(ys)
    out = np.empty(ys.shape, dtype=np.complex128)
    chunk = max(1, 250_000 // u.size)  # 4 MB blocks; larger ones are no faster
    for lo in range(0, ys.size, chunk):
        e = np.multiply.outer(-ln_y[lo:lo + chunk], u)
        np.exp(e, out=e)  # in place: one 4 MB block live, not two
        out[lo:lo + chunk] = e @ coeff
    return out


def halving_quad(quad: Callable[[float], np.ndarray | complex], step: float, tol: float,
                 what: str) -> np.ndarray | complex:
    """quad(step), then quad at up to 3 halvings of the step, until two
    successive values differ by at most tol/10 everywhere; else QuadratureError."""
    prev = quad(step)
    for _ in range(3):
        step *= 0.5
        cur = quad(step)
        if float(np.max(np.abs(cur - prev))) <= tol * 0.1:
            return cur
        prev = cur
    raise QuadratureError(f"{what} did not stabilize at tol={tol}")


def _refined_line_quad(t: float, ys: np.ndarray, sigma: float, params: KernelParams) -> np.ndarray:
    """The W_t line integral on Re u = sigma, refined by halving_quad."""
    halfwidth = max(_QUAD_HALFWIDTH, abs(t) + 6.0)
    return halving_quad(lambda step: _line_quad(t, ys, sigma, step, halfwidth), _QUAD_STEP,
                        params.tol, f"kernel quadrature (t={t}, sigma={sigma})")


def wt_eval(params: KernelParams, y: float) -> complex:
    """W_t(Y) by trapezoid quadrature on a vertical line in Re u > 0."""
    if y <= 0.0:
        raise ValueError(f"wt_eval requires Y > 0, got {y}")
    sigma = _safe_abscissa(y, params.contour_abscissa, params.tol)
    val = _refined_line_quad(params.t, np.array([y]), sigma, params)
    return complex(val[0])


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
    sig = np.array([_safe_abscissa(float(v), params.contour_abscissa, params.tol) for v in flat_y])
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
