"""Self-check suites behind the verify subcommand.

Each suite re-runs the module's invariants on a small grid sized so that
the full run stays comfortably inside a desktop-core half hour.  Checks
return data; the CLI turns failures into the exit status.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from . import heckespace as hs
from . import moments as mo
from . import smoothing as sm
from . import special as sp
from .harness import get_eigendata
from .lvalue import afe_cutoff, l_central_oracle, l_squared_afe, l_squared_many

__all__ = ["Check", "run_suite", "SUITE_NAMES"]

SUITE_NAMES = ("special", "smoothing", "hecke", "lvalue", "moments", "all")


@dataclass
class Check:
    name: str
    passed: bool
    detail: str = ""


def _check(results: list[Check], name: str, passed: bool, detail: str = "") -> None:
    results.append(Check(name=name, passed=bool(passed), detail=detail))


def verify_special(seed: int = 0) -> list[Check]:
    rng = np.random.default_rng(seed)
    out: list[Check] = []

    worst = 0.0
    for _ in range(100):
        s = complex(rng.uniform(0.05, 10.0), rng.uniform(-20.0, 20.0))
        worst = max(worst, abs(sp.gamma(s + 1) / sp.gamma(s) - s))
    _check(out, "gamma functional equation", worst < 1e-10, f"worst |G(s+1)/G(s)-s| = {worst:.2e}")

    worst = 0.0
    for _ in range(50):
        s = complex(rng.uniform(-0.5, 10.0), rng.uniform(-30.0, 30.0))
        worst = max(worst, abs(sp.gamma(s.conjugate()) - sp.gamma(s).conjugate()))
        if abs(s - 1) > 0.5:
            worst = max(worst, abs(sp.zeta(s.conjugate()) - sp.zeta(s).conjugate()))
    _check(out, "conjugation symmetry", worst < 1e-12, f"worst = {worst:.2e}")

    prod = 1.0
    for p in sp.primes_up_to(100_000).tolist():
        prod /= 1.0 - p ** -3.0
    diff = abs(complex(sp.zeta(3.0)).real - prod)
    _check(out, "euler product at s=3", diff < 1e-4, f"|zeta(3)-product| = {diff:.2e}")

    ok = True
    for _ in range(1000):
        a = int(rng.integers(1, 2000))
        b = int(rng.integers(1, 2000))
        if math.gcd(a, b) == 1 and sp.divisor_count(a * b) != sp.divisor_count(a) * sp.divisor_count(b):
            ok = False
            break
    _check(out, "divisor_count multiplicative", ok)

    z2 = complex(sp.zeta(2.0)).real
    z4 = complex(sp.zeta(4.0)).real
    _check(out, "zeta(2), zeta(4) closed values",
           abs(z2 - math.pi ** 2 / 6) < 1e-12 and abs(z4 - math.pi ** 4 / 90) < 1e-12)

    lo = sp.zeta_log_deriv(2.0)
    h = 1e-5
    fd = (math.log(abs(complex(sp.zeta(2.0 + h)).real))
          - math.log(abs(complex(sp.zeta(2.0 - h)).real))) / (2 * h)
    _check(out, "zeta'/zeta two-route (EM vs finite difference)", abs(lo - fd) < 1e-8,
           f"|diff| = {abs(lo - fd):.2e}")
    vm = sp.von_mangoldt_log_deriv(2.0, 300_000)
    _check(out, "zeta'/zeta two-route (EM vs von Mangoldt)", abs(lo - vm) < 1e-7,
           f"|diff| = {abs(lo - vm):.2e}")
    _check(out, "zeta'/zeta decay at s=30", abs(sp.zeta_log_deriv(30.0)) < 1e-8)

    _check(out, "prime count to 1e6", len(sp.primes_up_to(1_000_000)) == 78498)
    return out


def verify_smoothing(seed: int = 0) -> list[Check]:
    rng = np.random.default_rng(seed)
    out: list[Check] = []
    params = sm.KernelParams(t=0.0, tol=1e-8)

    ys = np.geomspace(1e-6, 0.1, 25)
    g2 = 1.0
    ratios = np.array([abs(sm.wt_eval(params, float(y)) - g2) / y ** 0.9 for y in ys])
    k_fit = 2.0 * float(np.max(ratios[: len(ratios) // 2]))
    _check(out, "small-Y law |W0(Y)-1| <= K Y^0.9", bool(np.all(ratios <= max(k_fit, 1e-12))),
           f"fitted K = {k_fit:.3f}")

    ok = True
    worst = ""
    for y in (100.0, 200.0, 400.0, 800.0):
        w = abs(sm.wt_eval(params, y))
        bound = -math.log(y) ** 2 / 4.0 + 1.0
        if math.log(w) > bound:
            ok = False
            worst = f"log|W0({y})| = {math.log(w):.2f} > {bound:.2f}"
    _check(out, "large-Y true decay log|W0| <= -(log Y)^2/4 + 1", ok, worst)

    worst = 0.0
    p2 = sm.KernelParams(t=0.0, tol=1e-8, contour_abscissa=2.0)
    p3 = sm.KernelParams(t=0.0, tol=1e-8, contour_abscissa=3.0)
    for _ in range(50):
        t = float(rng.uniform(-2, 2))
        y = float(np.exp(rng.uniform(np.log(1e-6), np.log(50.0))))
        a = sm.wt_eval(sm.KernelParams(t=t, tol=1e-8, contour_abscissa=2.0), y)
        b = sm.wt_eval(sm.KernelParams(t=t, tol=1e-8, contour_abscissa=3.0), y)
        worst = max(worst, abs(a - b))
    _check(out, "abscissa independence 2.0 vs 3.0", worst <= 2e-8, f"worst = {worst:.2e}")

    worst = 0.0
    for _ in range(25):
        t = float(rng.uniform(-2, 2))
        y = float(np.exp(rng.uniform(np.log(1e-4), np.log(30.0))))
        a = sm.wt_eval(sm.KernelParams(t=t, tol=1e-10), y)
        b = sm.wt_eval(sm.KernelParams(t=-t, tol=1e-10), y)
        worst = max(worst, abs(a.conjugate() - b))
    _check(out, "conjugation W_t-bar = W_{-t}", worst <= 1e-10, f"worst = {worst:.2e}")

    worst = 0.0
    for y in (0.03, 0.2, 0.5, 0.9, 1.0):
        a = sm.wt_eval(params, y)
        b = sm.wt_eval_shifted(params, y)
        worst = max(worst, abs(a - b))
    _check(out, "shifted-contour route agreement", worst <= 2e-8, f"worst = {worst:.2e}")

    n1 = sm.truncation_cutoff(101, 1, 1e-6)
    n2 = sm.truncation_cutoff(211, 1, 1e-6)
    n3 = sm.truncation_cutoff(101, 4, 1e-6)
    _check(out, "cutoff monotone in q and scale", n1 <= n2 and n1 <= n3)
    return out


def verify_hecke(seed: int = 0) -> list[Check]:
    rng = np.random.default_rng(seed)
    out: list[Check] = []

    ok = True
    for q in sp.primes_up_to(100).tolist():
        if q < 11:
            continue
        if hs.build_space(q).dim != hs.genus_oracle(q):
            ok = False
    _check(out, "dimension equals genus for 11 <= q <= 100", ok)

    space = hs.build_space(37)
    _check(out, "star involution acts as +1", hs.star_is_identity(space))

    m2 = hs.hecke_matrix(space, 2)
    m3 = hs.hecke_matrix(space, 3)
    g = space.dim
    ab = [[sum(m2[i][k] * m3[k][j] for k in range(g)) for j in range(g)] for i in range(g)]
    ba = [[sum(m3[i][k] * m2[k][j] for k in range(g)) for j in range(g)] for i in range(g)]
    _check(out, "exact commutation T2 T3 = T3 T2 at q=37", ab == ba)

    # the engine's counts on the base symbol (1:v), for every v, against Merel's exact
    # matrices: twice T_ell (1:v) summed over R2 is the int64 gather of _hecke2
    ells, r2 = np.array([7, 11, 13, 37]), space.R2[:, :38]
    twice = {ell: hs._hecke2(space, ell) for ell in ells.tolist()}
    bad = [(ell, v) for v in range(1, 37)
           for ell, counts in zip(ells.tolist(), hs._heilbronn_counts(space, ells, v))
           if not np.array_equal(2 * (r2 @ counts.astype(np.int64)), twice[ell] @ space.R2[:, v])]
    _check(out, "Heilbronn engine equals Merel's T_ell on each (1:v), ell = 7, 11, 13, 37",
           not bad, f"first (ell, v) off: {bad[0]}" if bad else "")

    tables = hs.extend_prime_eigenvalues(space, hs.eigen_split(space, seed), 4096)
    lam = [t.full() for t in tables]
    tau = sp.divisor_sieve(4096)
    deligne = all(bool(np.all(np.abs(l[1:]) <= tau[1:] + 1e-6)) for l in lam)
    _check(out, "Deligne bound on stored eigenvalues", deligne)
    _check(out, "lambda(q)^2 = 1/q",
           all(abs(l[37] ** 2 - 1.0 / 37.0) < 1e-8 for l in lam))

    worst = 0.0
    for _ in range(300):
        m = int(rng.integers(1, 64))
        n = int(rng.integers(1, 4096 // m))
        for l in lam:
            rhs = sum(l[m * n // (d * d)] for d in range(1, math.gcd(m, n) + 1)
                      if m % d == 0 and n % d == 0 and d % 37 != 0)
            worst = max(worst, abs(l[m] * l[n] - rhs))
    _check(out, "Hecke relation on random pairs at q=37", worst < 1e-8, f"worst = {worst:.2e}")

    worst = 0.0
    for n in (2, 3, 5, 7, 11, 13, 17, 19):
        mat = hs.hecke_matrix(space, n)
        tr_exact = float(sum(mat[i][i] for i in range(g))) / math.sqrt(n)
        tr_tab = hs.trace(space, tables, n)
        worst = max(worst, abs(tr_exact - tr_tab))
    _check(out, "two-route traces at q=37", worst < 1e-8, f"worst = {worst:.2e}")

    # the sign-blind AFE: L(1/2)^2 vanishes exactly on the forms of sign -1
    central = [abs(r.value) for r in l_squared_many(tables, 0.0, 1e-6)]
    _check(out, "FE sign -1 exactly where the sign-blind L(1/2)^2 vanishes at q=37",
           all(t.sign in (-1, 1) and (c < 1e-3) == (t.sign == -1)
               for c, t in zip(central, tables)),
           f"signs {[t.sign for t in tables]}, L(1/2)^2 {[f'{c:.2e}' for c in central]}")
    return out


def verify_lvalue(seed: int = 0) -> list[Check]:
    out: list[Check] = []
    tol = 1e-6
    tabs = get_eigendata(11, 2 * afe_cutoff(11, 1.0, tol), seed)

    afe = l_squared_afe(tabs[0], 0.0, tol)
    oracle = l_central_oracle(tabs[0], 1e-9)
    _check(out, "q=11 cross-route L(1/2)^2", abs(afe.value.real - oracle ** 2) < 2e-6,
           f"afe = {afe.value.real:.9f}, oracle^2 = {oracle**2:.9f}")

    flipped = replace(tabs[0], sign=-tabs[0].sign)
    same = l_squared_afe(flipped, 0.5, tol).value
    ref = l_squared_afe(tabs[0], 0.5, tol).value
    _check(out, "AFE is sign-blind", same == ref)

    worst = 0.0
    for t in (0.25, 0.75, 1.0):
        a = l_squared_afe(tabs[0], t, tol).value
        b = l_squared_afe(tabs[0], -t, tol).value
        worst = max(worst, abs(a.conjugate() - b))
    _check(out, "AFE conjugation value(-t) = conj(value(t))", worst < 1e-9, f"worst = {worst:.2e}")

    _check(out, "tail bound below tolerance", afe.tail_bound <= tol)
    _check(out, "nonnegativity at t=0", afe.value.real >= -1e-8 and abs(afe.value.imag) <= 1e-8)
    return out


def verify_moments(seed: int = 0) -> list[Check]:
    out: list[Check] = []

    worst = 0.0
    for kind in ("M22", "Delta1", "Delta3"):
        for (p, q) in ((2, 101), (3, 37)):
            for t in (0.0, 1.0):
                d = abs(mo.residue_closed_form(kind, p, q, t) - mo.mellin_numeric(kind, p, q, t))
                worst = max(worst, d)
    _check(out, "residue vs contour on the kind grid", worst < 1e-8, f"worst = {worst:.2e}")

    worst = 0.0
    for kind, expect in (("plain", 7.2e-4), ("p", 1.2e-3), ("p2", 1.6e-3)):
        tr, cf = mo.tau_square_series(kind, 3, 2.0, 100_000)
        worst = max(worst, abs(tr - cf) / expect)
    _check(out, "tau series match closed forms at the partial-sum rate", worst < 1.0,
           f"worst tail/expected = {worst:.3f}")

    worst = 0.0
    for (p, q) in ((2, 101), (3, 37), (2, 1009)):
        for t in (0.0, 0.5):
            for j in (1, 2):
                a = mo.main_term_from_residues(j, p, q, t)
                b = mo.main_term_thm11(p, q, t) if j == 1 else mo.main_term_thm12(p, q, t)
                worst = max(worst, abs(a - b) / max(abs(b), 1e-12))
    _check(out, "theorem main terms equal their residue assembly", worst < 1e-10,
           f"worst rel = {worst:.2e}")

    tol = 1e-6
    tabs = get_eigendata(37, 3 * afe_cutoff(37, 0.5, tol), seed)
    emp = mo.empirical_moment(tabs, 1, 3, 0.5, tol)
    tr = mo.trace_route_moment(tabs, 3, 0.5, tol)
    _check(out, "trace-route reconstruction at (3,37,0.5)", abs(emp - tr) < 1e-7,
           f"|diff| = {abs(emp - tr):.2e}")
    m1 = mo.m1_square_block(3, 37, 0.5, tol)
    _check(out, "square-support block vanishes", abs(m1) < 1e-9, f"|M1| = {abs(m1):.2e}")
    d2, d3 = mo.delta23_trace_route(3, 37, 0.5, tol)
    _check(out, "Delta_2 = Delta_3 / p", abs(d2 - d3 / 3) < 1e-9, f"|diff| = {abs(d2 - d3/3):.2e}")

    worst = 0.0
    for t in (0.3, 0.9):
        a = mo.empirical_moment(tabs, 1, 2, t, tol)
        b = mo.empirical_moment(tabs, 1, 2, -t, tol)
        worst = max(worst, abs(a.conjugate() - b))
        am = mo.main_term_thm11(2, 37, t)
        bm = mo.main_term_thm11(2, 37, -t)
        worst = max(worst, abs(am.conjugate() - bm))
    _check(out, "conjugation symmetry of moments and main terms", worst < 1e-9,
           f"worst = {worst:.2e}")

    rems = {q: abs(mo.mellin_remainder("M22", 2, q, 0.0)) for q in (101, 401, 1009)}
    scaled = [rems[q] * (q / 2.0) ** 0.4 for q in (101, 401, 1009)]
    _check(out, "shifted-line remainder obeys (p/q)^{1/2-eps} scaling",
           rems[101] > rems[401] > rems[1009] and max(scaled) < 3.0 * min(scaled) * 10,
           f"remainders: {rems}")
    return out


_SUITES = {
    "special": verify_special,
    "smoothing": verify_smoothing,
    "hecke": verify_hecke,
    "lvalue": verify_lvalue,
    "moments": verify_moments,
}


def run_suite(name: str, seed: int = 0) -> dict:
    """Run one suite (or 'all'); returns a JSON-ready summary."""
    if name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    names = list(_SUITES) if name == "all" else [name]
    suites = {}
    t0 = time.time()
    n_fail = 0
    for nm in names:
        checks = _SUITES[nm](seed=seed)
        n_fail += sum(0 if c.passed else 1 for c in checks)
        suites[nm] = [
            {"name": c.name, "passed": c.passed, "detail": c.detail} for c in checks
        ]
    return {
        "suite": name,
        "passed": n_fail == 0,
        "failures": n_fail,
        "elapsed_s": round(time.time() - t0, 2),
        "checks": suites,
    }
