"""Acceptance criteria, one test per criterion (split where a criterion
bundles independent laws), each printing a PASS/FAIL line at its stated
tolerance.

Three sub-criteria assert numerically false statements of the source
material and are left red deliberately; the analysis lives in the project
notes.  Each such test carries a companion here that pins the true
behavior:

  * criterion 3, large-Y law: the e^{u^2}-weighted kernel decays like
    exp(-(log Y)^2/4), not e^{-sqrt(Y)} (companion: true-decay test);
  * criterion 5, tau-series tolerance 1e-6 at L=1e5: the partial sums
    converge like (log L)^2/L, tails ~1e-3 (companion: measured-rate test);
  * criterion 7, trend clauses: the shifted-contour remainder (constant
    ~ zeta(1+2eps)^3) dominates the residue main terms at desk scale
    (companions: theorem-error-bound trend + remainder closure tests).
"""

import math

import numpy as np
import pytest

from lfmoments import harness as ha
from lfmoments import heckespace as hs
from lfmoments import moments as mo
from lfmoments import smoothing as sm
from lfmoments.lvalue import l_central_oracle, l_squared_many
from lfmoments.special import divisor_sieve, primes_up_to


def _report(num: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")


# -- criterion 1 -------------------------------------------------------------

def test_criterion1_dimension_oracle():
    bad = []
    for q in primes_up_to(500).tolist():
        if q < 11:
            continue
        if hs.build_space(q).dim != hs.genus_oracle(q):
            bad.append(q)
    _report("1", not bad, f"dim == genus for all primes 11..500 (bad: {bad})")
    assert not bad


# -- criterion 2 -------------------------------------------------------------

def test_criterion2_hecke_algebra(eigen11, eigen37, eigen101):
    rng = np.random.default_rng(2024)
    worst_rel = 0.0
    deligne_ok = True
    for _, tables in (eigen11, eigen37, eigen101):
        if not tables:
            continue
        q = tables[0].q
        n_max = tables[0].n_max
        lams = [t.full(n_max) for t in tables]
        tau = divisor_sieve(n_max)
        for lam in lams:
            if not np.all(np.abs(lam[1:]) <= tau[1:] + 1e-6):
                deligne_ok = False
        for _ in range(500):
            m = int(rng.integers(1, 100))
            n = int(rng.integers(1, n_max // m))
            g = math.gcd(m, n)
            for lam in lams:
                rhs = sum(lam[m * n // (d * d)] for d in range(1, g + 1)
                          if g % d == 0 and d % q != 0)
                worst_rel = max(worst_rel, abs(lam[m] * lam[n] - rhs))
    ok = worst_rel < 1e-8 and deligne_ok
    _report("2", ok, f"Hecke relation worst {worst_rel:.2e} (tol 1e-8); Deligne: {deligne_ok}")
    assert worst_rel < 1e-8
    assert deligne_ok


# -- criterion 3 -------------------------------------------------------------

def test_criterion3_kernel_laws_attainable_parts():
    params = sm.KernelParams(t=0.0, tol=1e-8)
    ys = np.geomspace(1e-6, 0.1, 24)
    ratios = np.array([abs(sm.wt_eval(params, float(y)) - 1.0) / y ** 0.9 for y in ys])
    k_fit = 2.0 * float(np.max(ratios[:12]))
    small_ok = bool(np.all(ratios <= k_fit))

    rng = np.random.default_rng(3)
    worst_absc = 0.0
    worst_conj = 0.0
    for _ in range(25):
        t = float(rng.uniform(-2, 2))
        y = float(np.exp(rng.uniform(np.log(1e-6), np.log(50.0))))
        a = sm.wt_eval(sm.KernelParams(t=t, tol=1e-8, contour_abscissa=2.0), y)
        b = sm.wt_eval(sm.KernelParams(t=t, tol=1e-8, contour_abscissa=3.0), y)
        worst_absc = max(worst_absc, abs(a - b))
        c = sm.wt_eval(sm.KernelParams(t=-t, tol=1e-10), y)
        d = sm.wt_eval(sm.KernelParams(t=t, tol=1e-10), y)
        worst_conj = max(worst_conj, abs(d.conjugate() - c))
    ok = small_ok and worst_absc <= 2e-8 and worst_conj <= 1e-10
    _report("3a", ok, f"small-Y law (K={k_fit:.2f}), abscissa {worst_absc:.1e} <= 2e-8, "
                      f"conjugation {worst_conj:.1e} <= 1e-10")
    assert ok


def test_criterion3_kernel_large_y_law_as_specified():
    """log|W_0(Y)| <= -sqrt(Y) at Y in {100,200,400,800}.

    Numerically false for the printed kernel (true decay exp(-(log Y)^2/4);
    see notes).  Kept verbatim; expected red.
    """
    params = sm.KernelParams(t=0.0, tol=1e-8)
    logs = {y: math.log(abs(sm.wt_eval(params, float(y)))) for y in (100, 200, 400, 800)}
    ok = all(logs[y] <= -math.sqrt(y) for y in logs)
    _report("3b", ok, f"large-Y law log|W0| <= -sqrt(Y): {({y: round(v, 2) for y, v in logs.items()})} "
                      f"vs bounds {({y: round(-math.sqrt(y), 2) for y in logs})}")
    assert ok, "printed large-Y law fails: the e^{u^2} kernel decays quasi-polynomially"


def test_criterion3_companion_true_large_y_decay():
    params = sm.KernelParams(t=0.0, tol=1e-8)
    ok = all(
        math.log(abs(sm.wt_eval(params, float(y)))) <= -math.log(y) ** 2 / 4.0 + 1.0
        for y in (100, 200, 400, 800)
    )
    _report("3b'", ok, "true decay law log|W0(Y)| <= -(log Y)^2/4 + 1")
    assert ok


# -- criterion 4 -------------------------------------------------------------

def test_criterion4_lvalue_cross_route(eigen11, eigen37, eigen101):
    worst = 0.0
    q11_val = None
    for _, tables in (eigen11, eigen37, eigen101):
        afes = l_squared_many(tables, 0.0, 5e-7)
        for table, afe in zip(tables, afes):
            oracle = l_central_oracle(table, 1e-9)
            worst = max(worst, abs(oracle ** 2 - afe.value.real))
            if table.q == 11:
                q11_val = afe.value.real
    ok = worst < 2e-6 and abs(q11_val - 0.064436) < 1e-6
    _report("4", ok, f"cross-route worst {worst:.2e} (tol 2e-6); q=11 L^2 = {q11_val:.6f}")
    assert ok


# -- criterion 5 -------------------------------------------------------------

def test_criterion5_residue_vs_contour():
    worst = 0.0
    for kind in ("M22", "Delta1", "Delta3"):
        for (p, q) in ((2, 101), (3, 37)):
            for t in (0.0, 0.5, 1.0):
                worst = max(worst, abs(
                    mo.residue_closed_form(kind, p, q, t) - mo.mellin_numeric(kind, p, q, t)
                ))
    ok = worst < 1e-8
    _report("5a", ok, f"residue vs contour worst {worst:.2e} (tol 1e-8) on the full grid")
    assert ok


def test_criterion5_tau_series_at_stated_tolerance():
    """Three divisor-series identities to 1e-6 at L=1e5.

    The partial sums converge like (log L)^2/L (tails ~1e-3 at L=1e5), so
    the stated tolerance is unattainable; see notes.  Kept verbatim.
    """
    worst = 0.0
    for kind in ("plain", "p", "p2"):
        for p in (2, 3, 5):
            for s in (2.0, 2 + 2j):
                tr, cf = mo.tau_square_series(kind, p, s, 100_000)
                worst = max(worst, abs(tr - cf))
    ok = worst < 1e-6
    _report("5b", ok, f"tau-series worst |trunc-closed| = {worst:.2e} (stated tol 1e-6)")
    assert ok, "partial sums of tau(c l^2)/l^s converge at the (log L)^2/L rate"


def test_criterion5_companion_tau_series_measured_rate():
    worst_ratio = 0.0
    for kind, scale in (("plain", 7.1e-4), ("p", 1.11e-3), ("p2", 1.5e-3)):
        for p in (2, 3, 5):
            tr, cf = mo.tau_square_series(kind, p, 2.0, 100_000)
            worst_ratio = max(worst_ratio, abs(tr - cf) / scale)
    ok = worst_ratio < 1.6
    _report("5b'", ok, f"tau tails within 1.6x of the measured (log L)^2/L rate "
                       f"(worst ratio {worst_ratio:.2f})")
    assert ok


def test_criterion5_trace_route_identities():
    worst_m1 = 0.0
    worst_d = 0.0
    for (p, q, t) in ((2, 101, 0.0), (3, 37, 0.5), (2, 101, 1.0)):
        worst_m1 = max(worst_m1, abs(mo.m1_square_block(p, q, t, 1e-6)))
        d2, d3 = mo.delta23_trace_route(p, q, t, 1e-6)
        worst_d = max(worst_d, abs(d2 - d3 / p))
    ok = worst_m1 < 1e-9 and worst_d < 1e-9
    _report("5c", ok, f"M1 block {worst_m1:.1e}, Delta2 - Delta3/p {worst_d:.1e} (tol 1e-9)")
    assert ok


# -- criterion 6 -------------------------------------------------------------

def test_criterion6_reconstruction(eigen37, eigen101):
    _, t101 = eigen101
    _, t37 = eigen37
    d1 = abs(mo.empirical_moment(t101, 1, 2, 0.0, 1e-6) - mo.trace_route_moment(t101, 2, 0.0, 1e-6))
    d2 = abs(mo.empirical_moment(t37, 1, 3, 0.5, 1e-6) - mo.trace_route_moment(t37, 3, 0.5, 1e-6))
    ok = d1 < 1e-7 and d2 < 1e-7
    _report("6", ok, f"form-route vs trace-route: (2,101,0) {d1:.2e}, (3,37,0.5) {d2:.2e} (tol 1e-7)")
    assert ok


# -- criterion 7 -------------------------------------------------------------

@pytest.fixture(scope="module")
def smoke_sweep(tmp_path_factory):
    cache = tmp_path_factory.mktemp("sweep_cache")
    config = ha.SweepConfig(
        q_min=200, q_max=600, p_list=(2,), j_list=(1, 2), t_list=(0.0,),
        tol=1e-4, seed=0, cache_dir=str(cache), threads=2,
    )
    rows, _ = ha.run_sweep(config)
    return [r for r in rows if not r["error"]]


def _trend_stats(rows, j):
    sub = [r for r in rows if r["j"] == j]
    qs = np.array([r["q"] for r in sub], dtype=float)
    emp = np.array([r["empirical_re"] for r in sub])
    main = np.array([r["main_re"] for r in sub])
    ratio = emp / main
    high = qs >= 500
    sign_frac = float(np.mean(np.sign(emp[high]) == np.sign(main[high])))
    mid = 0.5 * (qs.min() + qs.max())
    med_lo = float(np.median(np.abs(ratio[qs <= mid] - 1.0)))
    med_hi = float(np.median(np.abs(ratio[qs > mid] - 1.0)))
    return sign_frac, med_lo, med_hi, qs, emp, main


@pytest.mark.parametrize("j", [1, 2])
def test_criterion7_theorem_trend_as_specified(smoke_sweep, j):
    """Sign agreement >= 90% at q >= 500 and improving |ratio - 1| medians.

    At desk scale the shifted-contour remainder (constant ~ zeta(1+2eps)^3)
    dominates the residue-only main terms, so both clauses fail; the
    theorems' own error bound is verified by the companion test.  See notes.
    """
    sign_frac, med_lo, med_hi, *_ = _trend_stats(smoke_sweep, j)
    ok = sign_frac >= 0.9 and med_hi < med_lo
    _report(f"7(j={j})", ok,
            f"sign match q>=500: {100*sign_frac:.0f}% (need >=90%); "
            f"median|ratio-1| lower {med_lo:.3f} vs upper {med_hi:.3f} (need upper < lower)")
    assert ok, "trend clauses fail at desk scale; see the companion theorem-bound test"


@pytest.mark.parametrize("j", [1, 2])
def test_criterion7_companion_theorem_error_bound_trend(smoke_sweep, j):
    # |empirical - main| <= p^{39/32} q^{31/32} (j=1) / p^{39/16} q^{31/32} (j=2),
    # with the normalized error improving across the range
    *_, qs, emp, main = _trend_stats(smoke_sweep, j)
    p = 2.0
    p_pow = p ** (39.0 / 32.0) if j == 1 else p ** (39.0 / 16.0)
    norm = np.abs(emp - main) / (p_pow * qs ** (31.0 / 32.0))
    mid = 0.5 * (qs.min() + qs.max())
    ok = bool(np.all(norm < 1.0)) and float(np.median(norm[qs > mid])) < float(np.median(norm[qs <= mid]))
    _report(f"7'(j={j})", ok,
            f"normalized theorem error max {float(np.max(norm)):.2f} < 1, "
            f"median improves {float(np.median(norm[qs <= mid])):.3f} -> "
            f"{float(np.median(norm[qs > mid])):.3f}")
    assert ok


# -- criterion 8 -------------------------------------------------------------

def test_criterion8_symmetries(eigen11, eigen37):
    rng = np.random.default_rng(88)
    pool = {11: eigen11[1], 37: eigen37[1]}
    worst_emp = 0.0
    worst_main = 0.0
    for _ in range(20):
        q = int(rng.choice([11, 37]))
        p = int(rng.choice([2, 3, 5]))
        j = int(rng.integers(1, 3))
        t = float(rng.uniform(0.1, 1.5))
        a = mo.empirical_moment(pool[q], j, p, t, 1e-6)
        b = mo.empirical_moment(pool[q], j, p, -t, 1e-6)
        worst_emp = max(worst_emp, abs(a.conjugate() - b))
        am = mo.main_term_thm11(p, q, t) if j == 1 else mo.main_term_thm12(p, q, t)
        bm = mo.main_term_thm11(p, q, -t) if j == 1 else mo.main_term_thm12(p, q, -t)
        worst_main = max(worst_main, abs(am.conjugate() - bm) / max(abs(am), 1.0))
    ok = worst_emp < 1e-9 and worst_main < 1e-12
    _report("8", ok, f"A(-t) = conj A(t) worst {worst_emp:.2e} (tol 1e-9); "
                     f"main terms conjugate to {worst_main:.2e} rel")
    assert ok


# -- criterion 9 -------------------------------------------------------------

def test_criterion9_determinism_and_persistence(tmp_path):
    # cache byte-identity under a fixed seed
    space = hs.build_space(37)
    tabs1 = hs.extend_prime_eigenvalues(space, hs.eigen_split(space, seed=3), 512)
    space2 = hs.build_space(37)
    tabs2 = hs.extend_prime_eigenvalues(space2, hs.eigen_split(space2, seed=3), 512)
    p1, p2 = tmp_path / "c1.json", tmp_path / "c2.json"
    ha.save_eigendata(p1, 37, 3, 512, tabs1)
    ha.save_eigendata(p2, 37, 3, 512, tabs2)
    cache_ok = p1.read_bytes() == p2.read_bytes()

    # cache round-trip is bit-exact
    *_, loaded = ha.load_eigendata(p1)
    trip_ok = all(
        np.array_equal(a.prime_lambda, b.prime_lambda) for a, b in zip(tabs1, loaded)
    )

    # sweep CSV byte-identity under a fixed seed
    config = ha.SweepConfig(q_min=11, q_max=31, p_list=(2,), j_list=(1,),
                            t_list=(0.0,), tol=1e-4, seed=0, cache_dir=str(tmp_path))
    rows1, _ = ha.run_sweep(config)
    rows2, _ = ha.run_sweep(config)
    s1, s2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    ha.write_sweep_csv(rows1, s1)
    ha.write_sweep_csv(rows2, s2)
    sweep_ok = s1.read_bytes() == s2.read_bytes()

    ok = cache_ok and trip_ok and sweep_ok
    _report("9", ok, f"cache bytes: {cache_ok}, round-trip bit-exact: {trip_ok}, "
                     f"sweep CSV bytes: {sweep_ok}")
    assert ok
