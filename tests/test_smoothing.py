import math

import numpy as np
import pytest

from lfmoments import lvalue as lv
from lfmoments import smoothing as sm
from lfmoments.special import gamma

from conftest import assert_nested_nodes


@pytest.fixture(scope="module")
def p0():
    return sm.KernelParams(t=0.0, tol=1e-8)


class TestKernelParams:
    def test_tol_range(self):
        with pytest.raises(ValueError):
            sm.KernelParams(tol=1e-3)
        with pytest.raises(ValueError):
            sm.KernelParams(tol=0.0)


class TestWtEval:
    def test_small_y_limit(self, p0):
        w = sm.wt_eval(p0, 1e-8)
        assert abs(w - 1.0) <= 1e-6

    def test_large_y_reference_value(self, p0):
        # pinned against 40-digit mpmath quadrature of the same integral
        assert abs(sm.wt_eval(p0, 400.0) - 1.489759e-4) < 1e-9

    def test_true_decay_law(self, p0):
        # the e^{u^2}-weighted kernel decays like exp(-(log Y)^2/4)
        for y in (100.0, 200.0, 400.0, 800.0):
            w = abs(sm.wt_eval(p0, y))
            assert math.log(w) <= -math.log(y) ** 2 / 4.0 + 1.0

    def test_small_y_law_fitted_constant(self, p0):
        ys = np.geomspace(1e-6, 0.1, 30)
        ratios = np.array([abs(sm.wt_eval(p0, float(y)) - 1.0) / y ** 0.9 for y in ys])
        k_fit = 2.0 * float(np.max(ratios[:15]))   # fit on the coarse half
        assert np.all(ratios <= k_fit)

    def test_small_y_law_t1(self):
        g2 = gamma(1 + 1j) ** 2
        w = sm.wt_eval(sm.KernelParams(t=1.0, tol=1e-8), 1e-6)
        assert abs(w - g2) <= 1e-4  # O(Y^{1-eps}) with a modest constant

    def test_conjugation(self):
        a = sm.wt_eval(sm.KernelParams(t=0.7, tol=1e-10), 3.14)
        b = sm.wt_eval(sm.KernelParams(t=-0.7, tol=1e-10), 3.14)
        assert abs(a.conjugate() - b) <= 1e-10

    def test_conjugation_grid(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            t = float(rng.uniform(-2, 2))
            y = float(np.exp(rng.uniform(np.log(1e-4), np.log(30.0))))
            a = sm.wt_eval(sm.KernelParams(t=t, tol=1e-10), y)
            b = sm.wt_eval(sm.KernelParams(t=-t, tol=1e-10), y)
            assert abs(a.conjugate() - b) <= 1e-10

    def test_abscissa_independence(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            t = float(rng.uniform(-2, 2))
            y = float(np.exp(rng.uniform(np.log(1e-6), np.log(50.0))))
            a = sm.wt_eval(sm.KernelParams(t=t, tol=1e-8, contour_abscissa=2.0), y)
            b = sm.wt_eval(sm.KernelParams(t=t, tol=1e-8, contour_abscissa=3.0), y)
            assert abs(a - b) <= 2e-8

    def test_positive_y_required(self, p0):
        with pytest.raises(ValueError):
            sm.wt_eval(p0, 0.0)


class TestWtEvalShifted:
    def test_route_agreement(self, p0):
        for y in (0.05, 0.2, 0.5, 1.0):
            a = sm.wt_eval(p0, y)
            b = sm.wt_eval_shifted(p0, y)
            assert abs(a - b) <= 2e-8

    def test_residue_dominates_small_y(self, p0):
        w = sm.wt_eval_shifted(p0, 1e-10)
        assert abs(w - 1.0) < 1e-8

    def test_t1_small_y(self):
        g2 = gamma(1 + 1j) ** 2
        w = sm.wt_eval_shifted(sm.KernelParams(t=1.0, tol=1e-8), 1e-6)
        assert abs(w - g2) <= 1e-4


class TestWtGrid:
    def test_matches_scalar(self, p0):
        ys = np.geomspace(1e-6, 400.0, 40)
        grid = sm.wt_grid(0.0, ys)
        ref = np.array([sm.wt_eval(p0, float(y)) for y in ys])
        assert np.max(np.abs(grid - ref)) < 1e-9


class TestHalvingQuad:
    def test_gaussian_line(self):
        # (1/2 pi) int e^{(s+iv)^2} dv = 1/(2 sqrt(pi)) on every vertical line
        seen = []

        def node_sum(u):
            seen.append(u)
            return np.exp(u * u).sum()

        val = sm.halving_quad(node_sum, 0.7, 0.25, 8.0, 1e-12, "gaussian")
        assert abs(val - 0.5 / math.sqrt(math.pi)) < 1e-14
        h = 2.0 * math.pi * 0.25 / (math.log(1e13) + 6.0)  # the start step from the strip bound
        assert abs(seen[0][1].imag - seen[0][0].imag - h) < 1e-12
        assert seen[0].size == 2 * math.ceil(8.0 / h) + 1
        assert np.all(np.concatenate(seen).real == 0.7)
        assert_nested_nodes(seen)

    def test_v_miss_evaluates_each_kernel_node_once(self, monkeypatch):
        nodes = {}

        def recorded(t, ln_y, u, _fn=sm._kernel_node_sum):
            nodes.setdefault(float(u.real[0]), []).append(u)
            return _fn(t, ln_y, u)

        monkeypatch.setattr(sm, "_kernel_node_sum", recorded)
        lv._afe_weights.__wrapped__(101, 0.5, 4096, 1e-8)
        assert nodes
        for line in nodes.values():
            assert_nested_nodes(line)
            assert sum(u.size for u in line) <= 200


class TestTruncationCutoff:
    def test_power_of_two(self):
        for q in (11, 101, 599):
            n = sm.truncation_cutoff(q, 1, 1e-8)
            assert n & (n - 1) == 0

    def test_monotone_in_q(self):
        prev = 0
        for q in (11, 37, 101, 211, 503, 1009):
            n = sm.truncation_cutoff(q, 1, 1e-6)
            assert n >= prev
            prev = n

    def test_monotone_in_scale(self):
        assert sm.truncation_cutoff(101, 4, 1e-6) >= sm.truncation_cutoff(101, 1, 1e-6)
        assert sm.truncation_cutoff(101, 9, 1e-6) >= sm.truncation_cutoff(101, 1, 1e-6)

    def test_tol_range(self):
        with pytest.raises(ValueError):
            sm.truncation_cutoff(11, 1, 1e-3)
