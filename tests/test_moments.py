import math
import time

import numpy as np
import pytest

from lfmoments import moments as mo
from lfmoments.lvalue import afe_cutoff, wt_lattice
from lfmoments.smoothing import QuadratureError
from lfmoments.special import divisor_count, divisor_sieve

from conftest import assert_nested_nodes, delta23_by_d


class TestEmpiricalMoment:
    def test_q11_reference(self, eigen11):
        # lambda(2) * L(1/2)^2 = -sqrt(2) * 0.06443569 = -0.09112583
        _, tables = eigen11
        val = mo.empirical_moment(tables, 1, 2, 0.0, 1e-8)
        assert abs(val.real - (-0.09112583)) < 1e-7
        assert abs(val.imag) < 1e-12

    def test_empty_family(self):
        assert mo.empirical_moment([], 1, 2, 0.0) == 0

    def test_trivial_bound(self, eigen37):
        # |A(q,1,p,0)| <= 2 sum_f L(1/2,f)^2 since |lambda(p)| <= tau(p) = 2
        _, tables = eigen37
        from lfmoments.lvalue import l_squared_many
        total = sum(r.value.real for r in l_squared_many(tables, 0.0, 1e-6))
        val = mo.empirical_moment(tables, 1, 2, 0.0, 1e-6)
        assert abs(val) <= 2.0 * total + 1e-9

    def test_conjugation(self, eigen37):
        _, tables = eigen37
        for t in (0.4, 1.1):
            a = mo.empirical_moment(tables, 1, 3, t, 1e-6)
            b = mo.empirical_moment(tables, 1, 3, -t, 1e-6)
            assert abs(a.conjugate() - b) < 1e-9

    def test_realness_at_t0(self, eigen101):
        _, tables = eigen101
        for j, p in ((1, 2), (2, 3)):
            val = mo.empirical_moment(tables, j, p, 0.0, 1e-6)
            assert abs(val.imag) <= 1e-7


class TestMainTerms:
    def test_thm11_signs(self):
        # bracket zero near q ~ 1418 at p=2: negative before, positive after
        assert mo.main_term_thm11(2, 1009, 0.0).real < 0
        assert mo.main_term_thm11(2, 1601, 0.0).real > 0

    def test_thm12_sign(self):
        assert mo.main_term_thm12(2, 1009, 0.0).real < 0
        assert mo.main_term_thm12(2, 2999, 0.0).real > 0

    def test_conjugation_exact(self):
        for (p, q, t) in ((2, 101, 0.7), (3, 101, 0.5), (5, 211, 1.3)):
            a = mo.main_term_thm11(p, q, t)
            b = mo.main_term_thm11(p, q, -t)
            assert abs(a.conjugate() - b) <= 1e-12 * abs(a)
            a2 = mo.main_term_thm12(p, q, t)
            b2 = mo.main_term_thm12(p, q, -t)
            assert abs(a2.conjugate() - b2) <= 1e-12 * abs(a2)

    def test_t_branch_continuity(self):
        # simple poles merge into the double pole; the t -> 0 limit recovers
        # the EXACT t=0 residue assembly (the printed t=0 form truncates the
        # zeta_q-derivative term, so the limit sits 2 log(q)/(q-1) above its
        # bracket -- measured +8.04 at (2,1009))
        p, q = 2, 1009
        a = mo.main_term_thm11(p, q, 1e-4)
        exact0 = 2.0 * (1 + 1 / p) * q / (12 * math.sqrt(p)) \
            * mo.residue_closed_form("M22", p, q, 0.0, exact=True).real
        assert abs(a - exact0) / abs(exact0) < 1e-3
        printed0 = mo.main_term_thm11(p, q, 0.0)
        assert abs(a - printed0) / abs(printed0) > 1e-2  # the truncation gap is real
        a2 = mo.main_term_thm12(p, q, 1e-4)
        d1 = mo.residue_closed_form("Delta1", p, q, 0.0, exact=True).real
        d3 = mo.residue_closed_form("Delta3", p, q, 0.0, exact=True).real
        exact0_2 = 2.0 * (q / (12 * p)) * d1 + 2.0 * (q / (12 * p)) * (1 + 1 / p) * d3
        assert abs(a2 - exact0_2) / abs(exact0_2) < 1e-3

    def test_residue_assembly_matches_theorems(self):
        for (p, q) in ((2, 101), (3, 37), (2, 1009)):
            for t in (0.0, 0.5, 1.0):
                for j in (1, 2):
                    a = mo.main_term_from_residues(j, p, q, t)
                    b = mo.main_term_thm11(p, q, t) if j == 1 else mo.main_term_thm12(p, q, t)
                    assert abs(a - b) <= 1e-10 * max(abs(b), 1.0)


class TestSecondMoment:
    def test_sign_change(self):
        assert mo.second_moment_main(11) < 0
        assert mo.second_moment_main(1009) > 0

    def test_formal_zero(self):
        c = mo._zc()
        q_zero = 4 * math.pi ** 2 * math.exp(
            -2 * (3 * c.zeta2_logderiv - 2 * c.zeta4_logderiv)
        )
        eps = 1e-6
        assert mo.second_moment_main(int(q_zero)) * mo.second_moment_main(int(q_zero) + 2) <= 0 \
            or abs(mo.second_moment_main(int(q_zero))) < 1.0

    def test_empirical_same_order(self, eigen101):
        # loose magnitude check at a desk-scale level: the error term is
        # comparable to the main term here, so only the scale is compared
        _, tables = eigen101
        from lfmoments.lvalue import l_squared_many
        emp = sum(r.value.real for r in l_squared_many(tables, 0.0, 1e-6))
        assert 0 < emp < 10.0 * abs(mo.second_moment_main(101)) + 100.0


class TestExchangeIdentity:
    def test_empty_partner(self, eigen37, eigen_cache):
        _, tables_q = eigen37
        _, tables_13 = eigen_cache(13, 16)
        res = mo.exchange_identity(tables_q, tables_13, 13, 1e-6)
        direct = mo.empirical_moment(tables_q, 1, 13, 0.0, 1e-6).real
        assert abs(res["lhs"] - direct) < 1e-12

    def test_rhs_shape(self):
        # rhs depends on (p, q) only through q/sqrt(p) and log(q/4pi^2 p)
        c = mo._zc()
        for (p, q) in ((11, 1009), (13, 997)):
            rhs = c.zeta2 ** 3 / (6 * c.zeta4) * (q / math.sqrt(p)) * math.log(q / (4 * math.pi ** 2 * p)) \
                + c.zeta2 ** 3 / (3 * c.zeta4) * (3 * c.zeta2_logderiv - 2 * c.zeta4_logderiv) * (q / math.sqrt(p))
            # recompute through the public helper with stub tables for shape only
            assert np.isfinite(rhs)

    def test_lhs_vs_rhs_sign_at_scale(self, eigen11, eigen101):
        # (p, q) = (11, 101): both sides at desk scale; identity holds to O(error)
        _, tables_q = eigen101
        _, tables_p = eigen11
        res = mo.exchange_identity(tables_q, tables_p, 11, 1e-6)
        assert np.isfinite(res["lhs"]) and np.isfinite(res["rhs_main"])


class TestTauSeries:
    def test_identities_at_partial_sum_rate(self):
        # the partial sums converge like (log L)^2 / L; pin the measured tails
        expected = {"plain": 7.1e-4, "p": 1.11e-3, "p2": 1.50e-3}
        for kind, exp in expected.items():
            tr, cf = mo.tau_square_series(kind, 3, 2.0, 100_000)
            assert abs(tr - cf) < 1.5 * exp
            assert abs(tr - cf) > exp / 3.0  # the tail is real, not a bug

    def test_tail_shrinks_with_limit(self):
        d1 = abs(np.subtract(*mo.tau_square_series("p", 3, 2.0, 20_000)))
        d2 = abs(np.subtract(*mo.tau_square_series("p", 3, 2.0, 160_000)))
        assert d2 < d1 / 4.0  # ~linear-in-L decay with log^2 correction

    def test_limit_values(self):
        # s -> large: closed form tends to tau(1) = 1 resp. tau(p^2) = 3
        _, cf_plain = mo.tau_square_series("plain", 3, 20.0, 1000)
        _, cf_p2 = mo.tau_square_series("p2", 3, 20.0, 1000)
        assert abs(cf_plain - 1.0) < 1e-5
        assert abs(cf_p2 - 3.0) < 1e-5

    def test_complex_s(self):
        for kind in ("plain", "p", "p2"):
            tr, cf = mo.tau_square_series(kind, 2, 2 + 2j, 100_000)
            assert abs(tr - cf) < 2e-3

    def test_sieve_matches_divisor_count(self):
        tau2 = mo._tau_square_sieve(3000)
        assert all(tau2[m] == divisor_count(m * m) for m in range(1, 3001))


class TestResidueVsContour:
    @pytest.mark.parametrize("kind", ["M22", "Delta1", "Delta3"])
    @pytest.mark.parametrize("pq", [(2, 101), (3, 37)])
    @pytest.mark.parametrize("t", [0.0, 0.5, 1.0])
    def test_agreement(self, kind, pq, t):
        p, q = pq
        r = mo.residue_closed_form(kind, p, q, t, exact=True)
        m = mo.mellin_numeric(kind, p, q, t)
        assert abs(r - m) < 1e-8

    def test_unstable_line_raises_quadrature_error(self):
        with pytest.raises(QuadratureError, match="mellin quadrature for M22"):
            mo.mellin_numeric("M22", 2, 101, 0.0, tol=1e-30)

    @pytest.mark.parametrize("call", [lambda: mo.mellin_numeric("M22", 2, 101, 1e6),
                                      lambda: mo.mellin_remainder("M22", 2, 101, 30.0)])
    def test_mellin_lines_reject_t_out_of_range(self, call):
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match=r"t must lie in \[-25, 25\]"):
            call()
        assert time.perf_counter() - t0 < 0.5  # before any node: unchecked, 1e6 ran past 20 s

    def test_every_mellin_node_evaluated_once(self, monkeypatch):
        lines = {}

        def recorded(kind, p, q, t, u, _fn=mo._mellin_integrand):
            lines.setdefault(float(u.real[0]), []).append(u)
            return _fn(kind, p, q, t, u)

        monkeypatch.setattr(mo, "_mellin_integrand", recorded)
        mo.mellin_numeric("M22", 2, 101, 0.5)
        assert sorted(lines) == [-0.25, 2.0]
        for nodes in lines.values():
            assert_nested_nodes(nodes)

    @pytest.mark.parametrize("cell", [("M22", 2, 101, 0.5), ("Delta3", 3, 37, 0.0)])
    def test_left_line_anywhere_in_the_pole_free_strip(self, cell):
        # no singularity lies strictly between Re u = -1/2 and 0
        a = mo._refined_mellin_line(*cell, -0.4, 1e-10)
        b = mo._refined_mellin_line(*cell, -0.25, 1e-10)
        assert abs(a - b) < 1e-9

    def test_exact_vs_printed_difference(self):
        # at t=0 the exact form keeps the 2 log(q) / (q-1) zeta_q-derivative term
        q = 101
        d = mo.residue_closed_form("Delta1", 2, q, 0.0, exact=True) \
            - mo.residue_closed_form("Delta1", 2, q, 0.0, exact=False)
        c = mo._zc()
        expected = (1 - 1 / q) * c.zeta2 ** 3 / (2 * c.zeta4) * 2 * math.log(q) / (q - 1)
        assert abs(d.real - expected) < 1e-12

    def test_lattice_equals_residue_plus_remainder(self):
        # end-to-end Mellin bookkeeping: the full square-support lattice sum
        # equals residue + shifted-line remainder
        q, tol = 593, 1e-6
        n_cut = afe_cutoff(q, 0.0, tol)
        w = wt_lattice(float(q), 0.0, n_cut, tol)
        tau = divisor_sieve(n_cut)
        acc = 0.0
        d = 1
        while d * d <= n_cut:
            if d % q:
                lmax = math.isqrt(n_cut // (d * d))
                for l in range(1, lmax + 1):
                    acc += tau[l * l] / float(l * l) * w[l * l * d * d - 1] / d
            d += 1
        res = mo.residue_closed_form("Delta1", 2, q, 0.0, exact=True).real
        rem = mo.mellin_remainder("Delta1", 2, q, 0.0).real
        assert abs(acc - res - rem) < 1e-6

    def test_remainder_scaling(self):
        # |R'| <= C (p/q)^{1/2-eps}: scaled values stay bounded, raw decay
        rems = {q: abs(mo.mellin_remainder("M22", 2, q, 0.0)) for q in (101, 401, 1009)}
        assert rems[101] > rems[401] > rems[1009]
        scaled = [rems[q] * (q / 2.0) ** 0.4 for q in rems]
        assert max(scaled) < 5.0 * min(scaled)


class TestTraceRoute:
    def test_reconstruction_2_101_0(self, eigen101):
        _, tables = eigen101
        tol = 1e-6
        emp = mo.empirical_moment(tables, 1, 2, 0.0, tol)
        tr = mo.trace_route_moment(tables, 2, 0.0, tol)
        assert abs(emp - tr) < 1e-7

    def test_reconstruction_3_37_05(self, eigen37):
        _, tables = eigen37
        tol = 1e-6
        emp = mo.empirical_moment(tables, 1, 3, 0.5, tol)
        tr = mo.trace_route_moment(tables, 3, 0.5, tol)
        assert abs(emp - tr) < 1e-7

    def test_m1_vanishes(self):
        for (p, q, t) in ((2, 101, 0.0), (3, 37, 0.5)):
            assert abs(mo.m1_square_block(p, q, t, 1e-6)) < 1e-9

    def test_m1_evaluates_no_kernel_point(self, monkeypatch):
        sizes = []

        def recorded(t, ys, params=None, _fn=mo.wt_grid):
            sizes.append(np.asarray(ys).size)
            return _fn(t, ys, params)

        monkeypatch.setattr(mo, "wt_grid", recorded)
        for p in (2, 3, 5):
            for q in (37, 101):
                for t in (0.0, 0.5):
                    assert mo.m1_square_block(p, q, t, 1e-6) == 0j
        assert sum(sizes) == 0

    @pytest.mark.parametrize("p,q,t", [(2, 101, 0.0), (3, 37, 0.5), (2, 101, 1.0), (5, 101, -1.25)])
    def test_delta23_matches_per_term_loops(self, p, q, t):
        tol = 1e-6
        n = afe_cutoff(q, t, tol)
        ref = delta23_by_d(p, q, t, n, wt_lattice(float(q), t, n, tol))
        got = mo.delta23_trace_route(p, q, t, tol)
        for a, b in zip(got, ref):
            assert abs(a - b) <= 1e-12 * abs(b)

    def test_delta2_is_delta3_over_p(self):
        for (p, q, t) in ((2, 101, 0.0), (3, 37, 0.5)):
            d2, d3 = mo.delta23_trace_route(p, q, t, 1e-6)
            assert abs(d2 - d3 / p) < 1e-9


class TestPrimeP:
    """Every moment and main-term function is stated for a prime p other than q."""

    @pytest.mark.parametrize("p", [1, 4, 37])
    def test_each_function_raises(self, eigen37, p):
        _, tables = eigen37
        calls = [
            lambda: mo.empirical_moment(tables, 1, p, 0.0, 1e-4),
            lambda: mo.trace_route_moment(tables, p, 0.0, 1e-4),
            lambda: mo.m1_square_block(p, 37, 0.0, 1e-4),
            lambda: mo.delta23_trace_route(p, 37, 0.0, 1e-4),
            lambda: mo.residue_closed_form("M22", p, 37, 0.0),
            lambda: mo.main_term_thm11(p, 37, 0.5),
            lambda: mo.main_term_thm12(p, 37, 0.0),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="prime|level"):
                call()


class TestMomentRecord:
    def test_record_fields(self, eigen37):
        _, tables = eigen37
        rec = mo.build_moment_record(tables, 37, 2, 1, 0.0, 1e-6)
        assert rec.dim == 2
        assert rec.ratio is not None
        assert rec.abs_residual == abs(rec.empirical - rec.main_term)
        assert abs(rec.empirical.imag) <= 1e-7
        assert abs(rec.main_term.imag) <= 1e-12

    def test_empty_family_record(self, eigen_cache):
        _, tables = eigen_cache(13, 16)
        rec = mo.build_moment_record(tables, 13, 2, 1, 0.0, 1e-6)
        assert rec.empirical == 0
        assert "empty-family" in rec.warnings

    def test_pole_merge_flag(self, eigen37):
        _, tables = eigen37
        rec = mo.build_moment_record(tables, 37, 2, 1, 5e-4, 1e-6)
        assert "pole-merge-band" in rec.warnings

    def test_conj_symmetry_records(self, eigen37):
        _, tables = eigen37
        a = mo.build_moment_record(tables, 37, 2, 1, 0.6, 1e-6)
        b = mo.build_moment_record(tables, 37, 2, 1, -0.6, 1e-6)
        assert abs(a.empirical.conjugate() - b.empirical) < 1e-9
        assert abs(a.main_term.conjugate() - b.main_term) < 1e-9 * abs(a.main_term)
