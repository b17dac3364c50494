import math

import pytest

from lfmoments import heckespace as hs
from lfmoments import lvalue as lv


class TestAfe:
    def test_q11_central_value(self, eigen11):
        _, tables = eigen11
        res = lv.l_squared_afe(tables[0], 0.0, 1e-8)
        assert abs(res.value.real - 0.0644356903) < 1e-7
        assert abs(res.value.imag) <= 1e-8
        assert res.value.real >= -1e-8
        assert res.d_cutoff == int(math.isqrt(res.n_cutoff))

    def test_truncation_stability(self, eigen11):
        # recomputing with the doubled lattice moves the value by less than tol
        _, tables = eigen11
        tol = 5e-7
        base = lv.l_squared_afe(tables[0], 0.0, tol)
        n2 = 2 * base.n_cutoff
        from lfmoments.lvalue import _lattice_sum, wt_lattice

        lam = tables[0].full(n2)
        w = wt_lattice(11.0, 0.0, n2, tol)
        doubled = 2.0 * _lattice_sum(lam, 0.0, 11, n2, w)
        assert abs(doubled - base.value.real) < tol

    def test_tail_bound_below_tol(self, eigen11):
        _, tables = eigen11
        res = lv.l_squared_afe(tables[0], 0.0, 1e-6)
        assert res.tail_bound <= 1e-6

    def test_conjugation(self, eigen11):
        _, tables = eigen11
        for t in (0.5, 1.0):
            a = lv.l_squared_afe(tables[0], t, 1e-8).value
            b = lv.l_squared_afe(tables[0], -t, 1e-8).value
            assert abs(a.conjugate() - b) < 1e-9

    def test_sign_never_read(self, eigen11):
        _, tables = eigen11
        flipped = tables[0].with_sign(-tables[0].sign)
        assert lv.l_squared_afe(flipped, 0.5, 1e-6).value == \
            lv.l_squared_afe(tables[0], 0.5, 1e-6).value

    def test_nonnegativity_all_levels(self, eigen11, eigen37, eigen101):
        # vanishing central values truncate to +- the tail scale, so the
        # lower bound tracks the requested tolerance
        for (_, tables), tol, bound in (
            (eigen11, 1e-8, -1e-8),
            (eigen37, 1e-8, -1e-8),
            (eigen101, 5e-7, -1e-6),
        ):
            for res in lv.l_squared_many(tables, 0.0, tol):
                assert res.value.real >= bound
                assert abs(res.value.imag) <= 1e-8

    def test_insufficient_table_error(self, eigen11):
        _, tables = eigen11
        short = hs.EigenformTable(
            q=11, index=0, n_max=64,
            primes=tables[0].primes[tables[0].primes <= 64],
            prime_lambda=tables[0].prime_lambda[tables[0].primes <= 64],
            sign=1, residual=0.0,
        )
        with pytest.raises(hs.MissingEigenvalueError):
            lv.l_squared_afe(short, 0.0, 1e-8)


class TestCentralOracle:
    def test_q11_value(self, eigen11):
        _, tables = eigen11
        val = lv.l_central_oracle(tables[0], 1e-9)
        assert abs(val - 0.2538418609) < 1e-8

    def test_cross_route_all_forms(self, eigen11, eigen37, eigen101):
        for _, tables in (eigen11, eigen37, eigen101):
            tol = 5e-7
            afes = lv.l_squared_many(tables, 0.0, tol)
            for table, afe in zip(tables, afes):
                oracle = lv.l_central_oracle(table, 1e-9)
                assert abs(oracle ** 2 - afe.value.real) < 2e-6

    def test_odd_form_vanishes(self, eigen37):
        _, tables = eigen37
        odd = [t for t in tables if t.sign == -1]
        assert odd
        for t in odd:
            assert abs(lv.l_central_oracle(t, 1e-9)) < 1e-8


class TestOffCenterOracle:
    def test_afe_against_incomplete_gamma_route(self, eigen11):
        # independent smoothed completed-L evaluation via mpmath at t != 0
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 25
        _, tables = eigen11
        table = tables[0]
        q, eps = 11, table.sign
        lam = table.full(400)

        def l_value(t):
            s = mp.mpf(1) / 2 + 1j * t
            g1 = mp.mpc(0)
            g2 = mp.mpc(0)
            for n in range(1, 401):
                c = 2 * mp.pi * n / mp.sqrt(q)
                co = lam[n] * mp.sqrt(n)
                g1 += co * c ** (-(s + mp.mpf(1) / 2)) * mp.gammainc(s + mp.mpf(1) / 2, c, mp.inf)
                g2 += co * c ** (s - mp.mpf(3) / 2) * mp.gammainc(mp.mpf(3) / 2 - s, c, mp.inf)
            lam_val = (g1 + eps * g2) * (2 * mp.pi / mp.sqrt(q)) ** mp.mpf(0.5)
            return complex(lam_val / ((mp.sqrt(q) / (2 * mp.pi)) ** s * mp.gamma(s + mp.mpf(1) / 2)))

        for t in (0.5, 1.0):
            ref = l_value(t) ** 2
            afe = lv.l_squared_afe(table, t, 1e-8).value
            assert abs(ref - afe) < 1e-7


class TestWtLatticeCache:
    def test_tols_evaluated_alike_share_one_grid(self):
        # both grids are evaluated at min(tol, 1e-8), so they are one entry
        a = lv.wt_lattice(101.0, 0.0, 256, 1e-4)
        assert lv.wt_lattice(101.0, 0.0, 256, 1e-5) is a

    def test_lru_keeps_the_grid_in_use(self):
        live = lv.wt_lattice(997.0, 0.0, 64, 1e-4)
        others = [lv.wt_lattice(1000.0 + k, 0.0, 64, 1e-4) for k in range(8)]
        assert lv.wt_lattice(997.0, 0.0, 64, 1e-4) is live
        lv.wt_lattice(2000.0, 0.0, 64, 1e-4)  # a tenth grid evicts the least recently used
        assert lv.wt_lattice(997.0, 0.0, 64, 1e-4) is live
        assert lv.wt_lattice(1000.0, 0.0, 64, 1e-4) is not others[0]
