import dataclasses
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from lfmoments import heckespace as hs
from lfmoments import lvalue as lv
from lfmoments import moments as mo
from lfmoments.special import divisor_sieve

from conftest import afe_assemble, lattice_sum_by_d, wt_fixed_step


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
        lam = tables[0].full(n2)
        doubled = 2.0 * float(lam[1:n2 + 1] @ lv.afe_weights(11, 0.0, n2, tol))
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
        flipped = dataclasses.replace(tables[0], sign=-tables[0].sign)
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

    def test_table_without_sign_raises(self, eigen11):
        space, _ = eigen11
        unsigned = hs.eigen_split(space, seed=0)[0]  # sign 0 until the path engine runs
        with pytest.raises(ValueError, match="form 0 at q=11 carries no FE sign"):
            lv.l_central_oracle(unsigned, 1e-9)

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
    """The one cache of the lattice: afe_weights, keyed on the tol its W_t grid is evaluated at."""

    def test_tols_evaluated_alike_share_one_grid(self):
        # both weight vectors come from grids evaluated at min(tol, 1e-8), so they are one entry
        a = lv.afe_weights(101, 0.0, 256, 1e-4)
        assert lv.afe_weights(101, 0.0, 256, 1e-5) is a

    def test_lru_keeps_the_grid_in_use(self):
        live = lv.afe_weights(997, 0.0, 64, 1e-4)
        others = [lv.afe_weights(1000 + k, 0.0, 64, 1e-4) for k in range(8)]
        assert lv.afe_weights(997, 0.0, 64, 1e-4) is live
        lv.afe_weights(2000, 0.0, 64, 1e-4)  # a tenth entry evicts the least recently used
        assert lv.afe_weights(997, 0.0, 64, 1e-4) is live
        assert lv.afe_weights(1000, 0.0, 64, 1e-4) is not others[0]

    def test_weights_are_read_only(self):
        v = lv.afe_weights(101, 0.5, 256, 1e-4)
        with pytest.raises(ValueError):
            v[0] = 0.0


class TestWeightVector:
    @pytest.mark.parametrize("t", [0.0, 0.5, -1.25])
    def test_form_and_trace_routes_match_per_d_loop(self, eigen37, eigen101, t):
        tol = 1e-4
        for (_, tables), p in ((eigen37, 3), (eigen101, 2)):
            q = tables[0].q
            n = lv.afe_cutoff(q, t, tol)
            w = lv.wt_lattice(float(q), t, n, tol)
            ref = [afe_assemble(lattice_sum_by_d(tb.full(), t, q, n, w), q, t) for tb in tables]
            got = [res.value for res in lv.l_squared_many(tables, t, tol)]
            scale = max(abs(v) for v in ref)
            assert max(abs(a - b) for a, b in zip(got, ref)) <= 1e-12 * scale
            tr = sum(tb.full() for tb in tables)
            g = tr[p * np.arange(n + 1)]
            g[p::p] += tr[1:n // p + 1]
            ref_trace = afe_assemble(lattice_sum_by_d(g, t, q, n, w), q, t)
            assert abs(mo.trace_route_moment(tables, p, t, tol) - ref_trace) <= 1e-12 * abs(ref_trace)

    @pytest.mark.parametrize("q", [37, 101])
    @pytest.mark.parametrize("t", [0.0, 0.5, -1.25])
    def test_weights_match_fixed_step_trapezoid(self, q, t):
        # V(k) = tau(k) k^{-1/2-it} sum_d d^{-1-2it} W_t(4 pi^2 k d^2 / q), from a kernel
        # grid of one unrefined trapezoid at step 0.0125 on Re u = 2
        n = {37: 2048, 101: 4096}[q]
        w = wt_fixed_step(t, 4.0 * math.pi ** 2 * np.arange(1, n + 1) / q)
        ref = np.zeros(n, dtype=np.complex128)
        for d in range(1, math.isqrt(n) + 1):
            if d % q != 0:
                m = n // (d * d)
                ref[:m] += w[d * d * np.arange(1, m + 1) - 1] * d ** (-1.0 - 2j * t)
        ref *= divisor_sieve(n)[1:] * np.arange(1, n + 1) ** (-0.5 - 1j * t)
        v = lv.afe_weights(q, t, n, 1e-8)
        assert np.max(np.abs(v - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_grid_miss_builds_v_once(self, eigen101, monkeypatch):
        _, tables = eigen101
        t, tol = 0.731, 1e-4
        calls = {"wt_grid": 0, "divisor_sieve": 0}
        for name in calls:
            def counted(*args, _fn=getattr(lv, name), _name=name):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(lv, name, counted)
        lv._afe_weights.cache_clear()
        n = lv.afe_cutoff(101, t, tol)
        v = lv.afe_weights(101, t, n, tol)
        lv.l_squared_many(tables, t, tol)
        lv.l_squared_many(tables, t, tol)
        mo.trace_route_moment(tables, 2, t, tol)
        assert lv.afe_weights(101, t, n, tol) is v
        assert calls == {"wt_grid": 1, "divisor_sieve": 1}


_SYNTHETIC_SUMS = """
import numpy as np
from lfmoments import heckespace as hs, lvalue as lv, moments as mo
from lfmoments.special import primes_up_to
primes = primes_up_to(32768)
rng = np.random.default_rng(401)
tables = [hs.EigenformTable(q=401, index=i, n_max=32768, primes=primes, sign=1, residual=0.0,
                            prime_lambda=rng.uniform(-2.0, 2.0, primes.size)) for i in range(33)]
sums = [r.value for t in (0.0, 0.5) for r in lv.l_squared_many(tables, t, 1e-4)]
sums += [mo.trace_route_moment(tables, 2, t, 1e-4) for t in (0.0, 0.5)]
print(np.array(sums).tobytes().hex())
"""


def test_lattice_sums_do_not_depend_on_blas_threads():
    # 33 forms x N = 16384, as at q=401, and the trace route's one long sum: a product
    # that size lets a second OpenBLAS thread take part of each sum
    outs = [subprocess.run([sys.executable, "-c", _SYNTHETIC_SUMS], capture_output=True, text=True,
                           env={**os.environ, "OPENBLAS_NUM_THREADS": n}, timeout=600, check=True).stdout
            for n in ("1", "2")]
    assert len(outs[0].strip()) == 2 * 68 * 16 and outs[0] == outs[1]  # 68 complex values, in hex


def test_cutoff_past_the_cap_raises_before_any_table():
    assert lv.afe_cutoff(101, 1.5, 1e-4) == 4096
    with pytest.raises(lv.CutoffCapError, match=r"AFE cutoff 4194304 at q=101, t=10.0, tol=0.0001 exceeds "
                                                 r"AFE_CUTOFF_MAX = 131072"):
        lv.afe_cutoff(101, 10.0, 1e-4)
    assert issubclass(lv.CutoffCapError, ValueError)
