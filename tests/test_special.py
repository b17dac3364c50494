import cmath
import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from lfmoments import special as sp

mp.mp.dps = 30


class TestGamma:
    def test_known_values(self):
        assert abs(sp.gamma(1.0) - 1.0) < 1e-14
        assert abs(sp.gamma(0.5) - math.sqrt(math.pi)) < 1e-14
        assert abs(sp.gamma(5.0) - 24.0) < 1e-12

    def test_complex_value_against_quadrature_oracle(self):
        # Gamma(1+i) = int_0^infty x^i e^{-x} dx, evaluated by direct quadrature
        re, _ = quad(lambda x: math.cos(math.log(x)) * math.exp(-x), 0, 60, limit=400)
        im, _ = quad(lambda x: math.sin(math.log(x)) * math.exp(-x), 0, 60, limit=400)
        assert abs(sp.gamma(1 + 1j) - complex(re, im)) < 1e-10

    def test_accuracy_on_spec_region(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            s = complex(rng.uniform(-20, 50), rng.uniform(-50, 50))
            if abs(s.imag) < 1e-3 and s.real <= 0.5:
                continue
            mine = sp.gamma(s)
            ref = complex(mp.gamma(mp.mpc(s)))
            assert abs(mine - ref) <= 1e-12 * abs(ref)

    def test_functional_equation(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            s = complex(rng.uniform(0.05, 10), rng.uniform(-20, 20))
            assert abs(sp.gamma(s + 1) / sp.gamma(s) - s) < 1e-10

    def test_conjugation(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            s = complex(rng.uniform(-5, 10), rng.uniform(-20, 20))
            if abs(s.imag) < 1e-6:
                continue
            assert abs(sp.gamma(s.conjugate()) - sp.gamma(s).conjugate()) <= 1e-12 * abs(sp.gamma(s))

    def test_pole_error(self):
        for s in (0.0, -1.0, -7.0):
            with pytest.raises(sp.PoleError):
                sp.gamma(s)


class TestZeta:
    def test_closed_values(self):
        assert abs(sp.zeta(2.0) - math.pi ** 2 / 6) < 1e-12
        assert abs(sp.zeta(4.0) - math.pi ** 4 / 90) < 1e-12

    def test_complex_against_doubled_precision_oracle(self):
        # independent Euler-Maclaurin at 30 digits via mpmath
        for s in (2 + 2j, 0.5 + 10j, -0.5 + 20j, 3 - 40j, 1.5 + 100j):
            ref = complex(mp.zeta(mp.mpc(s)))
            assert abs(sp.zeta(s) - ref) <= 1e-10 * max(abs(ref), 1e-3)

    def test_conjugation(self):
        for s in (2 + 3j, 0.3 + 11j, -1 + 45j):
            assert abs(sp.zeta(s.conjugate()) - sp.zeta(s).conjugate()) <= 1e-12 * abs(sp.zeta(s))

    def test_pole_guard(self):
        with pytest.raises(sp.PoleError):
            sp.zeta(1.0 + 1e-12j)

    def test_euler_product(self):
        prod = 1.0
        for p in sp.primes_up_to(100_000).tolist():
            prod /= 1.0 - p ** -3.0
        assert abs(complex(sp.zeta(3.0)).real - prod) <= 1e-4

    def test_vectorized_matches_scalar(self):
        arr = np.array([2 + 2j, 4.0 + 0j, 0.2 + 5j, -0.5 + 12j])
        vec = sp.zeta_vec(arr)
        ref = np.array([sp.zeta(complex(z)) for z in arr])
        assert np.max(np.abs(vec - ref)) < 1e-12


class TestZetaQ:
    def test_definition(self):
        assert abs(sp.zeta_q(2.0, 11) - (1 - 1 / 121) * math.pi ** 2 / 6) < 1e-12

    def test_ratio(self):
        assert abs(sp.zeta_q(2.0, 101) / sp.zeta(2.0) - (1 - 101.0 ** -2)) < 1e-12

    def test_compositional(self):
        s = 1 + 2j
        expect = (1 - cmath.exp(-s * math.log(11))) * sp.zeta(s)
        assert abs(sp.zeta_q(s, 11) - expect) <= 1e-12 * abs(expect)


class TestZetaLogDeriv:
    def test_value_at_2_two_routes(self):
        val = sp.zeta_log_deriv(2.0)
        h = 1e-5
        fd = (math.log(abs(complex(sp.zeta(2 + h)).real))
              - math.log(abs(complex(sp.zeta(2 - h)).real))) / (2 * h)
        assert abs(val - fd) < 1e-8
        vm = sp.von_mangoldt_log_deriv(2.0, 1_000_000)
        assert abs(val - vm) < 1e-8
        assert abs(val - (-0.5699)) < 1e-3

    def test_value_at_4(self):
        v2, v4 = sp.zeta_log_deriv(2.0), sp.zeta_log_deriv(4.0)
        assert v4 < 0 and abs(v4) < abs(v2)
        vm = sp.von_mangoldt_log_deriv(4.0, 100_000)
        assert abs(v4 - vm) < 1e-10

    def test_decay(self):
        assert abs(sp.zeta_log_deriv(30.0)) < 1e-8

    def test_precondition(self):
        with pytest.raises(sp.SpecialFunctionError):
            sp.zeta_log_deriv(1.2)


class TestZetaConstants:
    def test_invariants(self):
        c = sp.zeta_constants()
        assert abs(c.zeta2 - math.pi ** 2 / 6) < 1e-12
        assert abs(c.zeta4 - math.pi ** 4 / 90) < 1e-12
        assert c.zeta2_logderiv < 0 and c.zeta4_logderiv < 0
        assert abs(c.euler_gamma - 0.5772156649015329) < 1e-15


class TestArithmetic:
    def test_divisor_count(self):
        assert sp.divisor_count(1) == 1
        assert sp.divisor_count(12) == 6
        assert sp.divisor_count(4 * 9) == 9

    def test_divisor_multiplicativity(self):
        rng = np.random.default_rng(3)
        done = 0
        while done < 1000:
            a = int(rng.integers(1, 3000))
            b = int(rng.integers(1, 3000))
            if math.gcd(a, b) != 1:
                continue
            assert sp.divisor_count(a * b) == sp.divisor_count(a) * sp.divisor_count(b)
            done += 1

    def test_divisor_sieve(self):
        t = sp.divisor_sieve(600)
        for n in (1, 2, 12, 64, 360, 599):
            assert t[n] == sp.divisor_count(n)
        t = sp.divisor_sieve(5000)
        assert t[0] == 0
        assert t[1:].tolist() == [sp.divisor_count(k) for k in range(1, 5001)]
        for n in (1, 2, 3, 4):
            assert sp.divisor_sieve(n).tolist() == [0] + [sp.divisor_count(k) for k in range(1, n + 1)]

    def test_primes(self):
        assert sp.primes_up_to(10).tolist() == [2, 3, 5, 7]
        assert sp.primes_up_to(2).tolist() == [2]
        assert len(sp.primes_up_to(1_000_000)) == 78498
