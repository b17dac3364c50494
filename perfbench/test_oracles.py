"""The benchmark's oracles against known values.

    python3 -m pytest -q perfbench/test_oracles.py
"""

from __future__ import annotations

import math
import os
import sys
from fractions import Fraction

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracles  # noqa: E402


def eta_product_level11(n_max: int) -> list[int]:
    """a_n of q prod (1-q^n)^2 (1-q^{11n})^2, the level-11 newform, n = 0..n_max."""
    c = [0] * n_max
    c[0] = 1
    for n in range(1, n_max):
        for step in (n, n, 11 * n, 11 * n):
            if step < n_max:
                for k in range(n_max - 1, step - 1, -1):
                    c[k] -= c[k - step]
    return [0] + c


def test_hurwitz_class_numbers():
    assert oracles.hurwitz_class_number(0) == Fraction(-1, 12)
    assert oracles.hurwitz_class_number(3) == Fraction(1, 3)
    assert oracles.hurwitz_class_number(4) == Fraction(1, 2)
    assert [oracles.hurwitz_class_number(d) for d in (7, 8, 11, 12, 15, 16, 20, 23)] == \
        [1, 1, 1, Fraction(4, 3), 2, Fraction(3, 2), 2, 3]
    assert oracles.hurwitz_class_number(5) == 0


def test_genus():
    assert [oracles.genus(q) for q in (11, 13, 37, 83, 101, 163)] == [1, 0, 2, 7, 8, 13]


def test_eichler_selberg_matches_eta_product_at_level_11():
    a = eta_product_level11(40)
    assert [oracles.eichler_selberg_trace(n, 11) for n in range(1, 31)] == a[1:31]


def test_hecke_lambda_rebuilds_eta_coefficients():
    a = eta_product_level11(130)
    primes = {p: a[p] / math.sqrt(p) for p in (2, 3, 5, 7, 11, 13)}
    for n in (4, 8, 12, 24, 25, 27, 121):
        assert abs(oracles.hecke_lambda(primes, 11, n) * math.sqrt(n) - a[n]) < 1e-9


def test_central_value_and_mpmath_afe_at_level_11():
    a = eta_product_level11(120)
    lam = [0.0] + [a[n] / math.sqrt(n) for n in range(1, 120)]
    l_e11 = 0.25384186085591068433  # L(E, 1) for the curve 11a
    assert abs(oracles.central_value(lam, 1, 11) - l_e11) < 1e-14
    assert abs(oracles.l_values_mpmath([lam], [1], 11, 0.0)[0] - l_e11) < 1e-14
    up, down = oracles.l_values_mpmath([lam, lam], [1, 1], 11, 0.7), \
        oracles.l_values_mpmath([lam], [1], 11, -0.7)
    assert abs(up[0] - down[0].conjugate()) < 1e-14 and up[0] == up[1]


def tau_of_square(n: int) -> int:
    out, p = 1, 2
    while n > 1:
        if p * p > n:
            p = n
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        out *= 2 * e + 1
        p += 1
    return out


def test_tau_square_closed_form():
    assert abs(oracles.tau_square_closed_mpmath("plain", 2, 2.0) - 5 * math.pi ** 2 / 12) < 1e-13
    limit = 1000
    partial = sum(tau_of_square(n) / n ** 3 for n in range(1, limit + 1))
    tail = oracles.tau_square_closed_mpmath("plain", 2, 3.0).real - partial
    assert 0 < tail < oracles.tau_square_tail_bound(limit, 3.0)
