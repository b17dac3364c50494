import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from lfmoments import heckespace as hs
from lfmoments.special import divisor_sieve, primes_up_to

from conftest import count_affine_points, eta_level11_coefficients


class TestGenusOracle:
    def test_reference_values(self):
        assert hs.genus_oracle(11) == 1
        assert hs.genus_oracle(13) == 0
        assert hs.genus_oracle(37) == 2
        assert hs.genus_oracle(101) == 8

    def test_rejects_composite(self):
        with pytest.raises(hs.UnsupportedLevelError):
            hs.genus_oracle(15)


class TestBuildSpace:
    def test_dims_match_genus(self):
        for q in primes_up_to(200).tolist():
            if q < 11:
                continue
            assert hs.build_space(q).dim == hs.genus_oracle(q)

    def test_empty_level_13(self):
        space = hs.build_space(13)
        assert space.dim == 0
        assert hs.eigen_split(space) == []

    def test_rejects_bad_levels(self):
        for q in (4, 9, 7, 5001):
            with pytest.raises(hs.UnsupportedLevelError):
                hs.build_space(q)

    def test_star_identity(self):
        for q in (11, 37, 101):
            assert hs.star_is_identity(hs.build_space(q))

    def test_coordinate_outside_half_integers_raises(self, monkeypatch):
        real_rref = hs._rref

        def third_rref(rows):  # one coefficient of one pivot row becomes 1/3
            pivots = real_rref(rows)
            c, row = next((c, r) for c, r in sorted(pivots.items()) if len(r) > 1)
            row[next(cc for cc in row if cc != c)] = Fraction(1, 3)
            return pivots

        monkeypatch.setattr(hs, "_rref", third_rref)
        with pytest.raises(hs.HeckeError, match=r"symbol \d+ has a coordinate outside 1/2 Z at q=37"):
            hs.build_space(37)

    def test_level4999(self):
        # the largest supported level: genus 416, star = +1, T2 keeps the cusp forms
        space = hs.build_space(4999)
        assert space.dim == hs.genus_oracle(4999) == 416
        assert hs.star_is_identity(space)
        assert len(hs.hecke_matrix(space, 2)) == 416


class TestHeckeMatrices:
    def test_t1_is_identity(self, eigen37):
        space, _ = eigen37
        m = hs.hecke_matrix(space, 2)
        assert len(m) == space.dim
        # X_1 is the identity matrix alone, so twice T_1 is twice the identity
        t2 = hs._hecke2(space, 1)
        assert t2.dtype == np.int64 and t2.flags.c_contiguous
        assert np.array_equal(t2, 2 * np.eye(space.n_free, dtype=np.int64))

    def test_exact_commutation(self):
        for q in (37, 401):
            space = hs.build_space(q)
            g = space.dim
            mats = {n: hs.hecke_matrix(space, n) for n in (2, 3, 5, 7)}
            pairs = [(2, 3), (2, 7), (3, 5), (5, 7)]
            for a, b in pairs:
                ab = [[sum(mats[a][i][k] * mats[b][k][j] for k in range(g)) for j in range(g)]
                      for i in range(g)]
                ba = [[sum(mats[b][i][k] * mats[a][k][j] for k in range(g)) for j in range(g)]
                      for i in range(g)]
                assert ab == ba, (q, a, b)

    def test_level11_t2_eigenvalue(self, eigen11):
        space, tables = eigen11
        m = hs.hecke_matrix(space, 2)
        assert len(m) == 1
        # X_0(11) point count over F_2 gives a_2 = -2
        assert m[0][0] == Fraction(-2)
        assert abs(tables[0].lam(2) + 2.0 / math.sqrt(2)) < 1e-10

    def test_composite_rejected(self, eigen11):
        space, _ = eigen11
        with pytest.raises(hs.HeckeError):
            hs.hecke_matrix(space, 6)


class TestEigenSplit:
    def test_level11_eigenvalues(self, eigen11):
        _, tables = eigen11
        assert len(tables) == 1
        t = tables[0]
        assert abs(t.lam(2) - (-1.414214)) < 1e-6
        assert abs(t.lam(3) - (-0.577350)) < 1e-6
        assert t.residual <= 1e-8

    def test_level37_trace_consistency(self, eigen37):
        space, tables = eigen37
        assert len(tables) == 2
        assert abs(tables[0].lam(2) - tables[1].lam(2)) > 1e-6
        m2 = hs.hecke_matrix(space, 2)
        tr = float(sum(m2[i][i] for i in range(2)))
        assert abs(sum(t.lam(2) for t in tables) * math.sqrt(2) - tr) < 1e-8

    def test_determinism(self):
        space = hs.build_space(37)
        t1 = hs.extend_prime_eigenvalues(space, hs.eigen_split(space, seed=5), 256)
        t2 = hs.extend_prime_eigenvalues(space, hs.eigen_split(space, seed=5), 256)
        for a, b in zip(t1, t2):
            assert np.array_equal(a.prime_lambda, b.prime_lambda)

    def test_eta_product_oracle_level11(self, eigen11):
        _, tables = eigen11
        n_max = 2048
        a = eta_level11_coefficients(n_max)
        lam = tables[0].full(n_max)
        n = np.arange(1, n_max + 1, dtype=np.float64)
        assert np.max(np.abs(lam[1:n_max + 1] - a[1:] / np.sqrt(n))) < 1e-10

    def test_point_count_oracle_level37(self, eigen37):
        _, tables = eigen37
        curves = {
            "rank1": (0, 0, 1, -1, 0),       # y^2 + y = x^3 - x
            "rank0": (0, 1, 1, -23, -50),    # y^2 + y = x^3 + x^2 - 23x - 50
        }
        small_primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 41, 43, 47]
        for coeffs in curves.values():
            aps = {p: p + 1 - count_affine_points(*coeffs, p) for p in small_primes}
            best = min(
                tables,
                key=lambda t: max(abs(t.lam(p) * math.sqrt(p) - aps[p]) for p in small_primes),
            )
            worst = max(abs(best.lam(p) * math.sqrt(p) - aps[p]) for p in small_primes)
            assert worst < 1e-8

    def test_split_retry_level1201(self):
        # two forms share a_2, a_3 and a_5 here, so the split needs T7 and T11
        space = hs.build_space(1201)
        tables = hs.extend_prime_eigenvalues(space, hs.eigen_split(space, 0), 64)
        assert len(tables) == space.dim == hs.genus_oracle(1201) == 99
        for n in (2, 3, 5, 7, 11, 13):
            mat = hs.hecke_matrix(space, n)
            tr_exact = float(sum(mat[i][i] for i in range(space.dim)))
            assert abs(hs.trace(space, tables, n) * math.sqrt(n) - tr_exact) < 1e-8

    def test_path_engine_matches_exact_matrices(self, eigen37):
        space, tables = eigen37
        for n in primes_up_to(50).tolist():
            mat = hs.hecke_matrix(space, n)
            tr_exact = float(sum(mat[i][i] for i in range(space.dim))) / math.sqrt(n)
            assert abs(hs.trace(space, tables, n) - tr_exact) < 1e-8

    @pytest.mark.parametrize("q", [37, 101, 401])
    def test_split_matches_two_eig_rayleigh_route(self, q, monkeypatch):
        space = hs.build_space(q)
        calls = []
        real_eig = np.linalg.eig
        monkeypatch.setattr(np.linalg, "eig", lambda a: calls.append(a.shape) or real_eig(a))
        tables = hs.eigen_split(space, 0)
        assert calls == [(space.dim + 1, space.dim + 1)]  # one eig, of the combination itself
        monkeypatch.undo()
        for t, exact in zip(tables, _rayleigh_lambdas(space, tables, ())):
            for n in (2, 3, 5):
                assert abs(t.lam(n) - exact[n]) < 1e-9, (q, t.index, n)

    def test_ill_conditioned_eigenvectors_raise(self, monkeypatch):
        real_eig = np.linalg.eig

        def near_singular_eig(a):
            ev, w = real_eig(a)
            w[:, 1] = w[:, 0] + 1e-12 * w[:, 1]
            return ev, w

        monkeypatch.setattr(np.linalg, "eig", near_singular_eig)
        with pytest.raises(hs.SplitFailureError, match="condition number"):
            hs.eigen_split(hs.build_space(101), 0)


def _rayleigh_lambdas(space, tables, ells):
    """lambda_f(ell) per table, from the exact hecke_matrix on the cuspidal basis.

    Left and right eigenvectors of a fixed combination of exact T2..T11 give
    two-sided Rayleigh quotients; each table is matched to the eigenvector
    pair whose lambda at 2, 3, 5 is closest to its own.
    """
    mats = {n: np.array(hs.hecke_matrix(space, n), dtype=np.float64)
            for n in sorted({2, 3, 5, 7, 11, *ells})}
    amat = sum(c * mats[n] for c, n in zip((3, 5, 7, 11, 13), (2, 3, 5, 7, 11)))
    ev, w = np.linalg.eig(amat)
    evl, u = np.linalg.eig(amat.T)
    assert np.max(np.abs(ev.imag)) < 1e-8 and np.min(np.diff(np.sort(ev.real))) > 1e-4
    w, u = w.real[:, np.argsort(ev.real)], u.real[:, np.argsort(evl.real)]
    pairs = []
    for i in range(space.dim):
        denom = u[:, i] @ w[:, i]
        pairs.append({n: u[:, i] @ m @ w[:, i] / denom / math.sqrt(n) for n, m in mats.items()})
    out = []
    for t in tables:
        best = min(pairs, key=lambda lam: max(abs(lam[n] - t.lam(n)) for n in (2, 3, 5)))
        assert max(abs(best[n] - t.lam(n)) for n in (2, 3, 5)) < 1e-9
        out.append(best)
    return out


class TestPathEngine:
    def _check_against_exact(self, space, tables, ells=(7, 11, 13)):
        q = space.q
        on_zero = [abs(t.dual_vector[q]) >= 0.1 for t in tables]
        assert any(on_zero) and not all(on_zero)  # both bases are exercised
        for t, exact in zip(tables, _rayleigh_lambdas(space, tables, ells)):
            for ell in ells:
                assert abs(t.lam(ell) - exact[ell]) < 1e-9, (q, t.index, ell)

    def test_both_bases_match_exact_route_level101(self, eigen101):
        self._check_against_exact(*eigen101)

    def test_both_bases_match_exact_route_level401(self):
        space = hs.build_space(401)
        tables = hs.extend_prime_eigenvalues(space, hs.eigen_split(space, 0), 64)
        self._check_against_exact(space, tables)

    @pytest.mark.parametrize("q", [37, 101])
    def test_traces_match_exact_matrices_to_100(self, q, eigen_cache):
        # independent of the path engine: Tr T_ell of the exact Merel matrix, ell = q is U_q
        space, tables = eigen_cache(q)
        assert len({abs(t.dual_vector[q]) >= 0.1 for t in tables}) == 2  # both bases
        for ell in primes_up_to(100).tolist():
            mat = hs.hecke_matrix(space, ell)
            exact = float(sum(mat[i][i] for i in range(space.dim)))
            assert abs(math.sqrt(ell) * sum(t.lam(ell) for t in tables) - exact) < 1e-9, (q, ell)

    @pytest.mark.parametrize("q", [11, 101])
    def test_cf_counts_match_python_convergents(self, q):
        # the engine's Moebius recurrence against P^1 indices of the convergents themselves
        rng = np.random.default_rng(q)
        dens = rng.integers(1, 10**6, 300).tolist() + [1, 7, q, 5 * q]
        nums = rng.integers(-10**6, 10**6, 300).tolist() + [5, 1, 1 - 3 * q * q, 1]
        space = hs.build_space(q)
        counts = hs._cf_counts(q, space.inv_table, [np.array([n]) for n in nums], dens)
        for row, num, den in zip(counts, nums, dens):
            a = num // den
            num, den = den, num - a * den
            hits, qprev, qcur, sgn = [0], 0, 1, 1  # step 0 hits (1:0)
            while den:
                a = num // den
                num, den = den, num - a * den
                qprev, qcur = qcur, a * qcur + qprev
                hits.append(int(hs._p1(space.inv_table, q, qcur, sgn * qprev)))
                sgn = -sgn
            assert np.array_equal(row, np.bincount(hits, minlength=q + 1))
        assert counts.sum() > 2 * len(nums)  # most paths take several steps

    def test_table_shorter_than_five(self):
        # the exact cross-check covers only the primes 2, 3, 5 that n_max reaches
        space = hs.build_space(11)
        tables = hs.extend_prime_eigenvalues(space, hs.eigen_split(space, 0), 4)
        assert tables[0].primes.tolist() == [2, 3]
        assert abs(tables[0].lam(3) + 1.0 / math.sqrt(3)) < 1e-10

    def test_ill_conditioned_base_raises(self):
        space = hs.build_space(37)
        tables = hs.eigen_split(space, 0)
        # shrink the generic-base entries of every form that (0:1) cannot serve
        bad = []
        for t in tables:
            dual = t.dual_vector.copy()
            if abs(dual[37]) < 0.1:
                dual[1:37] *= 1e-4
            bad.append(dataclasses.replace(t, dual_vector=dual))
        assert any(abs(t.dual_vector[37]) < 0.1 for t in bad)
        with pytest.raises(hs.HeckeError, match=r"no well-conditioned base symbol at q=37.*< 1e-3"):
            hs.extend_prime_eigenvalues(space, bad, 64)


class TestLambdaExtend:
    def test_multiplicativity_examples(self, eigen11):
        _, tables = eigen11
        t = tables[0]
        assert abs(t.lam(6) - t.lam(2) * t.lam(3)) < 1e-12
        assert abs(t.lam(4) - (t.lam(2) ** 2 - 1.0)) < 1e-12
        assert abs(t.lam(121) - t.lam(11) ** 2) < 1e-12

    def test_hecke_relation_random_pairs(self, eigen101):
        _, tables = eigen101
        rng = np.random.default_rng(17)
        n_max = tables[0].n_max
        lams = [t.full(n_max) for t in tables]
        for _ in range(500):
            m = int(rng.integers(1, 128))
            n = int(rng.integers(1, n_max // m))
            g = math.gcd(m, n)
            for lam in lams[:3]:
                rhs = sum(
                    lam[m * n // (d * d)]
                    for d in range(1, g + 1)
                    if g % d == 0 and d % 101 != 0
                )
                assert abs(lam[m] * lam[n] - rhs) < 1e-8

    def test_deligne_bound(self, eigen101):
        _, tables = eigen101
        tau = divisor_sieve(tables[0].n_max)
        for t in tables:
            lam = t.full()
            assert np.all(np.abs(lam[1:]) <= tau[1:] + 1e-6)

    def test_lambda_q_squared(self, eigen101):
        _, tables = eigen101
        for t in tables:
            assert abs(t.lam(101) ** 2 - 1.0 / 101.0) < 1e-8

    def test_missing_prime_error(self, eigen11):
        _, tables = eigen11
        with pytest.raises(hs.MissingEigenvalueError):
            tables[0].full(10 ** 6)

    def test_one_missing_prime_is_named(self, eigen101):
        _, tables = eigen101
        t = tables[0]
        keep = t.primes != 547
        short = dataclasses.replace(t, primes=t.primes[keep], prime_lambda=t.prime_lambda[keep])
        with pytest.raises(hs.MissingEigenvalueError, match=r"below 16384: \[547\]"):
            short.full()

    def test_replaced_table_extends_its_new_lambda(self, eigen37):
        _, tables = eigen37
        t = tables[0]
        t.full()
        half = dataclasses.replace(t, prime_lambda=np.full_like(t.prime_lambda, 0.5))
        assert half.full()[2] == 0.5 and half.full()[4] == 0.5 * 0.5 - 1.0
        assert np.array_equal(t.full()[t.primes], t.prime_lambda)

    def test_matches_trial_division_reference(self, eigen37, eigen101):
        # bit for bit: both peel the smallest prime power off each n
        for _, tables in (eigen37, eigen101):
            for t in tables:
                assert np.array_equal(t.full(), _lambda_by_trial_division(t, t.n_max))


def _lambda_by_trial_division(table: hs.EigenformTable, n_max: int) -> np.ndarray:
    """lambda_f(n) for n <= n_max, one n at a time: n = p^e m with p the
    smallest prime factor of n, found by trial division."""
    prime_lambda = dict(zip(table.primes.tolist(), table.prime_lambda.tolist()))
    lam = [0.0, 1.0]
    for n in range(2, n_max + 1):
        p = next((d for d in range(2, math.isqrt(n) + 1) if n % d == 0), n)
        pe, m = 1, n
        while m % p == 0:
            pe, m = pe * p, m // p
        if m > 1:
            lam.append(lam[pe] * lam[m])
        elif pe == p:
            lam.append(prime_lambda[p])
        elif p == table.q:
            lam.append(lam[pe // p] * lam[p])
        else:
            lam.append(lam[p] * lam[pe // p] - lam[pe // (p * p)])
    return np.array(lam)


class TestTrace:
    def test_trace_of_identity(self, eigen11):
        space, tables = eigen11
        assert hs.trace(space, tables, 1) == len(tables)

    def test_level11_t2(self, eigen11):
        space, tables = eigen11
        assert abs(hs.trace(space, tables, 2) + 1.414214) < 1e-6

    def test_square_trace_trend(self):
        # Tr(T_4) ~ q/24 with a very loose window at one mid-size level
        q = 503
        space = hs.build_space(q)
        tables = hs.extend_prime_eigenvalues(space, hs.eigen_split(space, 0), 8)
        tr4 = hs.trace(space, tables, 4)
        assert abs(tr4 - q / 24.0) < 40.0 * q ** 0.3


class TestFunctionalEquationSign:
    def test_level11_positive(self, eigen11):
        _, tables = eigen11
        assert tables[0].sign == 1

    def test_level37_has_odd_form(self, eigen37):
        _, tables = eigen37
        signs = sorted(t.sign for t in tables)
        assert signs == [-1, 1]

    def test_sign_squares_to_one(self, eigen101):
        _, tables = eigen101
        assert all(t.sign in (-1, 1) for t in tables)

    def test_sign_off_unit_raises(self, eigen11, monkeypatch):
        space, _ = eigen11
        engine = hs._path_accumulators

        def off_at_q(space, ells, v):  # sqrt(11) lambda_f(11) becomes 0.9
            acc0, accv = engine(space, ells, v)
            at_q = np.array(ells) == space.q
            acc0[at_q] *= 0.9
            if accv is not None:
                accv[at_q] *= 0.9
            return acc0, accv

        monkeypatch.setattr(hs, "_path_accumulators", off_at_q)
        with pytest.raises(hs.IndeterminateSignError, match="q=11, form 0"):
            hs.extend_prime_eigenvalues(space, hs.eigen_split(space, seed=0), 64)

    def test_sign_matches_lambda_q(self, eigen101):
        # prime-level fact: eps_f = + sqrt(q) lambda_f(q)
        _, tables = eigen101
        for t in tables:
            assert abs(t.sign - math.sqrt(101) * t.lam(101)) < 1e-6
