"""Weight-2 modular symbols for Gamma_0(q), q prime, and Hecke eigendata.

The construction is the classical one.  Manin symbols are indexed by
P^1(Z/q) (q+1 points for prime q).  The plus-quotient is cut out by the
exact relations

    x + xS = 0,    x + xT + xT^2 = 0,    x - x eta = 0,

with S = [[0,-1],[1,0]], T = [[0,-1],[1,-1]], eta = [[-1,0],[0,1]] acting
on the right on row vectors (c,d).  The S/eta relations are collapsed by a
sign-tracking union-find; the 3-term relations are then reduced by sparse
fraction-exact Gaussian elimination.  Every coordinate of a symbol in the
quotient lies in 1/2 Z (Cremona, Algorithms for Modular Elliptic Curves,
ch. 2; Merel 1994), so the quotient is held as one int64 table R2 of twice
the coordinates of every symbol.  At prime level the boundary map to the
cusps {0, infinity} is a single functional, whose kernel is the cuspidal
plus-quotient; its dimension equals the genus of X_0(q).

Hecke operators act two ways, and the routes cross-check each other:

  * Merel's determinant-n set maps all free symbols at once, and one gather
    over R2 sums their images into twice T_n on the quotient, in int64
    (_hecke2).  Halved, it is the float T_n of the eigen split;
    hecke_matrix cuts it to exact rational matrices on the cuspidal basis,
    used for small primes and every exact invariant (commutativity);
  * Cremona's Heilbronn matrices for eigenvalues at every prime l: the
    nearest-integer continued fractions of r/l, 1 <= r <= l/2, carry one
    generic base symbol (1:v), shared by every form, to its image under
    T_l (_heilbronn_counts), and each form's dual eigenvector read on the
    counts gives its a_l.  About l/2 continued fractions per prime serve
    all forms.

Eigenvalues are stored in the normalization lambda_f(n) = a_n / sqrt(n),
so lambda_f(1) = 1 and the multiplicative relation of the Fourier
coefficients holds verbatim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache

import numpy as np
from numpy.random import default_rng  # loaded with the package, not in the first split

from .special import fixed_matmul, is_prime, primes_up_to

__all__ = [
    "HeckeError",
    "UnsupportedLevelError",
    "SplitFailureError",
    "MissingEigenvalueError",
    "IndeterminateSignError",
    "HeckeSpace",
    "EigenformTable",
    "genus_oracle",
    "build_space",
    "merel_matrices",
    "hecke_matrix",
    "eigen_split",
    "extend_prime_eigenvalues",
    "lambda_extend",
    "trace",
]

_F0 = Fraction(0)
_F1 = Fraction(1)


class HeckeError(RuntimeError):
    pass


class UnsupportedLevelError(HeckeError):
    pass


class SplitFailureError(HeckeError):
    pass


class MissingEigenvalueError(HeckeError):
    pass


class IndeterminateSignError(HeckeError):
    pass


def genus_oracle(q: int) -> int:
    """Genus of X_0(q) for prime q >= 5, by the closed formula."""
    if not is_prime(q) or q < 5:
        raise UnsupportedLevelError(f"genus_oracle needs a prime q >= 5, got {q}")
    nu2 = 2 if q % 4 == 1 else 0
    nu3 = 2 if q % 3 == 1 else 0
    num = (q + 1) - 3 * nu2 - 4 * nu3
    if num % 12 != 0:
        raise HeckeError(f"genus formula not integral at q={q}")
    return num // 12


# ---------------------------------------------------------------------------
# P^1(Z/q) and the relation quotient


class _SignedUnionFind:
    """Union-find over symbol indices with a sign on each edge.

    class(i) = sign(i) * class(root(i)); a root may be marked dead, which
    means its whole class is 0 in the quotient.
    """

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.sign = [1] * n
        self.dead = [False] * n

    def resolve(self, i: int) -> tuple[int, int]:
        """Return (root, sign) with class(i) = sign*class(root)."""
        s = 1
        while self.parent[i] != i:
            s *= self.sign[i]
            i = self.parent[i]
        return i, s

    def union(self, i: int, j: int, rel_sign: int) -> None:
        """Impose class(i) = rel_sign * class(j)."""
        ri, si = self.resolve(i)
        rj, sj = self.resolve(j)
        if ri == rj:
            if si != rel_sign * sj:
                self.dead[ri] = True
            return
        # class(ri) = si^{-1} rel_sign sj class(rj); signs are +-1
        self.parent[ri] = rj
        self.sign[ri] = si * rel_sign * sj
        if self.dead[ri]:
            self.dead[rj] = True

    def is_dead(self, i: int) -> bool:
        r, _ = self.resolve(i)
        return self.dead[r]


def _rref(rows: list[dict[int, Fraction]]) -> dict[int, dict[int, Fraction]]:
    """Sparse RREF; returns pivot column -> normalized row (pivot coeff 1)."""
    pivots: dict[int, dict[int, Fraction]] = {}
    for row in rows:
        r = {c: v for c, v in row.items() if v != 0}
        while r:
            c = min(r)
            if c not in pivots:
                break
            f = r.pop(c)
            for cc, vv in pivots[c].items():
                if cc == c:
                    continue
                nv = r.get(cc, _F0) - f * vv
                if nv:
                    r[cc] = nv
                else:
                    r.pop(cc, None)
        if r:
            c = min(r)
            f = r.pop(c)
            newrow = {c: _F1}
            for cc, vv in r.items():
                newrow[cc] = vv / f
            pivots[c] = newrow
    for c in sorted(pivots, reverse=True):
        row = pivots[c]
        for c2 in [cc for cc in row if cc != c and cc in pivots]:
            f = row.pop(c2)
            for cc, vv in pivots[c2].items():
                if cc == c2:
                    continue
                nv = row.get(cc, _F0) - f * vv
                if nv:
                    row[cc] = nv
                else:
                    row.pop(cc, None)
    return pivots


@dataclass
class HeckeSpace:
    """The cuspidal plus-quotient of weight-2 Manin symbols for Gamma_0(q).

    dim equals the genus of X_0(q).  R2 (int64, n_free x (q+2)) holds twice
    the quotient coordinates of the symbol with P^1 index i in column i (see
    _p1); column q+1, the (0:0) image of U_q, is zero.  hecke2_cache maps n
    to twice T_n on the full quotient (_hecke2), hecke_cache prime n to the
    exact rational T_n on the cuspidal basis (eigenvalues are the integral
    a_n; the paper normalization a_n/sqrt(n) is applied at eigenvalue
    extraction).
    """

    q: int
    dim: int
    n_free: int                    # dim of the full plus-quotient (genus+1)
    free_symbols: np.ndarray       # free generator -> symbol index (int64)
    boundary: np.ndarray           # boundary functional on free gens, entries in {-1, 0, 1}
    boundary_pivot: int            # index j* used to cut the cuspidal kernel
    cusp_cols: list[int]           # free-gen index of each cuspidal basis vector
    R2: np.ndarray                 # int64 (n_free, q+2): twice the symbol coordinates
    inv_table: np.ndarray          # modular inverses, inv_table[a] = a^{-1} mod q
    hecke_cache: dict[int, list[list[Fraction]]] = field(default_factory=dict)
    hecke2_cache: dict[int, np.ndarray] = field(default_factory=dict)


def _p1(inv: np.ndarray, q: int, c, d) -> np.ndarray:
    """P^1(Z/q) index of the rows (c, d): (1:v) -> v, (0:1) -> q, (0:0) -> q+1."""
    c, d = np.mod(c, q), np.mod(d, q)
    return np.where(c != 0, inv[c] * d % q, np.where(d != 0, q, q + 1))


def _rows(q: int, i: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows (c, d) of the symbols with P^1 index i: (1, i), and (0, 1) at i = q."""
    return (i < q).astype(np.int64), np.where(i < q, i, 1)


def build_space(q: int) -> HeckeSpace:
    """Construct the cuspidal plus-quotient for prime q, 11 <= q <= 5000.

    Genus-zero primes (q in {2,3,5,7,13}) are rejected by the lower bound
    except q=13, which builds an empty space (dim 0).
    """
    if not is_prime(q) or q < 11 or q > 5000:
        raise UnsupportedLevelError(f"level must be a prime in [11, 5000], got {q}")
    n_sym = q + 1
    inv_table = np.zeros(q, dtype=np.int64)
    inv_table[1:] = np.array([pow(a, q - 2, q) for a in range(1, q)], dtype=np.int64)
    c, d = _rows(q, np.arange(n_sym))
    xs, xeta, xt, xt2 = (_p1(inv_table, q, u, v).tolist()
                         for u, v in ((d, -c), (-c, d), (d, -c - d), (-c - d, c)))

    uf = _SignedUnionFind(n_sym)
    for i in range(n_sym):
        uf.union(i, xs[i], -1)            # x = -xS
        uf.union(i, xeta[i], 1)           # x = x eta  (plus-quotient)

    # 3-term relations on union-find classes, one per T-orbit {x, xT, xT^2},
    # listed at the orbit's smallest member
    rows: list[dict[int, Fraction]] = []
    for i, j, k in zip(range(n_sym), xt, xt2):
        if i > j or i > k:
            continue
        row: dict[int, Fraction] = {}
        for s_idx in (i, j, k):
            root, sgn = uf.resolve(s_idx)
            if not uf.dead[root]:
                row[root] = row.get(root, _F0) + sgn
        if row := {cc: vv for cc, vv in row.items() if vv != 0}:
            rows.append(row)

    pivots = _rref(rows)
    roots = sorted({uf.resolve(i)[0] for i in range(n_sym) if not uf.is_dead(i)})
    free_pos = {r: p for p, r in enumerate(root for root in roots if root not in pivots)}
    free_symbols, n_free = np.array(list(free_pos), dtype=np.int64), len(free_pos)

    # twice the exact coordinates of each class root on the free generators
    coords = {r: [(p, 2)] for r, p in free_pos.items()}
    for r, expr in pivots.items():
        coords[r] = [(free_pos[c2], -2 * v) for c2, v in expr.items() if c2 != r]
        if any(v.denominator != 1 for _, v in coords[r]):
            raise HeckeError(f"symbol {r} has a coordinate outside 1/2 Z at q={q}")
    pos, col, val = zip(*[(p, i, sgn * int(v)) for i in range(n_sym)
                          for root, sgn in (uf.resolve(i),)
                          for p, v in coords.get(root, ())])  # dead classes have none
    R2 = np.zeros((n_free, n_sym + 1), dtype=np.int64)
    R2[pos, col] = val

    # boundary functional: +1 on (0:1) [index q], -1 on (1:0) [index 0]
    beta = np.zeros(n_sym, dtype=np.int64)
    beta[q], beta[0] = 1, -1
    boundary = beta[free_symbols]
    if not boundary.any():
        raise HeckeError(f"boundary functional vanished at q={q}")
    # exact consistency of the descended functional on every symbol
    bad = np.flatnonzero(boundary @ R2[:, :n_sym] != 2 * beta)
    if bad.size:
        raise HeckeError(f"boundary map is not well-defined at symbol {bad[0]} (q={q})")

    jstar = int(np.flatnonzero(boundary)[0])
    cusp_cols = [p for p in range(n_free) if p != jstar]
    dim, g = len(cusp_cols), genus_oracle(q)
    if dim != g:
        raise HeckeError(f"cuspidal dimension {dim} != genus {g} at q={q}")

    return HeckeSpace(q=q, dim=dim, n_free=n_free, free_symbols=free_symbols,
                      boundary=boundary, boundary_pivot=jstar, cusp_cols=cusp_cols,
                      R2=R2, inv_table=inv_table)


# ---------------------------------------------------------------------------
# Exact Hecke matrices (Merel's determinant-n set)


def merel_matrices(n: int) -> list[tuple[int, int, int, int]]:
    """Merel's set X_n: integer (a,b;c,d), ad-bc=n, a>b>=0, d>c>=0."""
    mats = []
    for a in range(1, n + 1):
        for d in range((n + a - 1) // a, n + 2 - a):
            bc = a * d - n
            if bc == 0:
                for b in range(a):
                    mats.append((a, b, 0, d))
                for c in range(1, d):
                    mats.append((a, 0, c, d))
            else:
                for b in range((bc - 1) // (d - 1) + 1, a):
                    if bc % b == 0:
                        mats.append((a, b, bc // b, d))
    return mats


def _hecke2(space: HeckeSpace, n: int) -> np.ndarray:
    """Twice the matrix of classical T_n on the full plus-quotient (n_free gens).

    Column j sums the R2 columns of the images of free generator j under
    Merel's X_n: one int64 gather, exact.  C-contiguous, because BLAS picks
    its kernels by layout and the split's residuals depend on them.  Cached
    on the space.
    """
    t2 = space.hecke2_cache.get(n)
    if t2 is None:
        a, b, c, d = np.array(merel_matrices(n), dtype=np.int64).T[:, None, :]
        c0, d0 = (x[:, None] for x in _rows(space.q, space.free_symbols))
        idx = _p1(space.inv_table, space.q, c0 * a + d0 * c, c0 * b + d0 * d)
        t2 = space.hecke2_cache[n] = np.ascontiguousarray(space.R2[:, idx].sum(axis=2))
    return t2


def hecke_matrix(space: HeckeSpace, n: int) -> list[list[Fraction]]:
    """Exact rational matrix of classical T_n on the cuspidal basis.

    n must be prime (composite eigenvalues come from lambda_extend, not from
    matrices).  Cached on the space.
    """
    if not is_prime(n):
        raise HeckeError(f"hecke_matrix expects prime n, got {n}")
    if n in space.hecke_cache:
        return space.hecke_cache[n]
    t2, b, jstar, cc = _hecke2(space, n), space.boundary, space.boundary_pivot, space.cusp_cols
    # twice the images of the cuspidal basis K_j = e_j - b_j b_j* e_j*  (b_j* = +-1)
    img = t2[:, cc] - np.outer(t2[:, jstar], b[cc] * b[jstar])
    # solve K x = img: rows j != j* give x directly; row j* is consistent iff b . img = 0
    if (b @ img).any():
        raise HeckeError(f"T_{n} does not preserve the cuspidal subspace at q={space.q}")
    x2 = img[cc]
    lo = int(x2.min(initial=0))
    halves = [Fraction(v, 2) for v in range(lo, int(x2.max(initial=0)) + 1)]
    mat = [[halves[v] for v in row] for row in (x2 - lo).tolist()]
    space.hecke_cache[n] = mat
    return mat


def star_is_identity(space: HeckeSpace) -> bool:
    """Exact check that the star involution acts as +1 on the quotient basis."""
    c, d = _rows(space.q, space.free_symbols)
    star = space.R2[:, _p1(space.inv_table, space.q, -c, d)]
    return np.array_equal(star, 2 * np.eye(space.n_free, dtype=np.int64))


# ---------------------------------------------------------------------------
# Eigenform tables


@dataclass
class EigenformTable:
    """One primitive eigenform: normalized eigenvalues and FE sign.

    prime_lambda[i] = lambda_f(primes[i]) = a_{primes[i]} / sqrt(primes[i]),
    primes increasing.
    full() extends to all n <= n_max through the Hecke recursions.
    """

    q: int
    index: int
    n_max: int
    primes: np.ndarray
    prime_lambda: np.ndarray
    sign: int
    residual: float
    dual_vector: np.ndarray | None = None   # the split's functional on P^1 symbols; None once extended
    _full: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def lam(self, n: int) -> float:
        if n < 1 or n > self.n_max:
            raise MissingEigenvalueError(f"lambda_f({n}) outside table range (n_max={self.n_max})")
        return float(self.full()[n])

    def full(self, n: int | None = None) -> np.ndarray:
        if n is None:
            n = self.n_max
        if n > self.n_max:
            raise MissingEigenvalueError(
                f"table only extends to n_max={self.n_max}, requested {n}"
            )
        if self._full is None or len(self._full) <= n:
            self._full = _extend_multiplicative(
                self.q, self.primes, self.prime_lambda, self.n_max
            )
            self._full.flags.writeable = False  # loaded tables are shared between callers
        return self._full


@lru_cache(maxsize=4)
def _multiplicative_plan(n_max: int) -> tuple[np.ndarray, list, list]:
    """The part of the lambda extension that depends on n_max alone.

    Returns the primes <= n_max; one prime-power step per exponent e >= 2,
    as index arrays (p, p^e, p^{e-1}, p^{e-2}); and every n <= n_max with
    two or more distinct prime factors as n = p^e m, p^e the full power of
    its smallest prime, in dyadic blocks [2^k, 2^{k+1}): p^e and m are both
    below n/2, so an earlier step has filled them in.
    """
    primes = primes_up_to(n_max)
    small = primes[primes * primes <= n_max]
    powers, base, prev2, prev = [], small, np.ones_like(small), small
    while (keep := prev * base <= n_max).any():
        base, prev, prev2 = base[keep], prev[keep], prev2[keep]
        powers.append((base, prev * base, prev, prev2))
        prev2, prev = prev, prev * base
    spf = np.zeros(n_max + 1, dtype=np.int64)  # smallest prime factor of composites
    for p in small[::-1].tolist():
        spf[p * p::p] = p
    ns = np.nonzero(spf)[0]
    base = spf[ns]
    ppart, rest = base.copy(), ns // base
    while (div := rest % base == 0).any():
        ppart[div] *= base[div]
        rest[div] //= base[div]
    comp = rest > 1
    ns, ppart, rest = ns[comp], ppart[comp], rest[comp]
    bounds = np.searchsorted(ns, 1 << np.arange(n_max.bit_length() + 1))
    blocks = [(ns[a:b], ppart[a:b], rest[a:b]) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]
    return primes, powers, blocks


def _extend_multiplicative(q: int, primes: np.ndarray, plam: np.ndarray, n_max: int) -> np.ndarray:
    """lambda_f(n) for all n <= n_max from prime values, via Eq.-(2.1) recursions.

    primes must be increasing and contain every prime <= n_max.
    """
    need, powers, blocks = _multiplicative_plan(n_max)
    pos = np.searchsorted(primes, need)
    missing = need[np.append(primes, 0)[pos] != need][:5].tolist()
    if missing:
        raise MissingEigenvalueError(f"missing prime eigenvalues below {n_max}: {missing}...")
    lam = np.zeros(n_max + 1, dtype=np.float64)
    lam[1] = 1.0
    lam[need] = plam[pos]
    # prime powers: lambda(p^{e}) = lambda(p)lambda(p^{e-1}) - lambda(p^{e-2}), p != q;
    # lambda(q^e) = lambda(q)^e  (the (d,q)=1 condition removes the second term)
    for base, pe, prev, prev2 in powers:
        lam[pe] = lam[base] * lam[prev] - lam[prev2]
    qe = q * q
    while qe <= n_max:
        lam[qe] = lam[qe // q] * lam[q]
        qe *= q
    # composites with >= 2 distinct primes: lambda(p^e m) = lambda(p^e) lambda(m)
    for ns, ppart, rest in blocks:
        lam[ns] = lam[ppart] * lam[rest]
    return lam


def lambda_extend(table: EigenformTable, n: int) -> EigenformTable:
    """Materialize lambda_f on all n <= N via multiplicativity (spec op)."""
    table.full(n)
    return table


def trace(space: HeckeSpace, tables: list[EigenformTable], n: int) -> float:
    """Tr(T_n) = sum_f lambda_f(n), paper-normalized."""
    return float(sum(t.lam(n) for t in tables))


# ---------------------------------------------------------------------------
# Eigen split and the Heilbronn-Cremona engine


# A block of consecutive primes closes at about this many continued fractions
# or bins.  Its hit keys are counted whenever _KEY_BUFFER are buffered: 1 MB
# ran as fast as 2 MB, whose freed block raised malloc's mmap threshold and
# the peak RSS of a later moment record, while 512 KB ran 40% slower.
_BLOCK_PATHS = 5_000
_BLOCK_BINS = 1 << 16
_KEY_BUFFER = 1 << 17


def _heilbronn_counts(space: HeckeSpace, ells: np.ndarray, v: int) -> np.ndarray:
    """How often T_ell sends the base symbol (1:v) to each P^1 index: row i
    of the (len(ells), q+1) counts gives  a_ell d[(1:v)] = d . counts[i]  for
    ell = ells[i] and every cuspidal dual eigenvector d.

    T_ell (u:w) is the sum of (u:w) M over Cremona's Heilbronn matrices of
    determinant ell (Algorithms for Modular Elliptic Curves, 1997, 2.4; Merel
    1994), for every Manin symbol.  For odd ell and |r| <= ell/2 they are the
    steps of the nearest-integer continued fraction of r/ell: start at M =
    [[x1, x2], [y1, y2]] = [[ell, -r], [0, 1]], and while x2 != 0 take Q =
    round(x1/x2) and (x1, x2) <- (x2, Q x2 - x1), (y1, y2) <- (y2, Q y2 - y1).
    Add [[1, 0], [0, ell]].  The plus-quotient identifies (1:v) M_{-r} with
    (1:-v) M_r, so only 1 <= r <= ell/2 is expanded, as the two states (1:v)
    and (1:-v), and r = 0 is the single matrix [[ell, 0], [0, 1]].  ell = 2
    takes r = 1 once, on (1:-v): Sage's four matrices.  At ell = q a state
    whose row is 0 mod q is (0:0), outside P^1; it is not counted (its bins
    are a trash group).

    No matrix is kept.  A state's row s_i = u x_i + w y_i obeys s_{i+1} =
    Q s_i - s_{i-1}, so tau = -s_i/s_{i+1} mod q steps as tau' = -1/(tau + Q)
    (oo coded as 2q - 1, and followed by 0): one add and one gather from the
    step table of the level, tiled over the block's primes, advance it, and
    the rounded division is shared by the two states of a continued
    fraction.  The image (s_i : s_{i+1}) has P^1 index -1/tau.  Each step's
    states are written into one key buffer, counted by a bincount when it
    fills.
    """
    q, inv, n = space.q, space.inv_table, len(ells)
    width, inf = 3 * q - 1, 2 * q - 1  # finite tau + Q < inf, and inf + Q < width
    step = np.concatenate([(q - inv) % q, (q - inv[:q - 1]) % q, np.zeros(q, dtype=np.int64)])
    step[[0, q]] = inf  # tau + Q = 0 mod q -> oo; oo + Q -> 0
    tiled = (width * np.arange(n + 1, dtype=np.int64)[:, None] + step).ravel()  # last: trash
    half = ells // 2
    path = np.repeat(np.arange(n), half)
    r = np.arange(1, path.size + 1) - np.repeat(np.cumsum(half) - half, half)
    ell = ells.take(path)
    base, trash = width * path, width * n
    scale = inv[ells % q].take(path)  # 1/ell mod q, and 0 at ell = q
    at_q = np.flatnonzero(ell == q)
    st = np.empty((2, path.size), dtype=np.int64)
    for state, sv in zip(st, (v, -v)):  # (1:+-v) M_r starts at (ell : +-v - r): tau = step[(+-v - r)/ell]
        rho = (sv - r) * scale
        state[:] = base + step.take(rho - q * (rho // q))  # // by a scalar is far cheaper than %
        # at ell = q: (0 : s) is oo, so tau = 0, and (0 : 0) is dropped
        state[at_q] = np.where((sv - r[at_q]) % q != 0, base[at_q], trash)
    if ells[0] == 2:
        st[0, 0] = trash  # ell = 2 runs r = 1 once, on (1:-v) only
    x1, x2 = ell.astype(np.float64), -r.astype(np.float64)  # exact: |x1|, |x2| <= ell
    hits = np.zeros(tiled.size, dtype=np.int64)
    keys = np.empty(max(_KEY_BUFFER, st.size), dtype=np.int64)
    keys[:st.size], held = st.ravel(), st.size
    while (live := np.flatnonzero(x2 != 0)).size:
        if live.size < x2.size:
            x1, x2, st = x1.take(live), x2.take(live), st.take(live, axis=1)
        quot = np.rint(x1 / x2)  # nearest: the shortest expansions; any rounding gives unimodular steps
        x1, x2 = x2, quot * x2 - x1
        quot = quot.astype(np.int64)
        at = st + (quot - q * (quot // q))
        if held + at.size > keys.size:
            hits += np.bincount(keys[:held], minlength=hits.size)
            held = 0
        st = keys[held:held + at.size].reshape(at.shape)
        tiled.take(at, out=st, mode="clip")  # every index is in range; "raise" would buffer out
        held += at.size
    hits += np.bincount(keys[:held], minlength=hits.size)
    x = np.arange(1, q)  # P^1 index rho <- tau = -1/rho: oo <- 0, 0 <- oo
    counts = hits.reshape(-1, width)[:n].take(np.concatenate([[inf], q - inv[x], [0]]), axis=1).astype(float)
    rows = np.arange(n)
    counts[rows, _p1(inv, q, ells, v)] += 1.0  # (1:v) [[ell, 0], [0, 1]] = (ell : v)
    counts[rows, v * ells % q] += 1.0  # (1:v) [[1, 0], [0, ell]] = (1 : v ell)
    return counts


def eigen_split(space: HeckeSpace, seed: int = 0) -> list[EigenformTable]:
    """Split the cuspidal plus-quotient into eigenforms.

    Diagonalizes a seeded random positive combination c2 T2 + c3 T3 + c5 T5
    numerically, with one eig = (ev, W); the left eigenvectors are the rows
    of inv(W), normalized so that inv(W)[i] @ W[:, i] = 1, and give the
    classical a_n as diag(inv(W) T_n W).  The Eisenstein line (strictly
    largest eigenvalue, Deligne) is dropped.  An eigenvalue collision below
    1e-6 adds T7 and T11 to the combination for the following draws (two
    forms at q=1201 share a_2, a_3 and a_5); complex eigenvalues, or a W
    whose 1-norm condition number exceeds 1e8, redraw, up to ten draws in
    all.  Forms are ordered by lambda at the primes of the combination:
    forms that tie at 2, 3 and 5 collide, so 7 and 11 are in the key
    whenever they can matter.  Tables carry lambda at p in {2,3,5} only and
    sign 0; use extend_prime_eigenvalues for the other primes and the sign.
    """
    if space.dim == 0:
        return []
    ops = (2, 3, 5)
    rng = default_rng(seed)
    last_err = ""
    for _ in range(10):
        t_float = {n: 0.5 * _hecke2(space, n) for n in ops}  # cached on the space
        c = rng.integers(1, 101, size=len(ops))
        amat = sum(ci * tn for ci, tn in zip(c, t_float.values()))
        evals, wvecs = np.linalg.eig(amat)
        if float(np.max(np.abs(evals.imag))) > 1e-8 * float(np.max(np.abs(evals))):
            last_err = "complex eigenvalues"
            continue
        ev = evals.real
        gaps = np.diff(np.sort(ev))
        if len(gaps) and float(np.min(gaps)) < 1e-6:
            last_err = f"eigenvalue gap {float(np.min(gaps)):.2e} with T2..T{ops[-1]}"
            ops = (2, 3, 5, 7, 11)
            continue
        w = wvecs.real
        cond = float(np.linalg.cond(w, 1))  # inf when w is singular
        if cond > 1e8:
            last_err = f"eigenvector matrix has condition number {cond:.2e} > 1e8"
            continue
        u = np.linalg.inv(w)  # rows: left eigenvectors, u[i] @ w[:, i] = 1
        # classical a_n = diag(u T_n w), with column residuals |T_n w - a_n w| / max|w|
        lam = {}
        residual = 0.0
        for n, tn in t_float.items():
            a_n = np.einsum("ij,ji->i", u @ tn, w)
            lam[n] = a_n / math.sqrt(n)
            residual = np.maximum(residual, np.max(np.abs(tn @ w - w * a_n), axis=0))
        residual /= np.max(np.abs(w), axis=0)
        eis = int(np.argmax(ev))
        cusp = [i for i in range(len(ev)) if i != eis]
        # deterministic order: by normalized eigenvalues at the primes in ops
        cusp.sort(key=lambda i: tuple(round(float(lam[n][i]), 9) for n in ops))
        duals = u[cusp] @ (0.5 * space.R2[:, :space.q + 1])
        duals /= duals[np.arange(len(cusp)), np.argmax(np.abs(duals), axis=1)][:, None]
        primes_seed = np.array([2, 3, 5], dtype=np.int64)
        return [
            EigenformTable(q=space.q, index=pos, n_max=5, primes=primes_seed,
                           prime_lambda=np.array([lam[2][i], lam[3][i], lam[5][i]]), sign=0,
                           residual=float(residual[i]), dual_vector=duals[pos])
            for pos, i in enumerate(cusp)
        ]
    raise SplitFailureError(f"eigen split failed after 10 draws at q={space.q}: {last_err}")


def extend_prime_eigenvalues(
    space: HeckeSpace, tables: list[EigenformTable], n_max: int
) -> list[EigenformTable]:
    """Fill lambda_f at every prime <= n_max through the Heilbronn engine.

    Every form is read on one generic base symbol (1:v), the v that
    maximizes the smallest |dual[v]| over the forms; HeckeError when even
    that is below 1e-3.  Each prime ell expands the ell/2 nearest-integer
    continued fractions of r/ell once, carrying the states of (1:v) and
    (1:-v) together (_heilbronn_counts), whatever the number of forms.  One
    pass expands a block of consecutive primes, and one product of the duals
    with the block's counts, cut to sizes OpenBLAS runs on one thread
    (fixed_matmul), reads all forms at once, so the bits do not depend on
    its thread count.  The returned tables carry no dual vector.

    Each form's functional-equation sign is eps_f = -w_q = a_q =
    sqrt(q) lambda_f(q), weight 2 at prime level (Atkin-Lehner).  When
    q > n_max the engine runs once more at ell = q for it; lambda_f(q) is
    then not stored.  IndeterminateSignError when sqrt(q) lambda_f(q) is
    more than 1e-3 away from +-1.  The values at 2, 3 and 5 must match the
    split's exact-matrix values to 1e-7, and every prime carries a
    certificate: Tr T_ell = sqrt(ell) sum_f lambda_f(ell) within 1e-6 of an
    integer, and |lambda_f(ell)| <= 2 (Deligne); HeckeError otherwise.
    """
    if not tables:
        return []
    q = space.q
    primes = primes_up_to(n_max)
    duals = np.vstack([t.dual_vector for t in tables])
    worst = np.min(np.abs(duals[:, 1:q]), axis=0)
    v = 1 + int(np.argmax(worst))
    if worst[v - 1] < 1e-3:
        raise HeckeError(
            f"no well-conditioned base symbol at q={q}: the best (1:{v}) has "
            f"min |dual| = {worst[v - 1]:.2e} < 1e-3 over the forms"
        )
    ells = primes if q <= n_max else np.append(primes, q)
    lam_out = np.zeros((len(tables), len(ells)), dtype=np.float64)
    lo, most = 0, max(1, _BLOCK_BINS // (3 * q - 1))  # primes that one block's bins allow
    while lo < len(ells):  # a block ends at the prime that takes it to _BLOCK_PATHS paths
        paths = np.cumsum(ells[lo:lo + most] // 2)
        hi = lo + min(int(np.searchsorted(paths, _BLOCK_PATHS)) + 1, paths.size)
        lam_out[:, lo:hi] = fixed_matmul(duals, _heilbronn_counts(space, ells[lo:hi], v).T)
        lo = hi
    lam_out /= duals[:, v, None] * np.sqrt(ells)
    # cross-check the engine against the exact-matrix Rayleigh values
    for f, t in enumerate(tables):
        for ip, ell in enumerate(primes[:3].tolist()):  # 2, 3, 5 as far as n_max reaches
            if abs(lam_out[f, ip] - t.prime_lambda[ip]) > 1e-7:
                raise HeckeError(
                    f"Heilbronn engine disagrees with exact T_{ell} at q={q}: "
                    f"{lam_out[f, ip]} vs {t.prime_lambda[ip]}"
                )
    root_q_lam = math.sqrt(q) * lam_out[:, int(np.searchsorted(ells, q))]
    off = np.abs(np.abs(root_q_lam) - 1.0)
    if float(np.max(off)) > 1e-3:
        f = int(np.argmax(off))
        raise IndeterminateSignError(
            f"no FE sign at q={q}, form {tables[f].index}: "
            f"sqrt(q) lambda_f(q) = {root_q_lam[f]:.6g} is not within 1e-3 of +-1"
        )
    # a certificate at every prime: Tr T_ell = sqrt(ell) sum_f lambda_f(ell) is an
    # integer, and |lambda_f(ell)| <= 2 (Deligne)
    trace = np.sqrt(ells) * lam_out.sum(axis=0)
    frac = np.abs(trace - np.rint(trace))
    peak = np.max(np.abs(lam_out), axis=0)
    bad = np.flatnonzero(~((frac <= 1e-6) & (peak <= 2.0 + 1e-9)))  # NaN fails too
    if bad.size:
        i = int(bad[0])
        raise HeckeError(
            f"eigenvalue certificate failed at q={q}, ell={int(ells[i])}: Tr T_ell = {trace[i]:.9g} "
            f"is {frac[i]:.2e} from an integer (limit 1e-6); max |lambda_f(ell)| = {peak[i]:.9g} (limit 2)"
        )
    return [
        replace(t, n_max=int(n_max), primes=primes, prime_lambda=lam_out[f, :len(primes)],
                sign=int(np.rint(root_q_lam[f])), dual_vector=None)
        for f, t in enumerate(tables)
    ]
