"""The three workloads: set-up, one round of operations, and output checks.

A workload object is built from the seed and a scratch directory.  setup()
runs before the measured phase (timed, repeated); ops(round) yields the
operations of one round as (label, callable) pairs; check(outputs) compares
the outputs of the operations that did not fail with the oracles and returns
a list of problems.  The package is only reached through `lf`, the imported
lfmoments package, looked up at call time so the tracer's wrappers apply.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import random

import oracles

TOL = 1e-4
SPLIT_SEED = 0


def cli(lf, argv: list) -> dict:
    """Run one `lfmoments` command in this process; its JSON summary line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lf.cli.main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"lfmoments {argv[0]} exited {code}: {err.getvalue().strip()}")
    return json.loads(out.getvalue().strip().splitlines()[-1])


def read_cache(path: str) -> dict:
    """A written eigendata cache, parsed here: q, dim, n_max, and per form its
    sign and {prime: lambda}."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    forms = [{"sign": f["sign"], "lam": {int(p): float(v) for p, v in f["lambda"]}}
             for f in data["forms"]]
    return {"q": data["q"], "dim": data["dim"], "n_max": data["n_max"], "forms": forms}


def cache_path(cache_dir: str, q: int) -> str:
    return os.path.join(cache_dir, f"eigendata_q{q}_seed{SPLIT_SEED}.json")


def _primes(n: int) -> list[int]:
    return [k for k in range(2, n + 1) if all(k % d for d in range(2, math.isqrt(k) + 1))]


def _lam_list(form: dict, q: int, m: int) -> list[float]:
    return [0.0] + [oracles.hecke_lambda(form["lam"], q, n) for n in range(1, m + 1)]


def check_level_cache(cache: dict, q: int, n_max: int) -> list[str]:
    """Dimension, Eichler-Selberg traces, Ramanujan bound and signs of one cache."""
    problems = []
    forms = cache["forms"]
    if cache["dim"] != oracles.genus(q) or len(forms) != cache["dim"]:
        problems.append(f"q={q}: dim {cache['dim']} != genus {oracles.genus(q)}")
    if cache["n_max"] < n_max:
        problems.append(f"q={q}: cache n_max {cache['n_max']} < {n_max}")
    for n in range(1, 31):
        tr = sum(math.sqrt(n) * oracles.hecke_lambda(f["lam"], q, n) for f in forms)
        ref = float(oracles.eichler_selberg_trace(n, q))
        if abs(tr - ref) > 1e-6:
            problems.append(f"q={q}: Tr T_{n} = {tr} but Eichler-Selberg gives {ref}")
    for ell in _primes(n_max):
        vals = [f["lam"][ell] for f in forms]
        tr = math.sqrt(ell) * sum(vals)
        if abs(tr - round(tr)) > 1e-6 or max(abs(v) for v in vals) > 2.0:
            problems.append(f"q={q}: trace or Ramanujan bound off at prime {ell}")
            break
    for i, f in enumerate(forms):
        eps = math.sqrt(q) * f["lam"][q]
        if abs(abs(eps) - 1.0) > 1e-6 or f["sign"] != round(eps):
            problems.append(f"q={q}, form {i}: sign {f['sign']} vs sqrt(q) lambda(q) = {eps}")
    return problems


def afe_err_over_tol(lf, path: str, q: int) -> float:
    """Worst |L(1/2,f)^2 from l_squared_many - central-value series^2| / tol."""
    _, _, _, _, tables = lf.harness.load_eigendata(path)
    got = lf.lvalue.l_squared_many(tables, 0.0, TOL)
    cache = read_cache(path)
    m = oracles.afe_terms(q)
    worst = 0.0
    for res, form in zip(got, cache["forms"]):
        ref = oracles.central_value(_lam_list(form, q, m), form["sign"], q) ** 2
        worst = max(worst, abs(res.value - ref) / TOL)
    return worst


def _t_grid(rng: random.Random, count: int) -> list[float]:
    """0 and +-t for `count` distinct magnitudes in [0.1, 1.5]."""
    mags: set[float] = set()
    while len(mags) < count:
        mags.add(round(rng.uniform(0.1, 1.5), 3))
    out = [0.0]
    for m in sorted(mags):
        out += [m, -m]
    return out


class SweepCold:
    """`lfmoments sweep` over each prime 83 <= q < 163 into an empty cache.

    One operation is one level: a one-level sweep that builds and writes its
    eigendata and computes its moment cells (p=2, j=1,2, t=0).
    """

    levels = [q for q in _primes(162) if q >= 83]
    setups = 0

    def __init__(self, lf, seed: int, work: str):
        self.lf, self.work = lf, work
        self.order = self.levels[:]
        random.Random(seed).shuffle(self.order)

    def setup(self, directory: str) -> None:
        pass

    def ops(self, rnd: int):
        base = os.path.join(self.work, f"round{rnd}")
        cache = os.path.join(base, "cache")
        for q in self.order:
            out = os.path.join(base, f"sweep_q{q}.csv")
            argv = ["sweep", "--qmin", q, "--qmax", q, "--p", "2", "--j", "1,2", "--t", "0",
                    "--tol", TOL, "--seed", SPLIT_SEED, "--cache-dir", cache, "--out", out]

            def op(argv=argv, q=q, out=out, cache=cache):
                os.makedirs(os.path.dirname(out), exist_ok=True)
                cli(self.lf, argv)
                return {"q": q, "csv": out, "cache": cache_path(cache, q)}
            yield f"sweep q={q}", op

    def check(self, outputs: list) -> list[str]:
        problems = []
        n_max = 4096
        for rec in outputs:
            q = rec["q"]
            with open(rec["csv"], encoding="utf-8", newline="") as fh:
                rows = list(csv.DictReader(fh))
            if sorted(int(r["j"]) for r in rows) != [1, 2]:
                problems.append(f"q={q}: expected rows j=1,2, got {len(rows)} rows")
            for r in rows:
                if r["error"] or int(r["dim"]) != oracles.genus(q) or int(r["n_cutoff"]) != n_max:
                    problems.append(f"q={q}: bad CSV row {r}")
            problems += check_level_cache(read_cache(rec["cache"]), q, n_max)
        return problems

    def health(self, outputs: list) -> float:
        first = {rec["q"]: rec["cache"] for rec in reversed(outputs)}
        return max(afe_err_over_tol(self.lf, path, q) for q, path in first.items())


class MomentGrid:
    """`lfmoments moment --cache-dir` records at q=101 over a t-major grid.

    Each t in {0} and +-5 seeded magnitudes gets the (p, j) grid twice, so
    one record in 16 misses the W_t grid cache and op_p90_ms stays among
    the cache hits.  Eleven values of t outnumber the package's nine-entry
    grid cache, so every round misses at the same records as the first.
    """

    q = 101
    n_max = 4096
    setups = 3

    def __init__(self, lf, seed: int, work: str):
        self.lf = lf
        self.ts = _t_grid(random.Random(seed), 5)
        self.cache = None

    def setup(self, directory: str) -> None:
        cli(self.lf, ["eigendata", "--q", self.q, "--n-max", self.n_max, "--seed", SPLIT_SEED,
                      "--cache-dir", directory])
        self.cache = directory

    def ops(self, rnd: int):
        for t in self.ts:
            for _ in range(2):
                for p in (2, 3, 5, 7):
                    for j in (1, 2):
                        argv = ["moment", "--q", self.q, "--p", p, "--j", j, "--t", repr(t),
                                "--tol", TOL, "--seed", SPLIT_SEED, "--cache-dir", self.cache]
                        yield f"moment p={p} j={j} t={t}", (lambda argv=argv: cli(self.lf, argv))

    def check(self, outputs: list) -> list[str]:
        problems = []
        cache = read_cache(cache_path(self.cache, self.q))
        problems += check_level_cache(cache, self.q, self.n_max)
        forms = cache["forms"]
        m = oracles.afe_terms(self.q)
        lams = [_lam_list(f, self.q, m) for f in forms]
        l_vals = {t: oracles.l_values_mpmath(lams, [f["sign"] for f in forms], self.q, t)
                  for t in self.ts}
        by_key = {}
        for rec in outputs:
            p, j, t = rec["p"], rec["j"], rec["t"]
            a = complex(*rec["empirical"])
            lam_pj = [oracles.hecke_lambda(f["lam"], self.q, p ** j) for f in forms]
            ref = sum(v * v * lp for v, lp in zip(l_vals[t], lam_pj))
            allowed = sum(TOL * abs(lp) for lp in lam_pj)
            if rec["n_cutoff"] != self.n_max or abs(a - ref) > allowed:
                problems.append(f"A({p}^{j}, {self.q}, {t}) = {a}, mpmath AFE {ref}, allowed {allowed:.2e}")
            by_key[(p, j, t)] = a
        for (p, j, t), a in by_key.items():
            b = by_key.get((p, j, -t))
            if t > 0 and b is not None and abs(b - a.conjugate()) > 1e-9:
                problems.append(f"A({p}^{j}, -{t}) = {b} is not conj A(+t) = {a.conjugate()}")
        return problems

    def health(self, outputs: list) -> float:
        return afe_err_over_tol(self.lf, cache_path(self.cache, self.q), self.q)


class RouteChecks:
    """The proof's bookkeeping at (p, q) = (2, 101) and (3, 37).

    Eigendata out to p * N is built in set-up; each round loads it back (not
    an operation) and runs every route comparison and identity check over
    t in {0, +-0.5, +-1.25}, then the divisor series at seeded s.  The t
    values are fixed: the contour quadratures refine a t-dependent number of
    times, and seeded t moved op_p50_ms by more than the noise.  The
    package's grid cache empties itself every nine grids, so a round misses
    it 22 or 23 times depending on what the previous round left behind.
    """

    levels = ((2, 101, 4096), (3, 37, 1024))   # (p, q, N = afe_cutoff(q, |t| <= 1.5, tol))
    kinds = ("M22", "Delta1", "Delta3")
    setups = 2   # each set-up takes ~10 s; the run budget allows two

    def __init__(self, lf, seed: int, work: str):
        self.lf = lf
        rng = random.Random(seed)
        self.ts = [0.0, 0.5, -0.5, 1.25, -1.25]
        self.tau_args = [(kind, p, complex(round(rng.uniform(2.0, 3.0), 3), round(rng.uniform(-2.0, 2.0), 3)))
                         for kind in ("plain", "p", "p2") for p in (2, 3)]
        cells = [(k, p, q, t) for k in self.kinds for p, q, _ in self.levels for t in self.ts]
        self.mp_cells = rng.sample(cells, 1)
        self.cache = None

    def setup(self, directory: str) -> None:
        for p, q, n in self.levels:
            cli(self.lf, ["eigendata", "--q", q, "--n-max", p * n, "--seed", SPLIT_SEED,
                          "--cache-dir", directory])
        self.cache = directory

    def ops(self, rnd: int):
        mo = self.lf.moments
        tables = {q: self.lf.harness.get_eigendata(q, p * n, SPLIT_SEED, self.cache)
                  for p, q, n in self.levels}
        for t in self.ts:
            for p, q, _ in self.levels:
                yield f"trace route {p},{q},{t}", lambda p=p, q=q, t=t: {
                    "op": "trace", "a": mo.trace_route_moment(tables[q], p, t, TOL),
                    "b": mo.empirical_moment(tables[q], 1, p, t, TOL)}
                yield f"m1 square block {p},{q},{t}", lambda p=p, q=q, t=t: {
                    "op": "m1", "a": mo.m1_square_block(p, q, t, TOL)}
                yield f"delta23 {p},{q},{t}", lambda p=p, q=q, t=t: {
                    "op": "delta23", "p": p, "a": mo.delta23_trace_route(p, q, t, TOL)}
                for kind in self.kinds:
                    yield f"residue {kind} {p},{q},{t}", lambda kind=kind, p=p, q=q, t=t: {
                        "op": "residue", "cell": (kind, p, q, t),
                        "a": mo.residue_closed_form(kind, p, q, t), "b": mo.mellin_numeric(kind, p, q, t)}
                for j in (1, 2):
                    thm = "main_term_thm11" if j == 1 else "main_term_thm12"
                    yield f"main term j={j} {p},{q},{t}", lambda j=j, p=p, q=q, t=t, thm=thm: {
                        "op": "main", "a": mo.main_term_from_residues(j, p, q, t),
                        "b": getattr(mo, thm)(p, q, t)}
        for kind, p, s in self.tau_args:
            yield f"tau series {kind} {p} {s}", lambda kind=kind, p=p, s=s: {
                "op": "tau", "kind": kind, "p": p, "s": s, "a": mo.tau_square_series(kind, p, s)}

    def check(self, outputs: list) -> list[str]:
        problems = []
        for p, q, n in self.levels:
            problems += check_level_cache(read_cache(cache_path(self.cache, q)), q, p * n)
        residues = {}
        for rec in outputs:
            op, a = rec["op"], rec.get("a")
            if op == "trace" and abs(a - rec["b"]) > 1e-7:
                problems.append(f"trace route {a} vs form route {rec['b']}")
            elif op == "m1" and abs(a) > 1e-9:
                problems.append(f"square block {a} is not 0")
            elif op == "delta23" and abs(a[0] - a[1] / rec["p"]) > 1e-9:
                problems.append(f"Delta2 {a[0]} != Delta3/p {a[1] / rec['p']}")
            elif op == "residue":
                residues[rec["cell"]] = a
                if abs(a - rec["b"]) > 1e-8:
                    problems.append(f"residue {rec['cell']}: closed {a} vs contour {rec['b']}")
            elif op == "main" and abs(a - rec["b"]) > 1e-9 * max(1.0, abs(rec["b"])):
                problems.append(f"main term from residues {a} vs theorem {rec['b']}")
            elif op == "tau":
                truncated, closed = a
                ref = oracles.tau_square_closed_mpmath(rec["kind"], rec["p"], rec["s"])
                if abs(closed - ref) > 1e-10 * abs(ref) or \
                        abs(truncated - ref) > oracles.tau_square_tail_bound(100_000, rec["s"].real):
                    problems.append(f"tau series {rec['kind']} at {rec['s']}: {a} vs mpmath {ref}")
        for cell in self.mp_cells:
            ref = oracles.mellin_two_line_mpmath(*cell)
            if cell in residues and abs(residues[cell] - ref) > 1e-8:
                problems.append(f"residue {cell}: closed {residues[cell]} vs mpmath two-line {ref}")
        return problems

    def health(self, outputs: list) -> float:
        return max(afe_err_over_tol(self.lf, cache_path(self.cache, q), q) for _, q, _ in self.levels)


WORKLOADS = {"sweep-cold": SweepCold, "moment-grid": MomentGrid, "route-checks": RouteChecks}
