"""Eigen-data persistence, sweep orchestration, and comparison records.

Cache files are canonical JSON (sorted keys, floats printed with 17
significant digits) so reruns with the same seed are byte-identical.
Sweeps write one CSV row per (q, p, j, t) cell, sorted by (j, p, t, q);
failures are isolated per cell into the trailing error column.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .heckespace import (
    EigenformTable,
    build_space,
    eigen_split,
    extend_prime_eigenvalues,
)
from .lvalue import CutoffCapError, afe_cutoff
from .moments import MomentRecord, build_moment_record, check_t
from .special import is_prime, primes_up_to

__all__ = [
    "SweepConfig",
    "CACHE_FORMAT_VERSION",
    "cache_file_name",
    "save_eigendata",
    "load_eigendata",
    "get_eigendata",
    "run_sweep",
    "write_sweep_csv",
    "SWEEP_COLUMNS",
]

CACHE_FORMAT_VERSION = 1

SWEEP_COLUMNS = [
    "q", "p", "j", "t", "dim",
    "empirical_re", "empirical_im", "main_re", "main_im",
    "ratio_re", "ratio_im", "abs_residual", "n_cutoff", "wall_ms", "error",
]


@dataclass
class SweepConfig:
    """Parameter grid and bookkeeping for a verification sweep."""

    q_min: int
    q_max: int
    p_list: tuple[int, ...] = (2,)
    j_list: tuple[int, ...] = (1,)
    t_list: tuple[float, ...] = (0.0,)
    tol: float = 1e-6
    seed: int = 0
    cache_dir: str | None = None
    threads: int = 1
    timings: bool = False

    def validate(self) -> list[str]:
        """Range warnings (never fatal) plus hard parameter checks."""
        if not (1e-12 <= self.tol <= 1e-4):
            raise ValueError(f"tol must lie in [1e-12, 1e-4], got {self.tol}")
        if self.q_min > self.q_max or self.q_min < 11:
            raise ValueError("need 11 <= q_min <= q_max")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        for name, values in (("p", self.p_list), ("j", self.j_list), ("t", self.t_list)):
            if not values:
                raise ValueError(f"the {name} list is empty: a sweep needs at least one {name}")
        for j in self.j_list:
            if j not in (1, 2):
                raise ValueError(f"j must be 1 or 2, got {j}")
        for t in self.t_list:
            check_t(t)
        warnings = []
        for p in self.p_list:
            if not is_prime(p):
                raise ValueError(f"p must be prime, got {p}")
            if 1 in self.j_list and p >= self.q_min ** (1.0 / 55.0):
                warnings.append(
                    f"p={p} outside the first-moment range p < q_min^(1/55) "
                    f"({self.q_min ** (1/55.0):.4f}); asymptotic not guaranteed"
                )
            if 2 in self.j_list and p >= self.q_min ** (1.0 / 110.0):
                warnings.append(
                    f"p={p} outside the square-moment range p < q_min^(1/110) "
                    f"({self.q_min ** (1/110.0):.4f}) adopted from the proof section"
                )
        return warnings


# ---------------------------------------------------------------------------
# Canonical cache files


def _fmt_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError("non-finite value in cache data")
    s = format(float(x), ".17g")
    return s


def _cache_json(q: int, dim: int, seed: int, n_max: int, tables: list[EigenformTable]) -> str:
    parts = [
        "{",
        f'"dim": {dim}, ',
        f'"format_version": {CACHE_FORMAT_VERSION}, ',
        '"forms": [',
    ]
    chunks = []
    for t in sorted(tables, key=lambda t: t.index):
        lam = ", ".join(
            f"[{int(p)}, {_fmt_float(v)}]" for p, v in zip(t.primes, t.prime_lambda)
        )
        chunks.append(f'{{"index": {t.index}, "lambda": [{lam}], "sign": {t.sign}}}')
    parts.append(", ".join(chunks))
    parts.append("], ")
    parts.append(f'"n_max": {n_max}, ')
    parts.append(f'"q": {q}, ')
    parts.append(f'"seed": {seed}')
    parts.append("}\n")
    return "".join(parts)


def cache_file_name(q: int, seed: int) -> str:
    return f"eigendata_q{q}_seed{seed}.json"


def save_eigendata(path: str | Path, q: int, seed: int, n_max: int,
                   tables: list[EigenformTable]) -> None:
    """Write the canonical cache file atomically: the text goes to a temp file
    in the target directory, which os.replace then moves onto path, so readers
    and concurrent writers never see a partial file."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        tmp.write_text(_cache_json(q, len(tables), seed, n_max, tables),
                       encoding="utf-8", newline="\n")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def load_eigendata(path: str | Path) -> tuple[int, int, int, int, list[EigenformTable]]:
    """Returns (q, dim, seed, n_max, tables).  Loaded tables carry primes only.
    A form whose lambda pairs are not finite [prime, number] pairs, whose sign
    is not +-1, or whose primes do not start with every prime <= n_max is a
    ValueError naming the form; any file it cannot read is a ValueError
    naming the file.

    The file is read on every call, but its parse is memoized per process,
    keyed on the bytes themselves, so a rewritten file is parsed again even
    at the same size and mtime.  The memoized tables are shared between
    callers, so their arrays are read-only."""
    try:
        q, dim, seed, n_max, tables = _parse_eigendata(Path(path).read_bytes())
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"cache file {path}: {type(exc).__name__}: {exc}") from None
    return q, dim, seed, n_max, list(tables)  # the caller's own list of the shared tables


@functools.lru_cache(maxsize=2)  # a moment record reads one level, the route checks two
def _parse_eigendata(raw: bytes) -> tuple[int, int, int, int, list[EigenformTable]]:
    data = json.loads(raw.decode("utf-8"))
    if data.get("format_version") != CACHE_FORMAT_VERSION:
        raise ValueError(f"unsupported cache format_version: {data.get('format_version')}")
    q, dim, seed, n_max = data["q"], data["dim"], data["seed"], data["n_max"]
    need = primes_up_to(n_max)
    tables = []
    for form in data["forms"]:
        try:  # two floats per pair: a short or long pair or a non-number raises
            flat = itertools.chain.from_iterable(form["lambda"])
            pairs = np.fromiter(flat, np.float64, 2 * len(form["lambda"])).reshape(-1, 2)
            bad = next(flat, None) is not None or not np.isfinite(pairs).all()
        except (TypeError, ValueError):
            bad = True
        if bad:
            raise ValueError(f"cache form {form['index']}: lambda is not a list of finite "
                             "[prime, number] pairs")
        if form["sign"] not in (1, -1):
            raise ValueError(f"cache form {form['index']}: sign {form['sign']!r} is not +-1")
        head = pairs[:need.size, 0]
        if not np.array_equal(head, need):  # the first mismatch, or the first prime past a short list
            first = need[np.argmax(np.append(head != need[:head.size], True))]
            raise ValueError(f"cache form {form['index']}: no lambda at the prime {first}")
        primes, lam = pairs[:, 0].astype(np.int64), pairs[:, 1].copy()
        primes.flags.writeable = lam.flags.writeable = False
        tables.append(
            EigenformTable(
                q=q, index=int(form["index"]), n_max=int(n_max),
                primes=primes, prime_lambda=lam, sign=int(form["sign"]), residual=0.0,
            )
        )
    if len(tables) != dim:
        raise ValueError("cache dim does not match its form list")
    return q, dim, seed, n_max, tables


def get_eigendata(
    q: int, n_max: int, seed: int = 0, cache_dir: str | Path | None = None
) -> list[EigenformTable]:
    """Eigen tables for level q covering primes <= n_max, with FE signs, cache-aware."""
    path = None
    if cache_dir is not None:
        path = Path(cache_dir) / cache_file_name(q, seed)
        if path.exists():
            try:
                cq, _, cseed, c_nmax, tables = load_eigendata(path)
                if cq == q and cseed == seed and c_nmax >= n_max:
                    return tables
            except ValueError:
                pass  # fall through to rebuild
    space = build_space(q)
    tables = eigen_split(space, seed=seed)
    tables = extend_prime_eigenvalues(space, tables, n_max)
    if path is not None:
        path.parent.mkdir(parents=True, exist_ok=True)
        save_eigendata(path, q, seed, n_max, tables)
    return tables


# ---------------------------------------------------------------------------
# Sweeps


def _needed_n_max(q: int, p_list, j_list, t_list, tol: float) -> int:
    need = max(p ** j for p in p_list for j in j_list)
    for t in t_list:
        try:
            need = max(need, afe_cutoff(q, t, tol))
        except CutoffCapError:
            pass  # the cells at this t become error rows
    return need


def _sweep_unit(args) -> list[dict]:
    q, config = args
    rows = []
    try:
        n_max = _needed_n_max(q, config.p_list, config.j_list, config.t_list, config.tol)
        tables = get_eigendata(q, n_max, config.seed, config.cache_dir)
        dim = len(tables)
    except Exception as exc:  # noqa: BLE001 - failure rows, not aborts
        for p in config.p_list:
            for j in config.j_list:
                for t in config.t_list:
                    rows.append(_error_row(q, p, j, t, f"eigendata: {exc}"))
        return rows
    for p in config.p_list:
        for j in config.j_list:
            for t in config.t_list:
                t0 = time.perf_counter()
                try:
                    if p == q:
                        raise ValueError("p == q cell skipped")
                    rec = build_moment_record(tables, q, p, j, t, config.tol)
                    wall = (time.perf_counter() - t0) * 1000.0
                    rows.append(_record_row(rec, wall if config.timings else 0.0))
                except Exception as exc:  # noqa: BLE001
                    rows.append(_error_row(q, p, j, t, str(exc), dim))
    return rows


def _record_row(rec: MomentRecord, wall_ms: float) -> dict:
    return {
        "q": rec.q, "p": rec.p, "j": rec.j, "t": rec.t, "dim": rec.dim,
        "empirical_re": rec.empirical.real, "empirical_im": rec.empirical.imag,
        "main_re": rec.main_term.real, "main_im": rec.main_term.imag,
        "ratio_re": rec.ratio.real if rec.ratio is not None else None,
        "ratio_im": rec.ratio.imag if rec.ratio is not None else None,
        "abs_residual": rec.abs_residual, "n_cutoff": rec.n_cutoff,
        "wall_ms": int(round(wall_ms)), "error": "",
    }


def _error_row(q, p, j, t, msg, dim=0) -> dict:
    return {
        "q": q, "p": p, "j": j, "t": t, "dim": dim,
        "empirical_re": None, "empirical_im": None, "main_re": None, "main_im": None,
        "ratio_re": None, "ratio_im": None, "abs_residual": None, "n_cutoff": 0,
        "wall_ms": 0, "error": msg.replace("\n", " ").replace(",", ";"),
    }


def run_sweep(config: SweepConfig) -> tuple[list[dict], list[str]]:
    """All sweep rows, sorted by (j, p, t, q), plus range warnings."""
    warnings = config.validate()
    qs = [int(q) for q in primes_up_to(config.q_max) if q >= config.q_min]
    units = [(q, config) for q in qs]
    if config.threads > 1:
        from concurrent.futures import ProcessPoolExecutor  # not at the top: 1.8 MB of RSS

        with ProcessPoolExecutor(max_workers=config.threads) as pool:
            chunks = list(pool.map(_sweep_unit, units))
    else:
        chunks = [_sweep_unit(u) for u in units]
    rows = [row for chunk in chunks for row in chunk]
    rows.sort(key=lambda r: (r["j"], r["p"], r["t"], r["q"]))
    return rows, warnings


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def write_sweep_csv(rows: list[dict], path: str | Path) -> None:
    lines = [",".join(SWEEP_COLUMNS)]
    for row in rows:
        lines.append(",".join(_csv_cell(row[c]) for c in SWEEP_COLUMNS))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
