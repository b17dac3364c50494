"""Spans around calls into the package, recorded from outside it.

install() replaces public functions in the module namespaces where their
callers look them up (and the EigenformTable.full method) with wrappers that
push a span on a stack, so each span's self time leaves out its children.
Spans stay in memory; layer_metrics() folds them into the per-layer figures
and write_spans() writes them out when the run ends.  A name that no longer
exists is recorded as absent and its figures read 0.
"""

from __future__ import annotations

import functools
import json
import os
import time
from dataclasses import dataclass, field

# (span name, [(module, attribute), ...]): every place a caller looks the
# function up.  A span's layer is the text before the first dot.
WRAP_SITES = [
    ("heckespace.build_space", [("harness", "build_space")]),
    ("heckespace.eigen_split", [("harness", "eigen_split")]),
    ("heckespace.extend_prime_eigenvalues", [("harness", "extend_prime_eigenvalues")]),
    ("heckespace.fe_sign", [("harness", "fe_sign_with_fallback")]),
    ("heckespace.lambda_full", [("heckespace.EigenformTable", "full")]),
    ("harness.get_eigendata", [("harness", "get_eigendata"), ("cli", "get_eigendata")]),
    ("harness.save_eigendata", [("harness", "save_eigendata"), ("cli", "save_eigendata")]),
    ("harness.load_eigendata", [("harness", "load_eigendata")]),
    ("harness.sweep", [("harness", "run_sweep"), ("cli", "run_sweep"),
                       ("harness", "write_sweep_csv"), ("cli", "write_sweep_csv")]),
    ("smoothing.wt_grid", [("lvalue", "wt_grid")]),
    ("lvalue.wt_lattice", [("lvalue", "wt_lattice"), ("moments", "wt_lattice")]),
    ("lvalue.l_squared_many", [("lvalue", "l_squared_many"), ("moments", "l_squared_many")]),
    ("moments.build_moment_record", [("moments", "build_moment_record"), ("cli", "build_moment_record"),
                                     ("harness", "build_moment_record")]),
    ("moments.empirical_moment", [("moments", "empirical_moment")]),
    ("moments.main_term", [("moments", "main_term_thm11"), ("moments", "main_term_thm12"),
                           ("moments", "main_term_from_residues")]),
    ("moments.residue_closed_form", [("moments", "residue_closed_form")]),
    ("moments.trace_route_moment", [("moments", "trace_route_moment")]),
    ("moments.square_blocks", [("moments", "m1_square_block"), ("moments", "delta23_trace_route")]),
    ("moments.mellin_numeric", [("moments", "mellin_numeric")]),
    ("moments.tau_square_series", [("moments", "tau_square_series")]),
]

LAYERS = ("heckespace", "harness", "smoothing", "lvalue", "moments")


@dataclass
class Span:
    name: str
    phase: str
    start: float
    end: float = 0.0
    child: float = 0.0
    counters: dict = field(default_factory=dict)
    children: list = field(default_factory=list)

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child


def _resolve(package, dotted: str):
    obj = package
    for part in dotted.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return obj


class Tracer:
    """Records spans while `phase` is set; does nothing while it is None."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.phase: str | None = None
        self.absent: list[str] = []

    def install(self, package) -> None:
        for name, sites in WRAP_SITES:
            for owner_path, attr in sites:
                owner = _resolve(package, owner_path)
                original = getattr(owner, attr, None) if owner is not None else None
                if original is None:
                    self.absent.append(f"{owner_path}.{attr}")
                    continue
                setattr(owner, attr, self._wrap(name, original))

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.phase is None:
                return fn(*args, **kwargs)
            span = Span(name, tracer.phase, time.perf_counter())
            parent = tracer.stack[-1] if tracer.stack else None
            tracer.stack.append(span)
            try:
                result = fn(*args, **kwargs)
                _count(span, name, args, result)
                return result
            finally:
                span.end = time.perf_counter()
                tracer.stack.pop()
                if parent is not None:
                    parent.child += span.end - span.start
                    parent.children.append(span.name)
                tracer.spans.append(span)
        return wrapper

    def write_spans(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s.name, "phase": s.phase, "start": s.start,
                                     "end": s.end, "self_s": s.self_s, **s.counters}) + "\n")
            fh.write(json.dumps({"absent": self.absent}) + "\n")


def _count(span: Span, name: str, args, result) -> None:
    """Work counters measured where the work happens."""
    if name == "heckespace.extend_prime_eigenvalues" and result:
        span.counters["level_primes"] = len(result[0].primes)
    elif name == "smoothing.wt_grid":
        span.counters["points"] = int(getattr(args[1], "size", 0))
    elif name == "lvalue.l_squared_many" and result:
        span.counters["terms"] = len(result) * result[0].n_cutoff
    elif name in ("harness.save_eigendata", "harness.load_eigendata"):
        span.counters["bytes"] = os.path.getsize(args[0])


def per_span_overhead(samples: int = 20000) -> float:
    """Seconds one traced call costs over an untraced one, measured here."""
    tracer = Tracer()
    tracer.phase = "calibrate"
    plain = lambda: None  # noqa: E731
    wrapped = tracer._wrap("calibrate", plain)
    t0 = time.perf_counter()
    for _ in range(samples):
        plain()
    t1 = time.perf_counter()
    for _ in range(samples):
        wrapped()
    t2 = time.perf_counter()
    return max(0.0, ((t2 - t1) - (t1 - t0)) / samples)


def layer_metrics(tracer: Tracer, n_setups: int, n_rounds: int, measured_s: float,
                  overhead_per_span: float) -> dict[str, float]:
    """Per-layer figures for one set-up plus one round of the measured phase.

    Set-up spans are divided by the number of set-ups, measured-phase spans by
    the number of rounds.  Times are self times, except fe_sign_s, which
    includes the lambda extension the sign computation triggers.
    layer_coverage is the share of the measured phase that the top-level
    spans account for.
    """
    totals: dict[str, dict[str, float]] = {"setup": {}, "measure": {}}

    def add(tot: dict, key: str, value: float) -> None:
        tot[key] = tot.get(key, 0.0) + value

    covered = 0.0
    for s in tracer.spans:
        if s.phase not in totals:
            continue
        tot = totals[s.phase]
        add(tot, "self:" + s.name, s.self_s)
        add(tot, "incl:" + s.name, s.end - s.start)
        add(tot, "calls:" + s.name, 1)
        for key, value in s.counters.items():
            add(tot, f"{s.name}.{key}", value)
        if s.name == "harness.get_eigendata":
            add(tot, "cache_misses" if "heckespace.build_space" in s.children else "cache_hits", 1)
        if s.name == "lvalue.wt_lattice" and "smoothing.wt_grid" in s.children:
            add(tot, "wt_lattice_misses", 1)
        if s.phase == "measure":
            covered += s.self_s

    def g(key: str) -> float:
        return (totals["setup"].get(key, 0.0) / max(n_setups, 1)
                + totals["measure"].get(key, 0.0) / max(n_rounds, 1))

    extend_s = sum(t.get("incl:heckespace.extend_prime_eigenvalues", 0.0) for t in totals.values())
    level_primes = sum(t.get("heckespace.extend_prime_eigenvalues.level_primes", 0.0)
                       for t in totals.values())
    spans_per_unit = sum(g("calls:" + name) for name, _ in WRAP_SITES)
    out = {f"{layer}.self_s": sum(g("self:" + name) for name, _ in WRAP_SITES
                                  if name.startswith(layer + "."))
           for layer in LAYERS}
    out.update({
        "bench.layer_coverage": covered / measured_s if measured_s > 0 else 0.0,
        "bench.trace_overhead_s": spans_per_unit * overhead_per_span,
        "heckespace.build_space_s": g("self:heckespace.build_space"),
        "heckespace.eigen_split_s": g("self:heckespace.eigen_split"),
        "heckespace.extend_prime_eigenvalues_s": g("self:heckespace.extend_prime_eigenvalues"),
        "heckespace.primes_per_s": level_primes / extend_s if extend_s > 0 else 0.0,
        "heckespace.fe_sign_s": g("incl:heckespace.fe_sign"),
        "heckespace.lambda_full_s": g("self:heckespace.lambda_full"),
        "harness.save_eigendata_s": g("self:harness.save_eigendata"),
        "harness.cache_bytes_written": g("harness.save_eigendata.bytes"),
        "harness.load_eigendata_s": g("self:harness.load_eigendata"),
        "harness.cache_bytes_read": g("harness.load_eigendata.bytes"),
        "harness.cache_hits": g("cache_hits"),
        "harness.cache_misses": g("cache_misses"),
        "harness.sweep_self_s": g("self:harness.sweep"),
        "smoothing.wt_grid_s": g("self:smoothing.wt_grid"),
        "smoothing.wt_grid_points": g("smoothing.wt_grid.points"),
        "lvalue.wt_lattice_calls": g("calls:lvalue.wt_lattice"),
        "lvalue.wt_lattice_misses": g("wt_lattice_misses"),
        "lvalue.l_squared_many_self_s": g("self:lvalue.l_squared_many"),
        "lvalue.lattice_terms": g("lvalue.l_squared_many.terms"),
        "moments.empirical_moment_self_s": g("self:moments.empirical_moment"),
        "moments.main_term_s": g("self:moments.main_term"),
        "moments.trace_route_moment_s": g("self:moments.trace_route_moment"),
        "moments.square_blocks_s": g("self:moments.square_blocks"),
        "moments.mellin_numeric_s": g("self:moments.mellin_numeric"),
        "moments.tau_square_series_s": g("self:moments.tau_square_series"),
    })
    return out
