"""The traced run: per-layer metrics, timed from outside the program.

A traced op does what ``Connection.run`` does, but by calling each
layer's public function itself, inside a span of the benchmark's own
``SpanRecorder``: frontend check, expr fingerprint, plan-cache lookup,
and on a miss core lift, optimizer and backend codegen; then backend
execute and runtime stitch.  On warm workloads the compile layers run
only in set-up.  The layers' shares of an op are the spans' medians.

Next to each traced op the run makes two untraced ``Connection.run``
ops, one with default settings and one with ``trace=False,
statement_stats=False``, in rotating order: their medians give the
tracing overhead of the traced op and the observability overhead
(``obs.overhead_ms``) of ``run`` itself.  Engine per-operator profiles
come from separate ops, because the per-operator collector costs time
of its own.
"""

from __future__ import annotations

import itertools
import statistics
import time
from collections import defaultdict
from typing import Any

from spans import SpanRecorder
from workloads import (SETUP_REPEATS, Subject, Tally, Workload, generate,
                       rotation)

from repro import Connection, to_q
from repro.algebra import node_count
from repro.analysis import verify_bundle
from repro.analysis.cost import estimate_bundle
from repro.core.bundle import compile_exp
from repro.expr import exp_fingerprint, tables_referenced
from repro.obs import AnalyzeCollector
from repro.optimizer import PassStats, optimize_bundle
from repro.runtime import CacheEntry, CacheKey, PlanCache, stitch

#: Metric prefix of each backend's layer (``repro.backends.<module>``).
PREFIX = {"engine": "engine", "mil": "mil", "sqlite": "sql"}
#: Bundle queries reported one by one (the nested report has three).
QUERY_SLOTS = 3
#: Engine operator kinds reported one by one: the ones that cost the
#: most on the running example (EqJoin and RowNum dominate its Q2).
TOP_OPERATORS = ("EqJoin", "RowNum", "Select", "BinApp", "Cross")
#: Per-operator profiling ops per run.
PROFILE_OPS = 3
#: Iterations of (traced, default, bare) ops a run makes at least.
MIN_ROUNDS = 3


def per_layer_metrics() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run reports, with its unit."""
    out = [
        ("frontend.build_ms", "ms"), ("frontend.check_ms", "ms"),
        ("expr.fingerprint_ms", "ms"),
        ("plancache.lookup_ms", "ms"), ("plancache.hit_ratio", "ratio"),
        ("core.lift_ms", "ms"), ("core.lift_nodes", "count"),
        ("optimizer.optimize_ms", "ms"), ("optimizer.nodes_after", "count"),
        ("optimizer.rounds", "count"), ("optimizer.rewrites_fired", "count"),
        ("optimizer.rewrite_yield", "ratio"),
        ("analysis.verify_ms", "ms"), ("analysis.cost_ms", "ms"),
        ("analysis.est_rows_ratio", "ratio"),
    ]
    for prefix in PREFIX.values():
        out += [(f"{prefix}.codegen_ms", "ms"),
                (f"{prefix}.artifact_bytes", "bytes"),
                (f"{prefix}.execute_ms", "ms"),
                (f"{prefix}.statements", "count"),
                (f"{prefix}.rows_out", "count")]
        out += [(f"{prefix}.q{i}_ms", "ms")
                for i in range(1, QUERY_SLOTS + 1)]
    out += [("engine.peak_intermediate_rows", "count"),
            ("engine.rows_processed", "count"),
            ("engine.rows_yield", "ratio")]
    for kind in TOP_OPERATORS:
        out += [(f"engine.op.{kind}_ms", "ms"),
                (f"engine.op.{kind}_rows", "count")]
    out += [("stitch.stitch_ms", "ms"), ("stitch.rows", "count"),
            ("obs.overhead_ms", "ms"), ("unattributed_ms", "ms"),
            ("tracing_overhead_pct", "%")]
    return out


#: ``Connection`` settings of the untraced comparison op that pays no
#: observability bookkeeping.
BARE = {"trace": False, "statement_stats": False}
#: Counters that must repeat exactly between two runs of the same code
#: and seed, per program.
EXACT = ("statements", "rows_out", "optimizer.nodes_after",
         "engine.peak_intermediate_rows", "stitch.rows")


def table_rows(conn: Connection) -> dict[str, int]:
    catalog = conn.catalog
    return {name: len(catalog.rows(name)) for name in catalog.table_names()}


def traced_layers(rec: SpanRecorder, op: int, conn: Connection,
                  cache: PlanCache, q: Any) -> tuple[Any, dict, CacheEntry]:
    """``Connection.run``'s steps after the program is built, each in a
    span.  Returns (value, facts, plan-cache entry)."""
    backend = conn.backend
    prefix = PREFIX[backend.name]
    facts: dict[str, float] = {}
    with rec.span("frontend.check", op):
        qq = to_q(q)
        for ref in tables_referenced(qq.exp).values():
            conn.catalog.check_reference(ref)
    with rec.span("expr.fingerprint", op):
        fp = exp_fingerprint(qq.exp)
    key = CacheKey(fp, conn.optimize, conn.decorrelate,
                   conn.catalog.schema_generation)
    with rec.span("plancache.lookup", op):
        entry = cache.lookup(key)
    facts["plancache.hit_ratio"] = float(entry is not None)
    if entry is None:
        with rec.span("core.lift", op):
            bundle = compile_exp(qq.exp, decorrelate=conn.decorrelate)
        facts["core.lift_nodes"] = sum(node_count(sq.plan)
                                       for sq in bundle.queries)
        stats = PassStats()
        with rec.span("optimizer.optimize", op):
            bundle = optimize_bundle(bundle, stats,
                                     table_rows=table_rows(conn),
                                     backend=backend.name)
        fired = sum(stats.rewrites_fired.values())
        gated = sum(stats.rewrites_gated.values())
        facts.update({"optimizer.nodes_after": stats.nodes_after,
                      "optimizer.rounds": stats.rounds,
                      "optimizer.rewrites_fired": fired,
                      "optimizer.rewrite_yield":
                          fired / (fired + gated) if fired + gated else 1.0})
        with rec.span(f"{prefix}.codegen", op):
            code = backend.prepare_bundle(bundle)
        entry = CacheEntry(bundle, pass_stats=stats)
        entry.codegen[backend.name] = code
        cache.insert(key, entry)
    collector = AnalyzeCollector()
    with rec.span(f"{prefix}.execute", op):
        result = backend.execute_bundle(entry.bundle, conn.catalog,
                                        prepared=entry.codegen[backend.name],
                                        collector=collector)
    with rec.span("stitch.stitch", op):
        value = stitch(entry.bundle, result.rows)
    rows_out = sum(len(rows) for rows in result.rows)
    facts[f"{prefix}.statements"] = result.queries_issued
    facts[f"{prefix}.rows_out"] = rows_out
    facts["stitch.rows"] = rows_out
    for qp in collector.queries:
        if qp.index <= QUERY_SLOTS:
            facts[f"{prefix}.q{qp.index}_ms"] = qp.time * 1e3
    if entry.bundle.cost is not None and rows_out:
        facts["analysis.est_rows_ratio"] = entry.bundle.cost.est_rows / rows_out
    return value, facts, entry


def analyse(rec: SpanRecorder, op: int, conn: Connection,
            entry: CacheEntry) -> dict:
    """Standalone analysis and artifact calls on a final bundle, after
    its op: verify and cost with a cold property cache, so they bound
    their share of ``optimize`` from above."""
    name = conn.backend.name
    with rec.span("analysis.verify", op):
        verify_bundle(entry.bundle, label="bench", mark=False)
    with rec.span("analysis.cost", op):
        estimate_bundle(entry.bundle, backend=name,
                        table_rows=table_rows(conn))
    artifacts = conn.backend.describe_prepared(entry.codegen[name])
    return {f"{PREFIX[name]}.artifact_bytes":
            sum(len(a.encode()) for a in artifacts if a)}


def engine_profile(conn: Connection, subject: Subject, entry: CacheEntry,
                   tally: Tally) -> dict:
    """One per-operator profiling op on the engine."""
    collector = AnalyzeCollector(per_op=True)
    result = conn.backend.execute_bundle(entry.bundle, conn.catalog,
                                         prepared=entry.codegen["engine"],
                                         collector=collector)
    tally.check(stitch(entry.bundle, result.rows), subject.expected)
    ops = [op for qp in collector.queries for op in qp.ops]
    processed = sum(op.rows_out for op in ops)
    out_rows = sum(len(rows) for rows in result.rows)
    facts = {"program": subject.program.name,
             "engine.peak_intermediate_rows":
                 max((op.rows_out for op in ops), default=0),
             "engine.rows_processed": processed,
             "engine.rows_yield": out_rows / processed if processed else 0.0}
    for kind in TOP_OPERATORS:
        mine = [op for op in ops if _kind(op.op) == kind]
        facts[f"engine.op.{kind}_ms"] = sum(op.time for op in mine) * 1e3
        facts[f"engine.op.{kind}_rows"] = sum(op.rows_out for op in mine)
    return facts


def _kind(describe: str) -> str:
    """Operator kind of a ``repro.algebra.describe`` line."""
    return describe.split(maxsplit=1)[0].split("[")[0].split("(")[0]


def _median(values: list) -> float:
    return float(statistics.median(values)) if values else 0.0


def run_traced(workload: Workload, seed: int, seconds: float,
               rec: SpanRecorder) -> dict:
    """Set up ``SETUP_REPEATS`` times with the compile layers traced, then
    run rounds of (traced, default, bare) ops for ``seconds``, then the
    engine profiling ops."""
    tally = Tally()
    op_ids = itertools.count()
    facts_of = {"setup": [], "loop": [], "profile": []}
    #: Per round: the latency of its traced, default and bare op.
    rounds: list[dict[str, float]] = []
    warm: dict[int, tuple[Connection, PlanCache, Connection]] = {}
    compiled: dict[str, tuple[Connection, Subject, CacheEntry]] = {}

    def traced_op(i: int, subject: Subject, phase: str) -> None:
        op = next(op_ids)
        with rec.span("op", op) as root:
            if i in warm:
                conn, cache, _ = warm[i]
                q = subject.q
            else:
                conn = Connection(backend=workload.backend,
                                  catalog=subject.catalog)
                cache = PlanCache()
                with rec.span("frontend.build", op):
                    q = subject.program.build(conn)
            value, facts, entry = traced_layers(rec, op, conn, cache, q)
        tally.check(value, subject.expected)
        if not facts["plancache.hit_ratio"]:
            facts.update(analyse(rec, op, conn, entry))
        facts.update(program=subject.program.name, op=op)
        facts_of[phase].append(facts)
        compiled[subject.program.name] = (conn, subject, entry)
        if phase == "loop":
            rounds[-1]["traced"] = root.duration
        elif workload.warm:
            subject.conn, subject.q = conn, q
            warm[i] = (conn, cache, Connection(
                backend=workload.backend, catalog=subject.catalog, **BARE))

    def plain_op(i: int, subject: Subject, bare: bool) -> None:
        settings = BARE if bare else {}
        t0 = time.perf_counter()
        if workload.warm:
            conn = warm[i][2] if bare else subject.conn
            q = subject.q
        else:
            conn = Connection(backend=workload.backend,
                              catalog=subject.catalog, **settings)
            q = subject.program.build(conn)
        value = conn.run(q)
        rounds[-1]["bare" if bare else "default"] = time.perf_counter() - t0
        tally.check(value, subject.expected)

    for _ in range(SETUP_REPEATS):
        warm.clear()
        subjects, _spent = generate(workload, seed)
        for i, subject in enumerate(subjects):
            traced_op(i, subject, "setup")
    for i, subject in enumerate(subjects):
        if workload.warm:  # the untraced connections' own first runs
            tally.check(subject.conn.run(subject.q), subject.expected)
            tally.check(warm[i][2].run(subject.q), subject.expected)

    kinds = ("traced", "default", "bare")
    order = rotation(len(subjects), seed)
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(rounds) < MIN_ROUNDS:
        i = next(order)
        subject = subjects[i]
        turn = len(rounds) % 3
        rounds.append({})
        for kind in kinds[turn:] + kinds[:turn]:
            try:
                if kind == "traced":
                    traced_op(i, subject, "loop")
                else:
                    plain_op(i, subject, bare=kind == "bare")
            except Exception as err:  # counted as a failed op
                tally.crashed(err)

    if workload.backend == "engine":
        for n in range(PROFILE_OPS):
            conn, subject, entry = list(compiled.values())[n % len(compiled)]
            facts_of["profile"].append(
                engine_profile(conn, subject, entry, tally))
    return {"metrics": _metrics(rec, facts_of, rounds),
            "tally": tally, "counters": _counters(facts_of),
            "notes": {"rounds": len(rounds),
                      "error_rate": tally.failed / tally.attempted}}


def _metrics(rec: SpanRecorder, facts_of: dict[str, list[dict]],
             rounds: list[dict[str, float]]) -> dict:
    """Medians per op: a layer's value comes from the loop's ops, or from
    set-up when the loop never reaches the layer (compile layers on warm
    workloads); 0 where the workload does not exercise the layer.  The
    two overheads are medians of differences within a round, which
    cancels the machine's slower drifts."""
    loop_ops = {f["op"] for f in facts_of["loop"]}
    spans: dict[str, tuple[list, list]] = defaultdict(lambda: ([], []))
    for sp in rec.spans:
        spans[sp.name][0 if sp.op in loop_ops else 1].append(sp.duration)
    self_times = rec.self_times()
    unattributed = [self_times[sp.id] for sp in rec.spans
                    if sp.name == "op" and sp.op in loop_ops]
    full = [r for r in rounds if len(r) == 3]
    special = {
        "obs.overhead_ms": (
            _median([(r["default"] - r["bare"]) * 1e3 for r in full]),
            len(full)),
        "unattributed_ms": (_median(unattributed) * 1e3, len(unattributed)),
        "tracing_overhead_pct": (
            _median([(r["traced"] / r["default"] - 1.0) * 100.0
                     for r in full]), len(full)),
    }
    out = {}
    for name, unit in per_layer_metrics():
        if name in special:
            value, n = special[name]
        else:
            samples = _pick(name, spans, facts_of)
            value, n = _median(samples), len(samples)
        out[name] = (value, unit, n)
    return out


def _pick(name: str, spans: dict, facts_of: dict[str, list[dict]]) -> list:
    if name.endswith("_ms") and name[:-3] in spans:
        loop, setup = spans[name[:-3]]
        return [d * 1e3 for d in (loop or setup)]
    for phases in (("loop", "profile"), ("setup",)):
        samples = [f[name] for phase in phases for f in facts_of[phase]
                   if name in f]
        if samples:
            return samples
    return []


def _counters(facts_of: dict[str, list[dict]]) -> dict[str, set]:
    counters: dict[str, set] = {}
    for facts in itertools.chain(*facts_of.values()):
        for name, value in facts.items():
            if name.endswith(EXACT):
                counters.setdefault(f"{facts['program']}.{name}",
                                    set()).add(value)
    return counters
