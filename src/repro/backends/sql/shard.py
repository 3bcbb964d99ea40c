"""Partition-parallel SQL execution: scatter on ``iter``, gather on
``(iter, pos)``.

Loop-lifting hands us a natural partitioning key for free: every bundle
query carries the loop-instance surrogate ``iter``, and the stitcher
consumes ``iter`` groups independently.  The sharded executor exploits
this: for each bundle query that the analysis layer proves partitionable
(:func:`repro.analysis.shardable`, code ``S400``), shard ``k`` of ``n``
executes the plan filtered to ``iter mod n = k`` -- with the filter
pushed toward the leaves -- on its *own* SQLite connection, pinned to
its own worker thread.  SQLite releases the GIL while a statement runs,
so the shards genuinely overlap on multi-core machines.

Gather is a ``heapq.merge`` on ``(iter, pos)``: each shard's statement
already ends in ``ORDER BY iter, pos`` (the backend contract the
stitcher relies on), the shard predicates are disjoint and exhaustive,
and whole ``iter`` groups live on exactly one shard -- so the merge
reproduces the single-image row stream *exactly*, by construction.

Plans the analysis refuses (constant ``iter``, tiny plans, pushdown
blocked at the root -- each with a stable ``F40x`` reason code) fall
back to single-image execution transparently: same rows, same order,
same errors.

Why replicas, not partitioned base tables: the compiler derives every
surrogate by *globally* row-numbering scanned tables (the canonical
``RowNum`` right above each ``TableScan``).  Physically splitting base
rows across shards would renumber them per shard and change every
surrogate -- provably unsound for any lifted plan.  Each shard therefore
holds a full catalog replica, and the shard predicate (not the data
placement) provides the partitioning.  See DESIGN.md.
"""

from __future__ import annotations

import heapq
import time
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from ...analysis import (
    PropsCache,
    ShardDecision,
    build_shard_plan,
    ensure_verified,
    shardable,
)
from ...core.bundle import Bundle, SerializedQuery
from ...errors import FerryError, ShardError
from ...obs.metrics import METRICS
from ...obs.trace import NULL_TRACER
from ...runtime.catalog import Catalog
from ..base import Backend, ExecutionResult, observe_query_time
from .backend import SQLiteBackend
from .dbapi import Adapter, SQLiteAdapter
from .generate import GeneratedSQL


@dataclass
class ShardedQuery:
    """Prepared form of one bundle member under sharding."""

    #: Single-image statement (fallback path, and EXPLAIN artifact).
    single: GeneratedSQL
    #: The analysis verdict with its stable reason code.
    decision: ShardDecision
    #: One statement per shard when ``decision.shardable`` (else ``None``).
    shards: "tuple[GeneratedSQL, ...] | None"


def _close_pools(pools, conns):
    for pool in pools:
        pool.shutdown(wait=False, cancel_futures=True)
    for conn in conns:
        if conn is not None:
            try:
                conn.close()
            except Exception:  # pragma: no cover - close is best effort
                pass


class ShardedSQLiteBackend(Backend):
    """Scatter-gather executor over ``n`` single-thread SQLite shards.

    The backend name encodes the fan-out (``sqlite-x4``): prepared
    artifacts are shard-count-specific, and the plan cache's per-backend
    codegen store keys on the name.
    """

    def __init__(self, shards: int, path: str = ":memory:",
                 adapter: "Adapter | None" = None):
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.shards = shards
        self.name = f"sqlite-x{shards}"
        #: Single-image engine: generation, value conversion, catalog
        #: loading, and the fallback execution path all delegate here.
        self._image = SQLiteBackend(path, adapter=adapter)
        self.adapter = self._image.adapter
        self.dialect = self._image.dialect
        #: One single-thread pool per shard; the pool pins its shard's
        #: connection to its one worker thread (DB-API connections are
        #: not thread-safe).  Created lazily: bundles whose every query
        #: falls back never pay for threads.
        self._pools: "list[ThreadPoolExecutor] | None" = None
        self._conns: list = [None] * shards
        self._loaded: list = [None] * shards
        self._finalizer = None

    # -- statement accounting (delegated to the single-image engine so
    # -- fallback and sharded statements land in one counter)
    @property
    def statements_executed(self) -> int:
        return self._image.statements_executed

    def close(self) -> None:
        """Shut down shard pools and close their connections."""
        if self._pools is not None:
            _close_pools(self._pools, self._conns)
            self._pools = None
            self._conns = [None] * self.shards
            self._loaded = [None] * self.shards
        if self._finalizer is not None:
            self._finalizer.detach()
            self._finalizer = None

    def _shard_pools(self) -> "list[ThreadPoolExecutor]":
        if self._pools is None:
            self._pools = [
                ThreadPoolExecutor(
                    max_workers=1,
                    thread_name_prefix=f"ferry-shard{k}")
                for k in range(self.shards)
            ]
            # Hypothesis suites construct thousands of short-lived
            # connections; reclaim pool threads when the backend dies
            # even without an explicit close().
            self._finalizer = weakref.finalize(
                self, _close_pools, self._pools, self._conns)
        return self._pools

    # ------------------------------------------------------------------
    def prepare_bundle(self, bundle: Bundle) -> list[ShardedQuery]:
        """Decide shardability per query and generate all statements."""
        ensure_verified(bundle, f"backend:{self.name}")
        cache = PropsCache()
        prepared = []
        for query in bundle.queries:
            decision = shardable(query, cache, fanout=self.shards)
            gens = None
            if decision.shardable:
                gens = tuple(
                    self._image.generate(
                        build_shard_plan(query, self.shards, k))
                    for k in range(self.shards))
            prepared.append(ShardedQuery(self._image.generate(query),
                                         decision, gens))
        return prepared

    def describe_prepared(self,
                          prepared: "list[ShardedQuery]") -> list[str]:
        """Single-image SQL, stamped as the single-image backend stamps
        it.  The shard decision is rendered once, by EXPLAIN, from
        ``shard_decisions``."""
        return self._image.describe_prepared([sq.single for sq in prepared])

    def shard_decisions(self,
                        bundle: Bundle) -> "list[ShardDecision]":
        """Per-query shard verdicts (EXPLAIN surfaces these)."""
        cache = PropsCache()
        return [shardable(query, cache, fanout=self.shards)
                for query in bundle.queries]

    # ------------------------------------------------------------------
    def execute_bundle(self, bundle: Bundle, catalog: Catalog,
                       prepared: "list[ShardedQuery] | None" = None,
                       tracer=NULL_TRACER,
                       collector=None,
                       parallel: bool = False) -> ExecutionResult:
        if prepared is None:
            prepared = self.prepare_bundle(bundle)
        n = len(bundle.queries)
        results: "list[list[tuple] | None]" = [None] * n
        qps = [collector.query(qi + 1) if collector is not None else None
               for qi in range(n)]
        sharded_count = 0
        shard_timings: list[tuple[int, float]] = []
        for qi, (sq, query) in enumerate(zip(prepared, bundle.queries)):
            qp = qps[qi]
            if sq.shards is None:
                # Transparent fallback: the single-image engine runs the
                # unsharded statement on the coordinating thread.
                with tracer.span("execute", query=qi + 1, backend=self.name,
                                 shard="fallback",
                                 decision=sq.decision.code) as sp:
                    self._image._ensure_loaded(catalog)
                    t0 = time.perf_counter()
                    rows = self._image.run_sql(sq.single, query)
                    seconds = time.perf_counter() - t0
                    sp.set(rows=len(rows))
                    if qp is not None:
                        qp.time = seconds
                        qp.rows = len(rows)
                observe_query_time(self.name, qi, seconds, tracer.trace_id)
                self._image.statements_executed += 1
            else:
                t0 = time.perf_counter() if qp is not None else 0.0
                rows, timings = self._scatter_gather(sq, query, catalog,
                                                     qi, tracer)
                shard_timings.extend(timings)
                if qp is not None:
                    qp.time = time.perf_counter() - t0
                    qp.rows = len(rows)
                self._image.statements_executed += self.shards
                sharded_count += 1
            results[qi] = rows

        total_rows = sum(len(rows) for rows in results)
        METRICS.counter("backend.sqlite.queries").inc(n)
        METRICS.counter("backend.sqlite.rows").inc(total_rows)
        METRICS.counter("backend.shard.queries_sharded").inc(sharded_count)
        METRICS.counter("backend.shard.queries_fallback").inc(
            n - sharded_count)
        return ExecutionResult(
            results, queries_issued=n,
            artifacts={"sql": [sq.single.text for sq in prepared],
                       "shards": self.shards,
                       "decisions": [sq.decision.code for sq in prepared]},
            shard_timings=shard_timings)

    def _scatter_gather(self, sq: ShardedQuery, query: SerializedQuery,
                        catalog: Catalog, qi: int, tracer
                        ) -> "tuple[list[tuple], list[tuple[int, float]]]":
        """Fan one query's shard statements out and merge the results;
        also returns each shard's wall-clock seconds."""
        pools = self._shard_pools()
        futures = [
            pools[k].submit(self._run_shard, sq.shards[k], query, catalog,
                            k, qi, tracer)
            for k in range(self.shards)
        ]
        shard_rows: list = [None] * self.shards
        timings: list[tuple[int, float]] = []
        handles = []
        error: "Exception | None" = None
        for k, future in enumerate(futures):
            try:
                shard_rows[k], handle, seconds = future.result()
                handles.append(handle)
                timings.append((k, seconds))
            except FerryError as err:
                # Semantic failures (e.g. division by zero in a UDF)
                # must surface exactly as single-image execution would
                # raise them.
                error = error or err
            except Exception as err:  # infrastructure failure
                error = error or ShardError(k, str(err))
        for handle in handles:  # adopt spans in shard order
            tracer.attach(handle)
        hist = METRICS.histogram("backend.shard.seconds")
        trace_id = tracer.trace_id
        for k, seconds in timings:
            hist.observe(seconds,
                         exemplar=({"trace_id": trace_id,
                                    "shard": str(k)}
                                   if trace_id is not None else None))
        if error is not None:
            raise error
        # Disjoint iter groups, each shard already (iter, pos)-sorted:
        # a k-way merge *is* the global order.
        merged = list(heapq.merge(*shard_rows, key=lambda r: (r[0], r[1])))
        return merged, timings

    def _run_shard(self, gen: GeneratedSQL, query: SerializedQuery,
                   catalog: Catalog, k: int, qi: int, tracer):
        """One shard statement, on the shard's pinned thread/connection."""
        conn = self._conns[k]
        if conn is None:
            conn = self.adapter.connect()
            self._conns[k] = conn
        key = (id(catalog), catalog.version)
        if self._loaded[k] != key:
            self._image._ensure_loaded(catalog, conn)
            self._loaded[k] = key
        handle = tracer.detached("execute", query=qi + 1, backend=self.name,
                                 shard=k)
        t0 = time.perf_counter()
        with handle as sp:
            rows = self._image.run_sql(gen, query, conn)
            sp.set(rows=len(rows))
        return rows, handle, time.perf_counter() - t0
