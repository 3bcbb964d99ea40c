"""Executing generated SQL on an off-the-shelf RDBMS via DB-API.

Step 4 of Figure 2: the bundle's SQL statements run on a standards-
compliant relational system.  The paper used PostgreSQL 9.0; here any
PEP 249 driver can play that role through the adapter layer in
:mod:`repro.backends.sql.dbapi` (the default adapter wraps the stdlib
``sqlite3``: window functions, CTEs).  Catalog tables are loaded once per
catalog version.  Each bundle member runs as its staged script (see
:mod:`repro.backends.sql.generate`) inside one transaction that is always
rolled back, which discards its temporary tables.  The script's length
depends only on the plan's shape, so a member still counts as one
statement and the connection's statement count directly measures
avalanches (Table 1).

With ``parallel=True`` the bundle's statements fan out over a thread
pool.  DB-API connections are single-thread objects, so every worker
thread lazily opens its *own* connection via the adapter and loads the
catalog (keyed on catalog identity+version, so repeated bundles amortize
the load).  SQLite releases the GIL while a statement runs, which makes
this the one backend where Python threads buy real CPU concurrency.
File-backed databases stay serial: separate connections on one file
would race on the catalog load.
"""

from __future__ import annotations

import time
import threading
from concurrent.futures import ThreadPoolExecutor

from ...analysis import ensure_verified
from ...core.bundle import Bundle, SerializedQuery
from ...errors import ExecutionError
from ...obs.metrics import METRICS
from ...obs.trace import NULL_TRACER
from ...runtime.catalog import Catalog
from ..base import Backend, ExecutionResult, observe_query_time
from ..engine.backend import default_workers
from .dbapi import (
    Adapter,
    SQLiteAdapter,
    clear_udf_error,
    load_catalog,
    take_udf_error,
)
from .generate import GeneratedSQL, generate_sql


class SQLiteBackend(Backend):
    """Generates dialect-rendered SQL:1999 and executes it over DB-API.

    Named for its default host: with no explicit adapter this runs on
    in-memory SQLite.  Any :class:`~repro.backends.sql.dbapi.Adapter`
    can be substituted; the generator takes its quirks from
    ``adapter.dialect``.
    """

    name = "sqlite"

    def __init__(self, path: str = ":memory:",
                 adapter: "Adapter | None" = None):
        self.adapter: Adapter = (SQLiteAdapter(path) if adapter is None
                                 else adapter)
        self.dialect = self.adapter.dialect
        self._path = path
        self._conn = self.adapter.connect()
        self._local = threading.local()
        #: Catalog (identity, version) loaded per connection, keyed by
        #: ``id(conn)``.  Each thread touches only its own connection's
        #: entry, so plain dict writes are safe.
        self._loaded: dict[int, tuple[int, int]] = {}
        self._pool: "ThreadPoolExecutor | None" = None
        #: SQL statements executed over this backend's lifetime.  Bumped
        #: only by the coordinating thread (also under parallelism).
        self.statements_executed = 0

    # ------------------------------------------------------------------
    def prepare_bundle(self, bundle: Bundle) -> list[GeneratedSQL]:
        """Generate the bundle's SQL statements (no execution)."""
        ensure_verified(bundle, "backend:sqlite")
        return [self.generate(query) for query in bundle.queries]

    def describe_prepared(self, prepared: "list[GeneratedSQL]") -> list[str]:
        """The generated SQL statements, each stamped with the dialect
        and DB-API driver that produced and will host it, and with the
        temp tables and indexes its executed script stages."""
        stamp = f"-- dialect {self.dialect.name} ({self.adapter.describe()})"
        return [f"{stamp}\n-- staged: {gen.temp_tables} temp tables, "
                f"{gen.indexes} indexes\n{gen.text}" for gen in prepared]

    def _executor(self, n_queries: int) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=default_workers(max(n_queries, 2)),
                thread_name_prefix="ferry-sqlite")
        return self._pool

    def execute_bundle(self, bundle: Bundle, catalog: Catalog,
                       prepared: "list[GeneratedSQL] | None" = None,
                       tracer=NULL_TRACER,
                       collector=None,
                       parallel: bool = False) -> ExecutionResult:
        if prepared is None:
            prepared = self.prepare_bundle(bundle)
        n = len(bundle.queries)
        sql_texts = [gen.text for gen in prepared]
        results: "list[list[tuple] | None]" = [None] * n
        # Profiles are pre-registered in bundle order from this thread,
        # so reports stay aligned with bundle.queries under parallelism.
        qps = [collector.query(qi + 1) if collector is not None else None
               for qi in range(n)]

        if parallel and n > 1 and self._path == ":memory:":
            pool = self._executor(n)
            futures = [
                pool.submit(self._run_query, gen, query, catalog, qi,
                            tracer, qps[qi])
                for qi, (gen, query)
                in enumerate(zip(prepared, bundle.queries))
            ]
            handles = []
            for qi, future in enumerate(futures):
                rows, handle = future.result()
                results[qi] = rows
                self.statements_executed += 1
                handles.append(handle)
            for handle in handles:  # adopt spans in bundle-query order
                tracer.attach(handle)
        else:
            self._ensure_loaded(catalog)
            for qi, (gen, query) in enumerate(zip(prepared, bundle.queries)):
                # The host runs each statement as one opaque unit, so
                # per-query wall time + row count is the finest ANALYZE
                # granularity here.
                qp = qps[qi]
                with tracer.span("execute", query=qi + 1,
                                 backend=self.name) as sp:
                    t0 = time.perf_counter()
                    rows = self.run_sql(gen, query)
                    seconds = time.perf_counter() - t0
                    sp.set(rows=len(rows))
                    if qp is not None:
                        qp.time = seconds
                        qp.rows = len(rows)
                observe_query_time(self.name, qi, seconds, tracer.trace_id)
                self.statements_executed += 1
                results[qi] = rows

        total_rows = sum(len(rows) for rows in results)
        METRICS.counter("backend.sqlite.queries").inc(n)
        METRICS.counter("backend.sqlite.rows").inc(total_rows)
        return ExecutionResult(results, queries_issued=n,
                               artifacts={"sql": sql_texts})

    # ------------------------------------------------------------------
    def _run_query(self, gen: GeneratedSQL, query: SerializedQuery,
                   catalog: Catalog, qi: int, tracer, qp):
        """One bundle statement on a worker thread, using the thread's
        own connection; returns rows plus the detached trace span."""
        conn = self._thread_conn(catalog)
        handle = tracer.detached("execute", query=qi + 1, backend=self.name)
        with handle as sp:
            t0 = time.perf_counter()
            rows = self.run_sql(gen, query, conn)
            seconds = time.perf_counter() - t0
            sp.set(rows=len(rows))
            if qp is not None:
                qp.time = seconds
                qp.rows = len(rows)
        observe_query_time(self.name, qi, seconds, tracer.trace_id)
        return rows, handle

    def _thread_conn(self, catalog: Catalog):
        """This thread's private connection, catalog loaded."""
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = self.adapter.connect()
            self._local.conn = conn
        self._ensure_loaded(catalog, conn)
        return conn

    def generate(self, query: SerializedQuery) -> GeneratedSQL:
        """SQL for one bundle member (iter, pos, items; ordered)."""
        out_cols = (query.iter_col, query.pos_col) + query.item_cols
        return generate_sql(query.plan, out_cols,
                            (query.iter_col, query.pos_col),
                            self.dialect)

    def run_sql(self, gen: GeneratedSQL, query: SerializedQuery,
                conn=None) -> list[tuple]:
        """Execute one member's staged script and convert values back.

        The script runs in one transaction that is rolled back on
        success and failure alike, so no temporary table outlives it.
        Does *not* bump ``statements_executed`` -- the bundle loop does,
        from the coordinating thread, so the counter never races."""
        if conn is None:
            conn = self._conn
        clear_udf_error()
        statement = "BEGIN"
        try:
            conn.execute(statement)
            for statement in gen.script:
                cursor = conn.execute(statement)
            raw_rows = cursor.fetchall()
        except Exception as err:
            udf_err = take_udf_error()
            if udf_err is not None:
                raise udf_err from None
            raise ExecutionError(
                f"{self.dialect.name} rejected generated SQL: {err}\n"
                f"{statement}") from None
        finally:
            conn.rollback()
        converters = [self.dialect.from_db_value(ty)
                      for ty in query.item_types]
        rows = []
        for raw in raw_rows:
            it, pos = raw[0], raw[1]
            items = tuple(conv(v) for conv, v in zip(converters, raw[2:]))
            rows.append((it, pos) + items)
        return rows

    # ------------------------------------------------------------------
    def _ensure_loaded(self, catalog: Catalog, conn=None) -> None:
        if conn is None:
            conn = self._conn
        key = (id(catalog), catalog.version)
        if self._loaded.get(id(conn)) == key:
            return
        load_catalog(conn, catalog, self.dialect)
        self._loaded[id(conn)] = key
