"""The sharded SQL executor: scatter/gather equivalence, transparent
fallback, failure propagation, and the observability surface.

The correctness contract under test: ``Connection(shards=n)`` returns
*exactly* what the single-image SQLite backend returns -- same values,
same order -- whether a query scatters (``S400``) or falls back
(``F40x``), and failures inside a shard surface either as the original
semantic error (transparent) or as a :class:`ShardError` naming the
failing shard (infrastructure).
"""

import pytest

from repro import (
    Connection,
    PartialFunctionError,
    QTypeError,
    ShardError,
    fmap,
    to_q,
)
from repro.backends.sql import ShardedSQLiteBackend
from repro.bench.table1 import running_example_query
from repro.bench.workloads import avalanche_dataset, paper_dataset
from repro.runtime import Catalog


def nested_probe(db):
    """A nested query whose inner member shards (code ``S400``): its
    ``iter`` derives from the stable base-scan surrogate, so the filter
    pushes through the surrogate-regeneration self-join."""
    features = db.table("features")
    return fmap(
        lambda f: features.filter(lambda g: g[0] == f[0]).map(
            lambda g: g[1]),
        db.table("facilities"))


def numbers_catalog(with_zero=False):
    cat = Catalog()
    cat.create_table("outers", [("k", int)], [(i,) for i in range(1, 9)])
    rows = [(i, i) for i in range(1, 9)]
    if with_zero:
        rows.append((5, 0))
    cat.create_table("inners", [("k", int), ("v", int)], rows)
    return cat


def division_probe(db):
    inners = db.table("inners")
    return fmap(
        lambda a: inners.filter(lambda b: b[0] == a).map(
            lambda b: to_q(100) // b[1]),
        db.table("outers"))


@pytest.fixture(scope="module")
def avalanche():
    return avalanche_dataset(30)


class TestScatterGather:
    @pytest.mark.parametrize("shards", [1, 2, 3, 4])
    def test_rows_identical_to_single_image(self, avalanche, shards):
        single = Connection(backend="sqlite", catalog=avalanche)
        sharded = Connection(shards=shards, catalog=avalanche)
        expected = single.run(nested_probe(single))
        assert sharded.run(nested_probe(sharded)) == expected
        # order is part of the contract: the merge on (iter, pos) must
        # reproduce the nested list order exactly
        assert expected == sorted(expected, key=lambda g: g)

    def test_inner_query_actually_scatters(self, avalanche):
        sharded = Connection(shards=3, catalog=avalanche)
        report = sharded.explain(nested_probe(sharded))
        codes = [q.shard["code"] for q in report.queries]
        assert codes == ["F401", "S400"]
        assert report.queries[1].shard["fanout"] == 3
        assert report.queries[1].shard["coverage"] >= 0.25

    def test_fallback_is_transparent(self):
        # The running example's inner iter is itself a regenerated
        # surrogate referenced by the outer query, so the analysis must
        # refuse (the rank escapes) -- and results must still match.
        catalog = paper_dataset()
        single = Connection(backend="sqlite", catalog=catalog)
        sharded = Connection(shards=4, catalog=catalog)
        report = sharded.explain(running_example_query(sharded))
        assert all(not q.shard["shardable"] for q in report.queries)
        assert (single.run(running_example_query(single))
                == sharded.run(running_example_query(sharded)))

    def test_statement_accounting_counts_every_shard(self, avalanche):
        sharded = Connection(shards=3, catalog=avalanche)
        sharded.run(nested_probe(sharded))
        # Q1 falls back (1 statement), Q2 scatters (3 statements).
        assert sharded.backend.statements_executed == 4


class TestFailurePropagation:
    def test_semantic_error_passes_through_scatter(self):
        catalog = numbers_catalog(with_zero=True)
        sharded = Connection(shards=2, catalog=catalog)
        report = sharded.explain(division_probe(sharded))
        assert report.queries[1].shard["code"] == "S400"
        with pytest.raises(PartialFunctionError) as excinfo:
            sharded.run(division_probe(sharded))
        assert not isinstance(excinfo.value, ShardError)

    def test_infrastructure_failure_names_the_shard(self, avalanche):
        sharded = Connection(shards=2, catalog=avalanche)
        backend = sharded.backend
        original = backend._run_shard

        def failing(gen, query, catalog, k, qi, tracer):
            if k == 1:
                raise RuntimeError("injected shard crash")
            return original(gen, query, catalog, k, qi, tracer)

        backend._run_shard = failing
        with pytest.raises(ShardError) as excinfo:
            sharded.run(nested_probe(sharded))
        assert excinfo.value.shard == 1
        assert "shard 1" in str(excinfo.value)
        assert "injected shard crash" in str(excinfo.value)


class TestObservability:
    def test_describe_prepared_names_dialect(self, avalanche):
        sharded = Connection(shards=2, catalog=avalanche)
        report = sharded.explain(nested_probe(sharded))
        for q in report.queries:
            assert "-- dialect sqlite (driver sqlite3" in q.artifact
            assert "shard decision" not in q.artifact

    def test_each_decision_rendered_once(self, avalanche):
        sharded = Connection(shards=2, catalog=avalanche)
        text = str(sharded.explain(nested_probe(sharded)))
        assert text.count("shard decision") == 2
        assert text.count("F401") == 1 and text.count("S400") == 1
        assert text.count("single-image fallback") == 1
        assert text.count("fan-out 2") == 1

    def test_render_includes_decision_lines(self, avalanche):
        sharded = Connection(shards=2, catalog=avalanche)
        text = str(sharded.explain(nested_probe(sharded)))
        assert "-- shard decision for Q1: F401" in text
        assert "-- shard decision for Q2: S400" in text

    def test_trace_has_one_span_per_shard(self, avalanche):
        sharded = Connection(shards=2, catalog=avalanche)
        sharded.run(nested_probe(sharded))
        trace = sharded.last_trace
        spans = [s for s in _walk(trace.root) if s.name == "execute"]
        shard_attrs = sorted(
            (s.attrs["query"], str(s.attrs["shard"])) for s in spans)
        # Q1 runs single-image (fallback span), Q2 fans out to 2 shards.
        assert shard_attrs == [(1, "fallback"), (2, "0"), (2, "1")]


def _walk(span):
    yield span
    for child in span.children:
        yield from _walk(child)


class TestConfiguration:
    def test_backend_name_encodes_fanout(self):
        assert ShardedSQLiteBackend(4).name == "sqlite-x4"

    def test_shard_count_validated(self):
        with pytest.raises(ValueError):
            ShardedSQLiteBackend(0)

    def test_shards_require_sql_backend(self):
        with pytest.raises(QTypeError):
            Connection(backend="mil", shards=2)

    def test_shards_with_explicit_sqlite_backend(self, avalanche):
        conn = Connection(backend="sqlite", shards=2, catalog=avalanche)
        assert conn.backend.name == "sqlite-x2"

    def test_close_is_idempotent(self, avalanche):
        sharded = Connection(shards=2, catalog=avalanche)
        sharded.run(nested_probe(sharded))
        sharded.backend.close()
        sharded.backend.close()

    def test_partition_hints_validated(self, avalanche):
        from repro.errors import SchemaError
        avalanche.set_partition_hint("facilities", "cat")
        assert avalanche.partition_hint("facilities") == "cat"
        assert avalanche.partition_hint("features") is None
        with pytest.raises(SchemaError):
            avalanche.set_partition_hint("facilities", "nope")
