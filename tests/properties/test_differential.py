"""Property: every backend implements the reference list semantics.

Random well-typed query pipelines are executed through the interpreter,
the in-memory engine (optimized and unoptimized), SQLite via generated
SQL, and the MIL VM; all must agree on values *and* order.  This is the
library's strongest correctness evidence for the paper's claim that the
relational encodings "faithfully preserve the DSH semantics" (Section 3.2).
"""

import os

from hypothesis import given

from .support import prop_settings

from repro import Connection
from repro.analysis import set_verify_debug
from repro.runtime import Catalog
from repro.semantics import Interpreter

from .strategies import (
    any_query,
    reordered_join_comprehension,
    int_list_query,
    key_join_comprehension,
    nested_query,
    scalar_query,
)

CATALOG = Catalog()
SETTINGS = prop_settings(40)
SHARDS = int(os.environ.get("FERRY_SHARDS", "2"))


def run_everywhere(q):
    expected = Interpreter(CATALOG).run(q.exp)
    for backend in ("engine", "sqlite", "mil"):
        db = Connection(backend=backend, catalog=CATALOG)
        assert db.run(q) == expected, f"{backend} diverged"
    raw = Connection(catalog=CATALOG, optimize=False)
    assert raw.run(q) == expected, "unoptimized engine diverged"
    par = Connection(catalog=CATALOG, parallel_bundles=True)
    assert par.run(q) == expected, "parallel bundle execution diverged"
    sharded = Connection(shards=SHARDS, catalog=CATALOG)
    assert sharded.run(q) == expected, "sharded SQL execution diverged"
    return expected


def run_verified(q):
    """Every backend, re-verified after each optimizer pass, and the plan
    without decorrelation must agree with the interpreter."""
    previous = set_verify_debug(True)
    try:
        expected = Interpreter(CATALOG).run(q.exp)
        for backend in ("engine", "sqlite", "mil"):
            db = Connection(backend=backend, catalog=CATALOG)
            assert db.run(q) == expected, f"{backend} diverged"
        naive = Connection(catalog=CATALOG, decorrelate=False)
        assert naive.run(q) == expected, "decorrelate=False diverged"
    finally:
        set_verify_debug(previous)
    return expected


class TestDifferential:
    @SETTINGS
    @given(int_list_query())
    def test_flat_pipelines(self, q):
        run_everywhere(q)

    @SETTINGS
    @given(nested_query())
    def test_nested_pipelines(self, q):
        run_everywhere(q)

    @SETTINGS
    @given(scalar_query())
    def test_aggregations(self, q):
        run_everywhere(q)

    @prop_settings(25)
    @given(any_query())
    def test_mixed_shapes(self, q):
        run_everywhere(q)

    @SETTINGS
    @given(key_join_comprehension())
    def test_key_equality_joins(self, case):
        """Guard fusion turns the cross-generator equality into a join
        key."""
        q, expected = case
        assert run_verified(q) == expected

    @SETTINGS
    @given(reordered_join_comprehension())
    def test_reordered_invariant_joins(self, case):
        """Invariant-prefix reordering keys the second generator by the
        iteration first and restores the comprehension's order."""
        q, expected = case
        assert run_verified(q) == expected
