"""The decorrelation (join-graph isolation) rule and guard scheduling."""

import pytest

from repro import Connection, ffilter, fmap, table
from repro.frontend.comprehensions import parser as P
from repro.frontend.comprehensions.desugar import (
    FusedGen,
    _conjuncts,
    _schedule_guards,
)
from repro.semantics import Interpreter


@pytest.fixture()
def db():
    conn = Connection()
    conn.create_table("t", [("k", int), ("v", str)],
                      [(1, "a"), (2, "b"), (1, "c"), (3, "d")])
    conn.create_table("nums", [("n", int)], [(i,) for i in range(5)])
    return conn


class TestGuardScheduling:
    def parse(self, src):
        return P.parse_comprehension(src).quals

    def test_conjunct_split(self):
        expr = P.parse_expression("a and b and c")
        assert len(_conjuncts(expr)) == 3

    def test_single_generator_guard_fused(self):
        quals = _schedule_guards(self.parse("[x | x <- xs, x > 1]"))
        (gen,) = quals
        assert isinstance(gen, FusedGen)
        assert len(gen.fused) == 1

    def test_cross_generator_key_equality_fuses(self):
        # x == y: the y side mentions only y's pattern, the x side none of
        # it -- a join key for the decorrelation rule
        quals = _schedule_guards(self.parse(
            "[x | x <- xs, y <- ys, x == y]"))
        assert len(quals) == 2
        assert isinstance(quals[0], FusedGen) and not quals[0].fused
        assert isinstance(quals[1], FusedGen) and len(quals[1].fused) == 1

    def test_mixed_guard_splits_across_generators(self):
        quals = _schedule_guards(self.parse(
            "[x | x <- xs, y <- ys, x > 1 and y > 2 and x == y]"))
        assert len(quals) == 2
        assert len(quals[0].fused) == 1   # x > 1
        assert len(quals[1].fused) == 2   # y > 2, x == y

    def test_cross_generator_inequality_stays_after(self):
        quals = _schedule_guards(self.parse(
            "[x | x <- xs, y <- ys, x < y]"))
        assert not quals[0].fused and not quals[1].fused
        assert isinstance(quals[2], P.PGuard)

    def test_mixed_side_equality_stays_after(self):
        # pattern (y) and outer (x) variables on the same side: no key
        quals = _schedule_guards(self.parse(
            "[x | x <- xs, (y, z) <- ys, x + y == z]"))
        assert not quals[0].fused and not quals[1].fused
        assert isinstance(quals[2], P.PGuard)

    def test_key_equality_never_crosses_group_by(self):
        quals = _schedule_guards(self.parse(
            "[the(x) | x <- xs, y <- ys, then group by x, x == y]"))
        assert not quals[0].fused and not quals[1].fused
        assert isinstance(quals[2], P.PGroup)
        assert isinstance(quals[3], P.PGuard)

    def test_key_equality_fuses_into_later_generator(self):
        # the x side is bound two generators earlier: the conjunct fuses
        # into z's generator, where its last variable is bound
        quals = _schedule_guards(self.parse(
            "[x | x <- xs, y <- ys, z <- zs, z == x]"))
        assert len(quals) == 3
        assert not quals[0].fused and not quals[1].fused
        assert len(quals[2].fused) == 1

    def test_guard_never_crosses_group_by(self):
        quals = _schedule_guards(self.parse(
            "[the(x) | x <- xs, then group by x, length(x) > 1]"))
        # the guard references x *after* grouping; it must stay there
        assert isinstance(quals[-1], P.PGuard)
        assert not quals[0].fused

    def test_free_variable_guard_fuses_into_generator(self):
        quals = _schedule_guards(self.parse("[v | (k, v) <- t, k == x]"))
        (gen,) = quals
        assert len(gen.fused) == 1


class TestDecorrelationSemantics:
    def test_correlated_filter_matches_oracle(self, db):
        t = db.table("t")
        q = fmap(lambda x: ffilter(lambda r: r[0] == x % 4, t),
                 db.table("nums"))
        oracle = Interpreter(db.catalog).run(q.exp)
        assert db.run(q) == oracle
        naive = Connection(catalog=db.catalog, decorrelate=False)
        assert naive.run(q) == oracle

    def test_constant_key_filter(self, db):
        t = db.table("t")
        q = ffilter(lambda r: r[0] == 1, t)
        assert db.run(q) == [(1, "a"), (1, "c")]

    def test_rest_conjuncts_applied(self, db):
        t = db.table("t")
        q = fmap(lambda x: ffilter(lambda r: (r[0] == 1) & (r[1] != "a"), t),
                 db.table("nums"))
        oracle = Interpreter(db.catalog).run(q.exp)
        assert db.run(q) == oracle

    def test_swapped_equality_sides(self, db):
        t = db.table("t")
        q = fmap(lambda x: ffilter(lambda r: x % 4 == r[0], t),
                 db.table("nums"))
        oracle = Interpreter(db.catalog).run(q.exp)
        assert db.run(q) == oracle

    def test_non_invariant_source_not_decorrelated(self, db):
        # inner source depends on the outer variable: rule must not apply,
        # and results must still be correct
        nums = db.table("nums")
        q = fmap(lambda x: ffilter(lambda y: y == x,
                                   nums.map(lambda z: z + x)), nums)
        oracle = Interpreter(db.catalog).run(q.exp)
        assert db.run(q) == oracle

    def test_running_example_agrees_across_modes(self):
        from repro.bench.table1 import running_example_query
        from repro.bench.workloads import paper_dataset
        results = []
        for mode in (True, False):
            db = Connection(catalog=paper_dataset(), decorrelate=mode)
            results.append(db.run(running_example_query(db)))
        assert results[0] == results[1]


class TestDecorrelationScaling:
    def test_linear_not_quadratic(self):
        """Row counts through the decorrelated plan grow linearly with the
        category count (the naive plan is quadratic)."""
        import time
        from repro.bench.table1 import run_dsh
        from repro.bench.workloads import avalanche_dataset

        def cost(n):
            catalog = avalanche_dataset(n)
            start = time.perf_counter()
            run_dsh(catalog, "engine")
            return time.perf_counter() - start

        small, large = cost(60), cost(240)
        # 4x data; quadratic would be ~16x -- allow generous noise
        assert large < small * 11


def _peak_rows(report) -> int:
    return max(op.rows_out for q in report.analyze.queries for op in q.ops)


def _running_example_in_python(catalog):
    """The running example's value computed directly from the catalog:
    per category (ascending), the distinct meanings of its facilities'
    features in ``meanings`` order."""
    groups: dict = {}
    for cat, fac in catalog.rows("facilities"):
        groups.setdefault(cat, []).append(fac)
    features: dict = {}
    for fac, feature in catalog.rows("features"):
        features.setdefault(fac, set()).add(feature)
    out = []
    for cat in sorted(groups):
        seen: dict = {}
        for fac in groups[cat]:
            for feature, meaning in catalog.rows("meanings"):
                if feature in features.get(fac, ()):
                    seen.setdefault(meaning)
        out.append((cat, list(seen)))
    return out


class TestKeyEqualityFusion:
    """``feat == feat2`` in the running example's ``descrFacility`` is a
    cross-generator key equality: fused into the ``features`` generator,
    it becomes an ``EqJoin`` key instead of a filter over the loop x
    meanings x features product.  Row counters, not times: exact."""

    def test_running_example_rows_at_scale(self):
        from repro.bench.table1 import running_example_query
        from repro.bench.workloads import avalanche_dataset
        small = avalanche_dataset(20)
        db = Connection(catalog=small)
        oracle = Interpreter(small).run(running_example_query(db).exp)
        assert oracle == _running_example_in_python(small)
        # The interpreter evaluates the guard for every facility x meaning
        # x feature (5.1M times at 200 categories); the direct computation,
        # checked against it above, stands in for it at scale.
        catalog = avalanche_dataset(200)
        db = Connection(catalog=catalog)
        q = running_example_query(db)
        report = db.explain(q, analyze=True)
        # |loop| x |meanings| = 200 x 64, the cross the generator order needs
        assert _peak_rows(report) <= 12_800
        assert not [d for d in report.drift if d.code == "D500"]
        assert db.run(q) == _running_example_in_python(catalog)

    def test_pyq_and_qc_spellings_compile_alike(self):
        from repro import pyq, qc
        from repro.algebra import node_count
        from repro.bench.table1 import running_example_query
        from repro.bench.workloads import avalanche_dataset
        db = Connection(catalog=avalanche_dataset(100))

        def pyq_example(db):
            meanings, features = db.table("meanings"), db.table("features")

            def descr(f):
                return pyq("[mean for (feat, mean) in meanings"
                           " for (fac, feat2) in features"
                           " if feat == feat2 and fac == f]",
                           meanings=meanings, features=features, f=f)

            return qc("[(the(cat), nub(concatMap(descr, fac))) | (cat, fac)"
                      " <- facilities, then group by cat]",
                      facilities=db.table("facilities"), descr=descr)

        shapes = []
        for build in (running_example_query, pyq_example):
            q = build(db)
            q2 = db.compile(q).bundle.queries[1]
            shapes.append((node_count(q2.plan),
                           _peak_rows(db.explain(q, analyze=True))))
        assert shapes[0] == shapes[1]
        assert shapes[0][1] <= 100 * 64
