"""Both sides of invariant-prefix reordering, in exact row counts.

Reordering binds the generator of a comprehension's loop-invariant prefix
that a guard keys to the loop first, joins the others to it on their keys
and sorts the result back into the comprehension's order (DESIGN.md,
join-graph isolation): no step crosses the loop with a source.  It loses
where the loop key selects little of a large source that the rest of the
prefix then filters hard -- the original order scanned only
``loop x first source`` there.

Each workload runs the reordered comprehension (``qc``) against the plan
in the written order, spelled with combinators so that guard fusion and
decorrelation still apply, and records the engine's peak intermediate
rows and rows processed (summed over operators) of each: exact counters,
not times.
"""

import random

from repro import Connection, concat_map, ffilter, fmap, qc, take
from repro.bench.workloads import avalanche_dataset
from repro.obs import AnalyzeCollector
from repro.runtime.catalog import Catalog


def row_counts(db, q) -> tuple[int, int]:
    """(peak intermediate rows, rows processed) of one engine run."""
    collector = AnalyzeCollector(per_op=True)
    db.backend.execute_bundle(db.compile(q).bundle, db.catalog,
                              collector=collector)
    rows = [op.rows_out for qp in collector.queries for op in qp.ops]
    return max(rows), sum(rows)


def descr(db, reordered: bool):
    meanings, features = db.table("meanings"), db.table("features")
    if reordered:
        return lambda f: qc("[mean | (feat, mean) <- meanings,"
                            " (fac, feat2) <- features,"
                            " feat == feat2 and fac == f]",
                            meanings=meanings, features=features, f=f)
    return lambda f: concat_map(
        lambda m: fmap(lambda ft: m[1],
                       ffilter(lambda ft: (m[0] == ft[1]) & (ft[0] == f),
                               features)),
        meanings)


def full_loop(db, reordered: bool):
    """The running example's loop: every facility."""
    return fmap(lambda r: descr(db, reordered)(r[0]),
                db.table("facilities"))


def selective_loop(db, reordered: bool):
    """Three facilities out of the whole table."""
    return fmap(lambda r: descr(db, reordered)(r[0]),
                take(3, db.table("facilities")))


def keyed_pairs(db, reordered: bool):
    """``[a | (a, b) <- xs, (c, d) <- ys, b == c, d == o]`` per ``o``."""
    xs, ys = db.table("xs"), db.table("ys")
    if reordered:
        body = lambda o: qc("[a | (a, b) <- xs, (c, d) <- ys,"  # noqa: E731
                            " b == c, d == o]", xs=xs, ys=ys, o=o)
    else:
        body = lambda o: concat_map(  # noqa: E731
            lambda x: fmap(lambda y: x[0],
                           ffilter(lambda y: (x[1] == y[0]) & (y[1] == o),
                                   ys)),
            xs)
    return fmap(body, db.table("outer"))


def pairs_catalog(xs: list, ys: list, outer: list) -> Catalog:
    catalog = Catalog()
    catalog.create_table("xs", [("a", int), ("b", int)], xs)
    catalog.create_table("ys", [("c", int), ("d", int)], ys)
    catalog.create_table("outer", [("o", int)], [(o,) for o in outer])
    return catalog


def many_to_many() -> Catalog:
    """``b``/``c`` take 10 values over 200 rows each; unique ``d``,
    a 5-row loop."""
    rng = random.Random(5)
    return pairs_catalog([(i, rng.randrange(10)) for i in range(200)],
                         [(rng.randrange(10), i) for i in range(200)],
                         [rng.randrange(200) for _ in range(5)])


def unselective_loop_key() -> Catalog:
    """5 ``xs`` rows; 400 ``ys`` rows whose ``d`` takes 2 values and whose
    ``c`` meets an ``xs`` row once in 80."""
    return pairs_catalog([(i, i) for i in range(5)],
                         [(i % 400, i % 2) for i in range(400)],
                         [0, 1])


class TestReorderingSides:
    def test_row_counts_on_each_side(self, bench_record):
        avalanche = avalanche_dataset(200)
        counts = {}
        for name, catalog, build in (
                ("full_loop", avalanche, full_loop),
                ("selective_loop", avalanche, selective_loop),
                ("many_to_many", many_to_many(), keyed_pairs),
                ("unselective_loop_key", unselective_loop_key(),
                 keyed_pairs)):
            db = Connection(catalog=catalog)
            reordered, written = build(db, True), build(db, False)
            assert db.run(reordered) == db.run(written)
            counts[name] = {"reordered": row_counts(db, reordered),
                            "written": row_counts(db, written)}
        bench_record("invariant_prefix_reordering",
                     **{f"{name}_{side}_{metric}": rows[i]
                        for name, sides in counts.items()
                        for side, rows in sides.items()
                        for i, metric in enumerate(("peak", "processed"))})
        # the running example: loop x meanings is gone
        full = counts["full_loop"]
        features = len(avalanche.rows("features"))
        assert full["reordered"][0] <= features < full["written"][0]
        for name in ("full_loop", "selective_loop", "many_to_many"):
            sides = counts[name]
            assert sides["reordered"][1] < sides["written"][1], name
        # the losing side, recorded rather than hidden
        sides = counts["unselective_loop_key"]
        assert sides["reordered"][1] > sides["written"][1]
