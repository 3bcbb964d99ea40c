"""The benchmark's references agree with the in-heap ``Interpreter``
(FERRY's semantic oracle) at paper-sized inputs, and with every backend
on a small instance.

Run from the repository root: ``PYTHONPATH=src python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from programs import (NESTED_ORDERS, RUNNING_EXAMPLE, Program, dotp, same)
from spans import SpanRecorder

from repro import Catalog, Connection, to_q
from repro.bench import avalanche_dataset, orders_dataset, paper_dataset, sparse_vector
from repro.dph import FIG6_SV, FIG6_V
from repro.semantics import Interpreter

CASES = [
    (RUNNING_EXAMPLE, paper_dataset),
    (RUNNING_EXAMPLE, lambda: avalanche_dataset(12, seed=5)),
    (NESTED_ORDERS, lambda: orders_dataset(40)),
    (NESTED_ORDERS, lambda: orders_dataset(25, seed=3)),
    (dotp(FIG6_SV, FIG6_V), Catalog),
    (dotp(*sparse_vector(64, density=0.2, seed=4)), Catalog),
]


@pytest.mark.parametrize("program,catalog", CASES)
def test_reference_matches_interpreter(program: Program, catalog) -> None:
    catalog = catalog()
    q = to_q(program.build(Connection(catalog=catalog)))
    oracle = Interpreter(catalog).run(q.exp)
    assert same(program.reference(catalog), oracle)


@pytest.mark.parametrize("backend", ["engine", "mil", "sqlite"])
@pytest.mark.parametrize("program,catalog", CASES[::2])
def test_backends_match_reference(program: Program, catalog,
                                  backend: str) -> None:
    catalog = catalog()
    conn = Connection(backend=backend, catalog=catalog)
    assert same(conn.run(program.build(conn)), program.reference(catalog))
    assert conn.queries_issued == program.queries


def test_same_is_strict_about_shape() -> None:
    assert same([("a", [1.0])], [("a", [1.0 + 1e-12])])
    assert not same([("a", [1.0])], [("a", [1.1])])
    assert not same([("a", [1.0])], [["a", [1.0]]])
    assert not same([("a", [])], [("a", [1.0])])


def test_self_time_subtracts_covered_children() -> None:
    rec = SpanRecorder()
    clock = iter([0.0, 1.0, 2.0, 4.0, 5.0, 10.0])
    rec._clock = lambda: next(clock)
    with rec.span("op", op=0):
        with rec.span("a", op=0):
            pass
        with rec.span("b", op=0):
            pass
    self_times = rec.self_times()
    op, a, b = sorted(rec.spans, key=lambda s: s.start)
    assert self_times[op.id] == pytest.approx(10.0 - (2.0 - 1.0) - (5.0 - 4.0))
    assert self_times[a.id] == pytest.approx(1.0)


def test_benchmark_json_matches_what_the_runs_report() -> None:
    from traced import per_layer_metrics
    from workloads import WORKLOADS

    spec = json.loads((Path(__file__).resolve().parent.parent
                       / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        per_layer_metrics()
    assert {m["name"] for m in spec["end_to_end"]} == {
        "latency_p50_ms", "latency_tail_ms", "throughput_ops_s", "setup_s",
        "peak_rss_mb", "queries_per_op"}
