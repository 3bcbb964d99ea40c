"""The benchmark's workloads and its untraced closed-loop client.

Every workload is driven by one client in one process with no threads:
it sends its next op only when the previous one has returned.  An op is
one call of the public ``Connection.run`` with default settings (no
``parallel_bundles``, no ``shards``), which is how users call FERRY.
Each result is compared with the program's reference outside the timed
region.
"""

from __future__ import annotations

import math
import random
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from programs import NESTED_ORDERS, RUNNING_EXAMPLE, Program, dotp, same
from speed import SpeedProbe

from repro import Catalog, Connection
from repro.bench import avalanche_dataset, orders_dataset, paper_dataset, sparse_vector

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: The tail percentile is the highest with at least this many samples
#: beyond it.  A run makes at least ``MIN_OPS`` ops of each program, so
#: the tail is never below the median.
TAIL_SAMPLES = 10
MIN_OPS = 2 * TAIL_SAMPLES + 1
#: Seconds of ops between two host-speed probes.
PROBE_EVERY = 0.5

Case = Callable[[int], "tuple[Program, Catalog]"]


@dataclass(frozen=True)
class Workload:
    name: str
    backend: str
    #: Warm: one program, compiled in set-up, run again and again on one
    #: connection (plan-cache hits).  Cold: every op builds its program
    #: and runs it once on a fresh connection (plan-cache misses).
    warm: bool
    #: Seed -> (program, catalog) for each program the workload runs.
    cases: tuple[Case, ...]
    #: Sizes and programs, recorded with every result.
    params: dict[str, Any]


def _table1(n: int) -> Case:
    return lambda seed: (RUNNING_EXAMPLE, avalanche_dataset(n, seed=seed))


def _orders(n: int) -> Case:
    return lambda seed: (NESTED_ORDERS, orders_dataset(n, seed=seed))


def _paper(seed: int) -> "tuple[Program, Catalog]":
    return RUNNING_EXAMPLE, paper_dataset()


def _dotp(n: int, density: float) -> Case:
    return lambda seed: (dotp(*sparse_vector(n, density, seed=seed)),
                         Catalog())


DOTP_SIZE, DOTP_DENSITY = 256, 0.2

WORKLOADS = {w.name: w for w in (
    Workload("table1-engine", "engine", True, (_table1(1000),),
             {"program": "running example", "data": "avalanche_dataset(1000)"}),
    Workload("table1-mil", "mil", True, (_table1(300),),
             {"program": "running example", "data": "avalanche_dataset(300)"}),
    Workload("orders-sqlite", "sqlite", True, (_orders(500),),
             {"program": "nested orders report",
              "data": "orders_dataset(500)"}),
    Workload("compile-cold", "engine", False,
             (_paper, _orders(40), _dotp(DOTP_SIZE, DOTP_DENSITY)),
             {"programs": ["running example on paper_dataset()",
                           "nested orders report on orders_dataset(40)",
                           f"dotp on sparse_vector({DOTP_SIZE}, "
                           f"{DOTP_DENSITY})"],
              "rotation": "seeded shuffle of the three, cycle by cycle"}),
)}

#: Client and connection settings shared by every workload.
CLIENT = {"loop": "closed", "clients": 1, "threads": 0,
          "connection": "Connection(backend=...) defaults: "
                        "parallel_bundles=False, shards=None"}


@dataclass
class Subject:
    """One program over its generated catalog, with its reference."""

    program: Program
    catalog: Catalog
    expected: Any
    #: Warm workloads: the connection and program built in set-up.
    conn: "Connection | None" = None
    q: Any = None


@dataclass
class Tally:
    """Ops attempted and failed; a failed op raised or returned a value
    other than the reference."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def check(self, value: Any, expected: Any) -> bool:
        self.attempted += 1
        if same(value, expected):
            return True
        self.failed += 1
        self.errors.append("result differs from the reference")
        return False

    def crashed(self, err: Exception) -> None:
        self.attempted += 1
        self.failed += 1
        self.errors.append(repr(err))


def generate(workload: Workload, seed: int) -> tuple[list[Subject], float]:
    """Generate each case's catalog; returns the subjects and the seconds
    spent generating (the references are computed outside that time)."""
    subjects, spent = [], 0.0
    for case in workload.cases:
        t0 = time.perf_counter()
        program, catalog = case(seed)
        spent += time.perf_counter() - t0
        subjects.append(Subject(program, catalog, program.reference(catalog)))
    return subjects, spent


def rotation(n: int, seed: int) -> Iterator[int]:
    """Case indices in a seeded order: each cycle is a fresh shuffle."""
    rng = random.Random(seed)
    while True:
        cycle = list(range(n))
        rng.shuffle(cycle)
        yield from cycle


def run_op(workload: Workload, subject: Subject) -> tuple[Any, int]:
    """One op through ``Connection.run``; returns (value, queries)."""
    if workload.warm:
        conn, q = subject.conn, subject.q
    else:
        conn = Connection(backend=workload.backend, catalog=subject.catalog)
        q = subject.program.build(conn)
    before = conn.queries_issued
    value = conn.run(q)
    return value, conn.queries_issued - before


def set_up(workload: Workload, seed: int,
           tally: Tally) -> tuple[list[Subject], float]:
    """Catalog generation, connection, first compile and a warm-up run of
    each program; returns the subjects and the seconds that took."""
    subjects, spent = generate(workload, seed)
    for subject in subjects:
        t0 = time.perf_counter()
        if workload.warm:
            subject.conn = Connection(backend=workload.backend,
                                      catalog=subject.catalog)
            subject.q = subject.program.build(subject.conn)
        value, _ = run_op(workload, subject)
        spent += time.perf_counter() - t0
        tally.check(value, subject.expected)
    return subjects, spent


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with ``TAIL_SAMPLES`` samples beyond it:
    (value, percentile)."""
    ordered = sorted(samples)
    rank = len(ordered) - TAIL_SAMPLES - 1
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(workload: Workload, seed: int, seconds: float) -> dict:
    """The end-to-end run: set up ``SETUP_REPEATS`` times, then time ops
    for ``seconds`` (and at least ``MIN_OPS`` ops of each program).  Between ops, outside
    the timed region, the host-speed probe runs after every
    ``PROBE_EVERY`` seconds of ops; times are reported at reference speed
    (``speed.py``), raw ones among the notes."""
    tally = Tally()
    probe = SpeedProbe()
    setups = []
    for _ in range(SETUP_REPEATS):
        subjects, spent = set_up(workload, seed, tally)
        setups.append(spent)
        probe.sample()
    order = rotation(len(subjects), seed)
    #: Per program: its ops' latencies (seconds).
    latencies: dict[str, list[float]] = {s.program.name: [] for s in subjects}
    queries: list[int] = []
    counters: dict[str, set] = {}
    since_probe = 0.0
    deadline = time.perf_counter() + seconds
    while (time.perf_counter() < deadline
           or min(map(len, latencies.values())) < MIN_OPS):
        subject = subjects[next(order)]
        mine = latencies[subject.program.name]
        t0 = time.perf_counter()
        try:
            value, issued = run_op(workload, subject)
        except Exception as err:  # counted against error_rate, not fatal
            mine.append(time.perf_counter() - t0)
            tally.crashed(err)
            continue
        mine.append(time.perf_counter() - t0)
        tally.check(value, subject.expected)
        queries.append(issued)
        counters.setdefault(f"{subject.program.name}.queries",
                            set()).add(issued)
        since_probe += mine[-1]
        if since_probe >= PROBE_EVERY:
            probe.sample()
            since_probe = 0.0
    # A workload of several programs reports the geometric mean of the
    # programs' percentiles: the median of the mixed latencies would sit
    # in the gap between a fast and a slow program, where it jumps.
    scale = probe.scale()
    p50 = _geomean([statistics.median(v) for v in latencies.values()])
    tails = {name: tail(v) for name, v in latencies.items()}
    tail_value = _geomean([value for value, _pct in tails.values()])
    setup = statistics.median(setups)
    n = sum(map(len, latencies.values()))
    total = sum(map(sum, latencies.values()))
    metrics = {
        "latency_p50_ms": (p50 * scale * 1e3, "ms", n),
        "latency_tail_ms": (tail_value * scale * 1e3, "ms", n),
        "throughput_ops_s": (n / (total * scale), "1/s", n),
        "setup_s": (setup * scale, "s", len(setups)),
        "peak_rss_mb": (peak_rss_mb(), "MB", 1),
        "queries_per_op": (sum(queries) / max(len(queries), 1), "count",
                           len(queries)),
    }
    return {"metrics": metrics, "tally": tally, "counters": counters,
            "notes": {"latency_tail_percentile":
                          {name: pct for name, (_v, pct) in tails.items()},
                      "error_rate": tally.failed / tally.attempted,
                      "speed_scale": scale,
                      "speed_probes": len(probe.samples),
                      "raw_latency_p50_ms": p50 * 1e3,
                      "raw_latency_tail_ms": tail_value * 1e3,
                      "raw_setup_s": setup}}


def _geomean(values: list[float]) -> float:
    return math.prod(values) ** (1 / len(values))
