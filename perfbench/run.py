#!/usr/bin/env python3
"""FERRY's benchmark: one workload per process, one closed-loop client.

Run from the repository root:

    python3 perfbench/run.py --workload table1-engine --seed 1 --seconds 25 --trace 0

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json`` from
ops that call ``Connection.run``, with times scaled to a reference host
speed measured alongside the ops (``speed.py``; the raw times are printed
among the notes); ``--trace 1`` reports the per-layer
metrics from a separate run that times each layer from outside (see
``traced.py``).  ``--workload all`` runs every workload, each in a fresh
process, and prints every metric with its unit and sample count.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full result -- sample
counts, the tail percentile, the environment stamp and the exact
counters -- goes to ``.bench_out/``, with the traced run's spans.  An
exact counter that differs from an earlier run of the same code, workload
and seed is flagged on standard error and makes the run incorrect.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sqlite3
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"


def source_digest() -> str:
    """Content hash of the program under test (the checkout may not be a
    git repository, so this identifies the code)."""
    h = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else ref[5:]
    return ref


def environment(seed: int, load_start: tuple) -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "sqlite": sqlite3.sqlite_version, "loadavg_start": load_start,
            "loadavg_end": os.getloadavg(), "seed": seed,
            "commit": commit(), "source_sha256": source_digest()}


def check_counters(name: str, digest: str, counters: dict[str, set]) -> list:
    """Exact counters must hold one value within the run and match an
    earlier run of the same code, workload, seed and mode."""
    drift = [f"{key} took {sorted(values)} within one run"
             for key, values in counters.items() if len(values) != 1]
    exact = {key: sorted(values)[0] for key, values in counters.items()}
    path = OUT / "counters" / f"{name}-{digest[:16]}.json"
    if path.is_file():
        before = json.loads(path.read_text())
        drift += [f"{key}: {before.get(key)} before, {exact.get(key)} now"
                  for key in sorted(set(before) | set(exact))
                  if before.get(key) != exact.get(key)]
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(exact, indent=1, sort_keys=True))
    return drift


def run_one(args: argparse.Namespace) -> int:
    from spans import SpanRecorder
    from traced import run_traced
    from workloads import CLIENT, WORKLOADS, run_untraced

    load_start = os.getloadavg()
    workload = WORKLOADS[args.workload]
    rec = SpanRecorder()
    if args.trace:
        out = run_traced(workload, args.seed, args.seconds, rec)
    else:
        out = run_untraced(workload, args.seed, args.seconds)
    tally = out["tally"]
    env = environment(args.seed, load_start)
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    drift = check_counters(tag, env["source_sha256"], out["counters"])
    for line in drift:
        print(f"counter drift: {line}", file=sys.stderr)
    for err in sorted(set(tally.errors)):
        print(f"failed op: {err}", file=sys.stderr)
    metrics = out["metrics"]
    print(f"{workload.name} ({workload.backend}, "
          f"{'traced' if args.trace else 'untraced'}, seed {args.seed})")
    for name, (value, unit, n) in metrics.items():
        print(f"  {name:34s} {value:14.4f} {unit:6s} n={n}")
    for name, value in out["notes"].items():
        print(f"  {name:34s} {value}")
    OUT.mkdir(exist_ok=True)
    (OUT / f"{tag}.json").write_text(json.dumps({
        "workload": workload.name, "backend": workload.backend,
        "params": workload.params, "client": CLIENT, "env": env,
        "attempted": tally.attempted, "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u, "samples": n}
                    for k, (v, u, n) in metrics.items()},
        "notes": out["notes"],
        "counters": {k: sorted(v) for k, v in out["counters"].items()},
        "counter_drift": drift}, indent=1))
    if args.trace:
        rec.write(OUT / f"{tag}.spans.jsonl")
    print(json.dumps({
        "correct": tally.failed == 0 and not drift,
        "attempted": tally.attempted, "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u, _n) in metrics.items()}}))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Every workload, each in a fresh process, one after another."""
    from workloads import WORKLOADS

    correct, rows = True, []
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, check=False, timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: exited with {proc.returncode}")
            correct = False
            continue
        tag = f"{name}-seed{args.seed}-trace{args.trace}"
        result = json.loads((OUT / f"{tag}.json").read_text())
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        correct = correct and last["correct"]
        rows.append((name, result))
    for name, result in rows:
        print(f"{name}: {result['attempted']} ops, {result['failed']} failed,"
              f" error_rate {result['failed'] / result['attempted']:.4f}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:34s} {m['value']:14.4f} {m['unit']:6s} "
                  f"n={m['samples']}")
        for note, value in result["notes"].items():
            print(f"  {note:34s} {value}")
    print("all results correct" if correct else "SOME RESULTS INCORRECT")
    return 0 if correct else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no FERRY sources at {SRC}; run from a checkout of the "
              f"repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(SRC)]
    if args.workload == "all":
        return run_all(args)
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of "
                     f"{', '.join(WORKLOADS)} or all")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
