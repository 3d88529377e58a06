"""Run one workload of the cavity-loader benchmark and print its metrics.

    python3 perfbench/run.py --workload design_points --seed 1 --seconds 20 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory and from nowhere else.  The run repeats the workload's round
of operations until another round would overrun ``--seconds`` (at least
one round), checks every result against the independent references,
and prints a line of run information and then, as the last line, one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` the run first times one untraced round, then wraps the
package's modules and reports per-layer metrics per traced round, plus
the tracing overhead.  Scratch files and traces go to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_SAMPLES = 5
# reported as seen; the benchmark sets none of them
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "CAVITY_LOADER_THREADS",
)
WORKLOAD_NAMES = ("design_points", "biphoton_surface", "oracle_checks")


def load_package() -> SimpleNamespace:
    """Import cavity_loader from this checkout's src/, or exit non-zero."""
    package_dir = SRC / "cavity_loader"
    if not (package_dir / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {package_dir}")
    sys.path[:0] = [str(SRC), str(ROOT)]
    import cavity_loader
    from cavity_loader import (
        cli, entangled_loading, lambda_memory, numerics, optimize, pulses, two_level,
    )

    if Path(cavity_loader.__file__).resolve().parent != package_dir.resolve():
        sys.exit(f"perfbench: cavity_loader was imported from {cavity_loader.__file__}")
    return SimpleNamespace(
        cli=cli,
        entangled_loading=entangled_loading,
        lambda_memory=lambda_memory,
        numerics=numerics,
        optimize=optimize,
        pulses=pulses,
        two_level=two_level,
    )


def cpu_seconds() -> float:
    """User + system CPU of this process and of its children that have ended."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child that has ended."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def setup_seconds() -> float:
    """Median time from a fresh interpreter to an imported cavity_loader.cli."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import cavity_loader.cli"], env=env, check=True)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


class Run:
    """Rounds of one workload's steps, with their results and timings."""

    def __init__(self, steps):
        self.steps = steps
        self.results = [[] for step in steps for _ in step.ops]  # per op, per round
        self.errors = []
        self.latencies = []  # per step
        self.walls = []
        self.cpus = []

    def round(self) -> float:
        cpu0, wall0 = cpu_seconds(), time.perf_counter()
        slot = 0
        for step in self.steps:
            n = len(step.ops)
            start = time.perf_counter()
            try:
                out = step.run()
                if len(out) != n:
                    raise RuntimeError(f"{len(out)} results for {n} operations")
            except Exception as exc:  # a failed operation is counted, not fatal
                out = [None] * n
                self.errors.append(f"{step.ops[0].label}: {type(exc).__name__}: {exc}")
            self.latencies.append(time.perf_counter() - start)
            for value in out:
                self.results[slot].append(value)
                slot += 1
        wall = time.perf_counter() - wall0
        self.walls.append(wall)
        self.cpus.append(cpu_seconds() - cpu0)
        return wall

    def repeat(self, seconds: float, started: float) -> None:
        """Rounds until another one would end after ``seconds``; at least one."""
        while True:
            wall = self.round()
            if time.perf_counter() - started + wall > seconds:
                return

    def p50(self, per_request: bool) -> float:
        """Median latency of one operation.

        With ``per_request`` each operation is its own step, timed alone, as
        a user waits for one request after another.  Otherwise the operations
        either run together (a sweep's cells) or differ in cost by 1000x
        (oracle values), so the median over single operations would jump
        between kinds; the latency is then the round's wall time per
        operation, and its median is taken over rounds.
        """
        if per_request:
            return statistics.median(self.latencies)
        return statistics.median(wall / len(self.results) for wall in self.walls)

    def check(self) -> tuple[int, int, list]:
        """(attempted, failed, problems); a failed check fails every round's copy."""
        attempted = failed = 0
        problems = []
        ops = [op for step in self.steps for op in step.ops]
        for op, values in zip(ops, self.results):
            attempted += len(values)
            done = [v for v in values if v is not None]
            failed += len(values) - len(done)
            if not done:
                continue
            if any(repr(v) != repr(done[0]) for v in done):
                problems.append(f"{op.label}: result differs between rounds")
            try:
                found = op.check(done[0])
            except Exception as exc:  # a malformed result can break its check
                found = [f"{op.label}: check raised {type(exc).__name__}: {exc}"]
            if found:
                problems.extend(found)
                failed += len(done)
        return attempted, failed, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pkg = load_package()
    import numpy as np
    import scipy

    from perfbench import workloads
    from perfbench.tracing import Tracer

    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=OUT, prefix="run-"))
    try:
        rng = np.random.default_rng([args.seed % 2**63, WORKLOAD_NAMES.index(args.workload)])
        steps = workloads.WORKLOADS[args.workload](rng, pkg, scratch, bool(args.trace))
        run = Run(steps)
        started = time.perf_counter()
        tracer = None
        if args.trace:
            untraced_wall = run.round()
            tracer = Tracer()
            tracer.install(pkg)
            try:
                run.repeat(args.seconds, started)
            finally:
                tracer.uninstall()
        else:
            run.repeat(args.seconds, started)
        rss = peak_rss_mb()
        attempted, failed, problems = run.check()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": len(run.walls),
        "round_walls_s": run.walls,
        "operations_per_round": len(run.results),
        "workers": pkg.optimize.resolve_workers(),
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "inputs": [step.meta for step in steps if step.meta],
    }
    if tracer is not None:
        traced_walls = run.walls[1:]
        metrics = tracer.layer_metrics(len(traced_walls))
        traced_wall = statistics.median(traced_walls)
        metrics["trace.wall_s"] = (traced_wall, "s")
        metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
        info["trace_note"] = (
            "per traced round; the first round is untraced and sets the overhead baseline"
            + ("; sweeps use one worker" if args.workload == "biphoton_surface" else "")
        )
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps({
            **info,
            "span_fields": ["id", "name", "start", "end", "parent"],
            "spans": tracer.spans,
            "self_time_s": tracer.self_time,
            "calls": tracer.calls,
        }))
        info["trace_file"] = str(trace_path.relative_to(ROOT))
    else:
        metrics = {
            "setup_s": (setup_seconds(), "s"),
            "wall_s": (statistics.median(run.walls), "s"),
            "cpu_s": (statistics.median(run.cpus), "s"),
            "peak_rss_mb": (rss, "MB"),
            "optimum_p50_s": (run.p50(args.workload == "design_points"), "s"),
        }
    for line in run.errors + problems:
        print(f"perfbench: {line}", file=sys.stderr)
    print(json.dumps(info))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
