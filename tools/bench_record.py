"""Measure a change against its parent commit with perfbench and write the record.

    python3 tools/bench_record.py design_points:1:10 biphoton_surface:1:3 \
        oracle_checks:1:3 --change "what changed" --claim "what should move"

Each positional argument is WORKLOAD:SEED:PAIRS.  The parent commit
(``--parent``, default HEAD) is exported with ``git archive`` into a
fresh directory; the change is the working tree.  For every workload the
benchmark command of ``BENCHMARK.json`` runs on both, in PAIRS pairs that
alternate which side goes first (even pairs the parent, odd pairs the
change), one run at a time.  The record, ``BENCH_<date>_<parent sha>.json``
at the repository root unless ``--out`` says otherwise, holds each
end-to-end metric's medians and quartiles, every run, the number of
pairs the change won (ties count for neither), attempted and failed
operations, the command lines, the run order, ``wc -l`` of ``src/`` on
both sides and the machine.  A run that exits non-zero or reports
``correct: false`` stops the tool.

The record also holds fresh-process wall times of the package's CLI
(``CLI_COMMANDS``: ``simulate`` for the two-level and the three-level
Lambda trajectory writers and every ``figure`` preset on one worker),
each command run ``CLI_PAIRS`` times per side in the same alternating
order, with the same medians, quartiles and won pairs, and whether every
run of both sides wrote the same files, by sha256, naming each file that
differs.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# the end-to-end CLI commands timed in fresh processes, and the runs per
# side of each (a figure preset takes 0.5-2 s; with fewer than ten pairs
# the spread of fresh-process times on two CPUs hides a 20 % change); each
# run adds its own --out or --outdir
CLI_PAIRS = 10
CLI_COMMANDS = {
    "simulate_two_level": ["simulate", "--scenario", "two_level", "--kT", "2", "--g_over_k", "1"],
    "simulate_lambda_nonadiabatic": [
        "simulate", "--scenario", "lambda_nonadiabatic", "--kT", "2",
        "--gc_over_k", "1", "--omega_over_k", "1", "--delta1_over_k", "20",
    ],
    **{
        f"figure_{preset}": ["figure", "--preset", preset, "--workers", "1"]
        for preset in ("fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10")
    },
}


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def export_commit(rev: str, dest: Path) -> str:
    """Write the files of commit ``rev`` into ``dest``; return its full sha."""
    sha = git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", sha))) as tar:
        tar.extractall(dest, filter="data")
    return sha


def src_line_counts(checkout: Path) -> dict:
    """``wc -l`` of every Python file under ``src/``, and the total."""
    counts = {
        str(path.relative_to(checkout)): len(path.read_bytes().splitlines())
        for path in sorted((checkout / "src").rglob("*.py"))
    }
    counts["total"] = sum(counts.values())
    return counts


def run_once(checkout: Path, command: list, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run; its last output line is the JSON result."""
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"bench_record: {' '.join(argv)} in {checkout} exited {proc.returncode}:\n"
                 f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"bench_record: {workload} seed {seed} in {checkout} is not correct:\n"
                 f"{proc.stderr[-2000:]}")
    return result


def compare(sides: dict, better: str) -> dict:
    """Both sides' median and quartiles, every value, and the pairs the
    change won.  ``sides`` maps "parent" and "change" to values in pair
    order; ``better`` is "lower" or "higher"."""
    sign = 1.0 if better == "lower" else -1.0
    entry = {}
    for side, values in sides.items():
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
        entry.update({f"{side}_median": median, f"{side}_q1": q1, f"{side}_q3": q3})
    for side, values in sides.items():
        entry[f"{side}_runs"] = values
    entry["change_better_pairs"] = sum(
        sign * (c - p) < 0 for p, c in zip(sides["parent"], sides["change"])
    )
    return entry


def summarize(runs: dict, end_to_end: list) -> dict:
    """Per end-to-end metric: ``compare`` of its values.  ``runs`` maps
    "parent" and "change" to lists of run results in pair order."""
    out = {}
    for spec in end_to_end:
        name = spec["name"]
        sides = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in runs}
        entry = {"unit": spec["unit"], "better": spec["better"], "bound": spec["bound"]}
        out[name] = {**entry, **compare(sides, spec["better"])}
    return out


def time_cli(checkout: Path, argv: list, scratch: Path) -> float:
    """Wall seconds of one fresh ``python -m cavity_loader.cli`` process
    importing the package from ``checkout``'s src/, writing into ``scratch``."""
    if argv[0] == "figure":
        target = ["--outdir", str(scratch)]
    else:
        target = ["--out", str(scratch / "trajectory.csv")]
    command = [sys.executable, "-m", "cavity_loader.cli", *argv, *target]
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    start = time.perf_counter()
    proc = subprocess.run(command, cwd=scratch, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        sys.exit(f"bench_record: {' '.join(argv)} in {checkout} exited {proc.returncode}:\n"
                 f"{proc.stderr[-2000:]}")
    return wall


def output_digests(directory: Path) -> dict:
    """sha256 of every file under ``directory``, by path relative to it."""
    return {
        str(path.relative_to(directory)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.rglob("*"))
        if path.is_file()
    }


def compare_outputs(digests: dict) -> dict:
    """Whether every run of both sides wrote the same files, byte for byte.
    ``digests`` maps "parent" and "change" to the ``output_digests`` of each
    run; a file differs when some run's digest of it is not the parent's
    first run's, or when a run lacks it or adds it."""
    reference = digests["parent"][0]
    differ = {
        name
        for run in digests["parent"] + digests["change"]
        for name in reference.keys() | run.keys()
        if run.get(name) != reference.get(name)
    }
    return {"identical": not differ, "files": len(reference), "differ": sorted(differ)}


def cli_timings(checkouts: dict, pairs: int, run_order: list) -> dict:
    """``compare`` of the fresh-process wall times of every ``CLI_COMMANDS``
    entry, ``pairs`` runs per side, alternating as the workloads do, and
    ``compare_outputs`` of the files the runs wrote."""
    out = {}
    for name, argv in CLI_COMMANDS.items():
        sides = {"parent": [], "change": []}
        digests = {"parent": [], "change": []}
        for pair in range(pairs):
            for side in ("parent", "change") if pair % 2 == 0 else ("change", "parent"):
                print(f"bench_record: {name} pair {pair} {side}", file=sys.stderr, flush=True)
                with tempfile.TemporaryDirectory(prefix="bench-cli-") as scratch:
                    sides[side].append(time_cli(checkouts[side], argv, Path(scratch)))
                    digests[side].append(output_digests(Path(scratch)))
                run_order.append([name, None, pair, side])
        out[name] = {
            "argv": argv, "unit": "s", "better": "lower", **compare(sides, "lower"),
            "outputs": compare_outputs(digests),
        }
    return out


def parse_spec(text: str) -> tuple:
    try:
        workload, seed, pairs = text.split(":")
        return workload, int(seed), int(pairs)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected WORKLOAD:SEED:PAIRS, got {text!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("specs", nargs="+", type=parse_spec, metavar="WORKLOAD:SEED:PAIRS")
    parser.add_argument("--parent", default="HEAD", help="commit to compare against")
    parser.add_argument("--change", default="", help="one line on what the change does")
    parser.add_argument("--claim", default="", help="the gain claimed, if any")
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument("--workdir", type=Path, default=None,
                        help="where to export the parent (default: a temporary directory)")
    args = parser.parse_args(argv)
    for workload, _, pairs in args.specs:
        if pairs < 2:
            parser.error(f"{workload}: at least two pairs are needed for quartiles")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    command, seconds = bench["command"], bench["run_seconds"]
    with tempfile.TemporaryDirectory(dir=args.workdir, prefix="bench-parent-") as tmp:
        parent_dir = Path(tmp)
        sha = export_commit(args.parent, parent_dir)
        checkouts = {"parent": parent_dir, "change": ROOT}
        record_workloads, commands, run_order = {}, [], []
        for workload, seed, pairs in args.specs:
            runs = {"parent": [], "change": []}
            for pair in range(pairs):
                for side in ("parent", "change") if pair % 2 == 0 else ("change", "parent"):
                    print(f"bench_record: {workload} seed {seed} pair {pair} {side}",
                          file=sys.stderr, flush=True)
                    runs[side].append(run_once(checkouts[side], command, workload, seed, seconds))
                    run_order.append([workload, seed, pair, side])
            for side in runs:
                commands.append(
                    f"cd <{side} checkout> && {' '.join(command)} --workload {workload} "
                    f"--seed {seed} --seconds {seconds} --trace 0"
                )
            record_workloads[f"{workload}_seed{seed}"] = {
                "workload": workload,
                "seed": seed,
                "pairs": pairs,
                "attempted_failed": {
                    side: [[r["attempted"], r["failed"]] for r in runs[side]] for side in runs
                },
                "correct": {side: all(r["correct"] for r in runs[side]) for side in runs},
                "metrics": summarize(runs, bench["end_to_end"]),
            }
        cli = cli_timings(checkouts, CLI_PAIRS, run_order)
        commands.append("cd <scratch> && PYTHONPATH=<side checkout>/src python -m "
                        "cavity_loader.cli <argv> --out <scratch>/trajectory.csv "
                        "(simulate) or --outdir <scratch> (figure), timed as a whole")
        line_counts = {side: src_line_counts(path) for side, path in checkouts.items()}

    import numpy
    import scipy

    date = datetime.date.today().isoformat()
    record = {
        "date": date,
        "parent_commit": sha,
        "change": args.change,
        "claim": args.claim,
        "machine": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "thread_env": {k: v for k, v in os.environ.items() if k.endswith("_THREADS")},
        },
        "commands": commands,
        "pairing": "alternating: even pairs run the parent first, odd pairs the change "
                   "first; run order below",
        "run_order": run_order,
        "workloads": record_workloads,
        "cli_wall_s": cli,
        "src_wc_l": line_counts,
    }
    out = args.out or ROOT / f"BENCH_{date}_{sha[:7]}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
