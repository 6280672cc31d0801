"""Benchmark of record: host CPU of the quick registry campaign, by workload.

    python3 perfbench/run.py --workload lookup_tables [--seed 0]
        [--seconds 40] [--trace 0|1]

Run from the repository root.  Each pass runs every quick grid point of
the workload's experiments in a fresh interpreter (``worker.py``); passes
repeat while another one fits in ``--seconds``.  The gated CPU figure,
``cpu_ref_s``, is the pass CPU scaled by reference chunks timed between
and inside grid points (``worker.ChunkSampler``), because this kind of
host drifts in speed by 10-30% over minutes; the raw ``cpu_s`` is printed
beside it.  ``setup_s`` is the median set-up CPU scaled by the square root
of the run's chunk ratio (``SETUP_ELASTICITY``).  Set-up time is measured
in separate fresh interpreters that only import ``repro`` and discover the
registry.  ``--trace 1`` runs one untraced and one traced pass instead and
reports the per-layer metrics.  The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is
nonzero when a grid point fails or a check does not hold.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import signal
import statistics
import subprocess
import sys
import time

from partition import SEED_CONSUMERS, WORKLOADS
from seams import ROOT, SEAMS
from worker import REFERENCE_CHUNK_S

HERE = pathlib.Path(__file__).resolve().parent
ROOT_DIR = HERE.parent
SRC = ROOT_DIR / "src"

#: Set-up-only interpreters per run; set-up is short and noisy, so its
#: median is taken over these and every pass.
SETUP_PROBES = 5
#: Set-up CPU moves about half as much as the reference chunk when the
#: host changes speed (a fitted log-log slope of 0.48 over 30 runs, where
#: grid-point CPU has a slope near 1), so it is scaled by the chunk ratio
#: to this power.
SETUP_ELASTICITY = 0.5
#: Every process this run starts is killed by then (the run must end
#: within 180 s).
DEADLINE_S = 170.0


class WorkerError(RuntimeError):
    """A worker interpreter crashed, timed out or printed no result."""


def _worker(args, deadline: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # Fixed string hashing, so set and dict order (and the work that
    # follows from it) is the same in every pass.
    env["PYTHONHASHSEED"] = "0"
    # Imports read compiled bytecode, as an installed package would; the
    # first interpreter of a fresh checkout compiles it into the cache.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(ROOT_DIR / ".perfbench_cache")
    process = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        stdout=subprocess.PIPE, env=env, cwd=ROOT_DIR,
        start_new_session=True)
    try:
        stdout, _ = process.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except BaseException as exc:
        # The session holds the worker and any pool children it forked.
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass  # the whole session has already exited
        process.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise WorkerError(f"worker {' '.join(args)} timed out") from None
        raise
    lines = stdout.decode().strip().splitlines()
    if process.returncode != 0 or not lines:
        raise WorkerError(f"worker {' '.join(args)} exited with "
                          f"code {process.returncode}")
    return json.loads(lines[-1])


def _passes(workload: str, seed: int, seconds: float, trace: bool,
            deadline: float):
    """Worker results: ``(untraced passes, traced pass or None)``."""
    base = ["--workload", workload, "--seed", str(seed)]
    if trace:
        return [_worker(base, deadline)], _worker(base + ["--trace"],
                                                  deadline)
    passes, longest = [], 0.0
    started = time.monotonic()
    while not passes or time.monotonic() - started + longest <= seconds:
        begun = time.monotonic()
        passes.append(_worker(base, deadline))
        longest = max(longest, time.monotonic() - begun)
    return passes, None


def _check(problems, ok: bool, message: str) -> None:
    if not ok:
        problems.append(message)


def _trace_metrics(untraced, traced, problems) -> dict:
    """Per-layer metrics plus the checks that tie them together."""
    metrics = dict(traced["trace"])
    children = metrics.pop("analysis.children_cpu_s")
    traced_cpu = sum(r["cpu_s"] for r in traced["experiments"].values())
    untraced_cpu = sum(r["cpu_s"] for r in untraced["experiments"].values())
    layers = sum(metrics[f"{name}.self_s"]
                 for name in [seam.name for seam in SEAMS] + [ROOT])
    _check(problems,
           abs(layers + children - traced_cpu) <= 1e-6 * max(1.0, traced_cpu),
           f"layer self times {layers:.6f} s + children {children:.6f} s "
           f"!= traced cpu_s {traced_cpu:.6f} s")
    _check(problems,
           abs(metrics["runner.pool.children_cpu_s"] - children) <= 1e-6,
           "child-process CPU was reaped outside runner.pool")
    _check(problems, metrics["classifier.classify.calls"]
           == metrics["classifier.datapath.packets"],
           "classifier.classify.calls != sum of DatapathStats.packets")
    for name in sorted(n for names in WORKLOADS.values() for n in names):
        record = untraced["experiments"].get(name)
        metrics[f"analysis.{name}.cpu_s"] = record["cpu_s"] if record else 0.0
    metrics["analysis.checks_diverged"] = sum(
        r.get("checks_diverged", 0) for r in untraced["experiments"].values())
    metrics["analysis.cpu_s"] = untraced_cpu
    metrics["analysis.reference_chunk_s"] = untraced["reference_chunk_s"]
    metrics["trace.cpu_s"] = traced_cpu
    metrics["trace.overhead_s"] = traced_cpu - untraced_cpu
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a checkout "
              f"of the repository", file=sys.stderr)
        return 2

    # A terminated run still kills its workers (see ``_worker``).
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(143))
    deadline = time.monotonic() + DEADLINE_S
    try:
        probes = [_worker(["--workload", args.workload, "--setup-only"],
                          deadline) for _ in range(SETUP_PROBES)]
        passes, traced = _passes(args.workload, args.seed, args.seconds,
                                 bool(args.trace), deadline)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups = [result["setup_s"] for result in probes + passes]

    problems = []
    runs = passes + ([traced] if traced else [])
    attempted = sum(r["points"] for run in runs
                    for r in run["experiments"].values())
    failed = sum(r["failed"] for run in runs
                 for r in run["experiments"].values())
    first = passes[0]["experiments"]
    for run in runs:
        for name, record in run["experiments"].items():
            for failure in record["failures"]:
                problems.append(f"{name}/{failure}")
            _check(problems, record.get("report_sha256")
                   == first[name].get("report_sha256"),
                   f"{name}: report differs between passes")

    cpu = [sum(r["cpu_s"] for r in run["experiments"].values())
           for run in passes]
    cpu_ref = [sum(r["cpu_ref_s"] for r in run["experiments"].values())
               for run in passes]
    chunk = statistics.fmean(run["reference_chunk_s"] for run in passes)
    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} "
          f"untraced pass(es){', 1 traced pass' if traced else ''}; "
          f"{attempted} grid points attempted, {failed} failed")
    for name, record in first.items():
        seed_use = "consumed" if name in SEED_CONSUMERS else "ignored"
        cpu_s = statistics.median(
            run["experiments"][name]["cpu_s"] for run in passes)
        children_s = statistics.median(
            run["experiments"][name]["children_cpu_s"] for run in passes)
        print(f"  {name:14s} {record['points']:2d} points  "
              f"cpu {cpu_s:7.3f} s (children {children_s:6.3f} s)  "
              f"seed {seed_use:8s}  report_sha256 "
              f"{record.get('report_sha256', 'FAILED')}")
    metrics = {
        "cpu_ref_s": (statistics.median(cpu_ref), "s"),
        "setup_s": (statistics.median(setups)
                    * (REFERENCE_CHUNK_S / chunk) ** SETUP_ELASTICITY, "s"),
        "peak_rss_mb": (statistics.median(
            run["peak_rss_mb"] for run in passes), "MB"),
        "checks_held": (sum(r.get("checks_held", 0)
                            for r in first.values()), "count"),
    }
    diverged = sum(r.get("checks_diverged", 0) for r in first.values())
    print(f"cpu_s {statistics.median(cpu):.6g} s")
    print(f"setup_raw_s {statistics.median(setups):.6g} s")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"checks_diverged {diverged} count")
    print(f"cpu_s per pass: {', '.join(f'{v:.3f}' for v in cpu)}; "
          f"reference chunk: " + ", ".join(
              f"{run['reference_chunk_s'] * 1e3:.2f} ms" for run in passes))

    if traced:
        layer = _trace_metrics(passes[0], traced, problems)
        for name, value in layer.items():
            print(f"  {name} {value:.6g}")
        out_metrics = {name: {"value": value, "unit": _unit(name)}
                       for name, value in layer.items()}
    else:
        out_metrics = {name: {"value": value, "unit": unit}
                       for name, (value, unit) in metrics.items()}
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    correct = not problems and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": out_metrics}))
    return 0 if correct else 1


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("host_us_per_event"):
        return "us/event"
    if name.endswith(("_rate", "_ratio", "_fraction", "_per_insert",
                      "_per_flow", "_per_classification")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
