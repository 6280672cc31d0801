"""One measured pass of a workload, in a fresh interpreter.

Runs every quick grid point of the workload's experiments inline through
the public registry API (``discover`` -> ``ExperimentSpec.points/run/
report``), never through the result cache, the journal or the ``--jobs``
pool.  Prints one JSON object on its last stdout line.

    PYTHONPATH=src python3 perfbench/worker.py --workload ovs_datapath \
        --seed 0 [--trace] [--setup-only]

``run.py`` starts this script; it is not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import resource
import signal
import statistics
import sys
import time

from partition import POINT_PARAMS, WORKLOADS, run_seed
from seams import SEAMS, Tracer, children_cpu_s


#: ``cpu_ref_s`` is the CPU the work would take on a host where one
#: ``reference_chunk`` takes this much CPU.
REFERENCE_CHUNK_S = 0.020
#: CPU between reference chunks timed inside a grid point.
SAMPLE_PERIOD_S = 0.5


def reference_chunk(table: dict) -> float:
    """CPU of one fixed pure-Python task: dict updates and table probes.

    The host's speed drifts by 10-30% over minutes.  This task speeds up
    and slows down with it, so timing it next to the measured work lets
    the work's CPU be scaled to a reference speed.  It calls no ``repro``
    code and allocates no tracked objects.
    """
    start = time.process_time()
    small = {}
    x = 12345
    for i in range(20_000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = x & 0xFFF
        small[key] = small.get(key, 0) + i
        table.get(61 * (x & 0xFFFF))
    return time.process_time() - start


def peak_rss_mb() -> float:
    """Peak RSS of this process or any reaped child, in MB."""
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak_kb / 1024


def reference_table() -> dict:
    """The table ``reference_chunk`` probes.

    Keys 61 apart fill a 65,536-entry table uniformly: about 5 MB, larger
    than the private caches.
    """
    return dict.fromkeys(range(0, 61 << 16, 61), 0)


class ChunkSampler:
    """Times reference chunks between grid points and during them.

    ``chunk()`` times one chunk now.  While the sampler is active, a
    ``SIGPROF`` timer also times one every ``SAMPLE_PERIOD_S`` of process
    CPU, inside the running grid point, so a long point is scaled by the
    host's speed while it ran rather than only at its two ends.
    ``spent`` is the CPU those in-point chunks took; the caller subtracts
    it from the point.  Forked pool children inherit no interval timer.
    """

    def __init__(self, table: dict) -> None:
        self.table = table
        self.samples: list = []
        self.spent = 0.0
        self._busy = False

    def chunk(self) -> float:
        self._busy = True
        try:
            cpu = reference_chunk(self.table)
        finally:
            self._busy = False
        self.samples.append(cpu)
        return cpu

    def _on_timer(self, _signum, _frame) -> None:
        if not self._busy:
            self.spent += self.chunk()

    def __enter__(self):
        signal.signal(signal.SIGPROF, self._on_timer)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)


def run_pass(registry, names, seed: int, table: dict, tracer=None):
    """Run every quick grid point of ``names``.

    ``registry`` is ``repro.runner.discover()``; experiments run in its
    order.  A reference chunk is timed before each grid point and after
    the last and, in an untraced pass, every ``SAMPLE_PERIOD_S`` of CPU
    inside a point (see ``ChunkSampler``).  Each point's ``cpu_ref_s``
    scales its CPU by the mean of the chunks from the one before it to the
    one after it.  Returns the per-experiment records and the mean chunk
    CPU.
    """
    from repro.runner import derive_seed

    specs = [spec for name, spec in registry.items() if name in names]
    missing = set(names) - set(registry)
    if missing:
        raise SystemExit(f"unknown experiments in workload: {sorted(missing)}")
    payloads = {}
    results = {}
    sampler = ChunkSampler(table)
    reference = sampler.samples
    timed = []  # (record, cpu, indices of the chunks before and after)
    with contextlib.ExitStack() as stack:
        if tracer is None:
            stack.enter_context(sampler)
        for spec in specs:
            record = {"points": 0, "failed": 0, "cpu_s": 0.0,
                      "cpu_ref_s": 0.0, "children_cpu_s": 0.0,
                      "failures": []}
            payloads[spec.name] = {}
            for label, params in spec.points(quick=True):
                params = dict(params, **POINT_PARAMS.get(spec.name, {}))
                point_seed = run_seed(derive_seed, spec.name, label, seed)
                record["points"] += 1
                sampler.chunk()
                before = len(reference) - 1
                children = children_cpu_s()
                spent = sampler.spent
                start = time.process_time()
                try:
                    if tracer is None:
                        payload = spec.run(label, params, point_seed)
                        cpu = time.process_time() - start
                        cpu += children_cpu_s() - children
                        cpu -= sampler.spent - spent
                    else:
                        payload, cpu = tracer.root(
                            lambda: spec.run(label, params, point_seed))
                except Exception as exc:  # the pass goes on
                    record["failed"] += 1
                    record["failures"].append(
                        f"{label}: {type(exc).__name__}: {exc}")
                    continue
                record["cpu_s"] += cpu
                # The next boundary chunk lands at this index.
                timed.append((record, cpu, before, len(reference)))
                record["children_cpu_s"] += children_cpu_s() - children
                payloads[spec.name][label] = payload
            results[spec.name] = record
        sampler.chunk()
    for record, cpu, before, after in timed:
        local = statistics.fmean(reference[before:after + 1])
        record["cpu_ref_s"] += cpu * REFERENCE_CHUNK_S / local
    if tracer is not None:
        tracer.uninstall()
    for spec in specs:
        record = results[spec.name]
        if record["failed"]:
            continue
        text = spec.report(payloads.pop(spec.name))
        record["report_sha256"] = hashlib.sha256(text.encode()).hexdigest()
        record["checks_diverged"] = text.count("[DIVERGES]")
        record["checks_held"] = text.count("[shape holds]")
    return results, statistics.fmean(reference)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    from repro.runner import discover

    registry = discover()
    # Setup ends here: the interpreter is up, ``repro`` is imported and the
    # registry has imported every experiment module.
    out = {"setup_s": time.process_time()}
    if not args.setup_only:
        tracer = None
        if args.trace:
            tracer = Tracer()
            tracer.install(SEAMS)
        out["experiments"], out["reference_chunk_s"] = run_pass(
            registry, WORKLOADS[args.workload], args.seed, reference_table(),
            tracer)
        out["peak_rss_mb"] = peak_rss_mb()
        if tracer is not None:
            out["trace"] = tracer.metrics()
            out["trace"]["analysis.children_cpu_s"] = tracer.counters.get(
                "analysis.children_cpu_s", 0.0)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
