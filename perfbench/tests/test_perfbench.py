"""Tests of the benchmark itself: partition, seeds, tracer, end to end.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q

The end-to-end tests run every workload once per seed (about three
minutes on two cores).
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys
import time
import types

import pytest

HERE = pathlib.Path(__file__).resolve().parents[1]
REPO = HERE.parent
for path in (str(HERE), str(REPO / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

from partition import POINT_PARAMS, SEED_CONSUMERS, WORKLOADS  # noqa: E402
from seams import ROOT, SEAMS, Seam, Tracer  # noqa: E402

from repro.runner import derive_seed, discover  # noqa: E402


def _busy(seconds: float) -> None:
    end = time.process_time() + seconds
    while time.process_time() < end:
        pass


# -- partition -------------------------------------------------------------------

def test_workloads_partition_the_registry():
    placed = [name for names in WORKLOADS.values() for name in names]
    assert len(placed) == len(set(placed)), "an experiment is in two workloads"
    assert set(placed) == set(discover()), (
        "every registered experiment must sit in exactly one workload")


def test_point_params_leave_reports_unchanged():
    registry = discover()
    for name, added in POINT_PARAMS.items():
        spec = registry[name]
        reports = []
        for extra in ({}, added):
            # Inline dispatch, so the pool race the parameters absorb cannot
            # fail the unpatched side.
            payloads = {
                label: spec.run(label, dict(params, parallel=False, **extra),
                                derive_seed(name, label))
                for label, params in spec.points(quick=True)}
            reports.append(spec.report(payloads))
        assert reports[0] == reports[1], name


def test_chunks_inside_a_point_are_timed_and_not_charged(monkeypatch):
    import worker

    class Busy:
        name = "busy"

        def points(self, quick):
            return [("only", {})]

        def run(self, label, params, seed):
            _busy(1.2)
            return label

        def report(self, payloads):
            return "report"

    timed = []
    chunk = worker.reference_chunk
    monkeypatch.setattr(worker, "reference_chunk",
                        lambda table: timed.append(chunk(table)) or timed[-1])
    results, _mean = worker.run_pass({"busy": Busy()}, ("busy",), 0, {})
    # One chunk before the point, one after it, and one per 0.5 s inside.
    assert len(timed) >= 4
    inside = sum(timed[1:-1])
    assert results["busy"]["cpu_s"] == pytest.approx(1.2 - inside, abs=0.02)


# -- tracer ------------------------------------------------------------------------

@pytest.fixture
def fake_modules(monkeypatch):
    """``fake_lib`` defines the seams; ``fake_user`` imports one by name."""
    lib = types.ModuleType("fake_lib")

    def leaf():
        _busy(0.02)
        return "leaf"

    def outer():
        _busy(0.02)
        return lib.leaf()

    class Stream:
        def items(self, count):
            for index in range(count):
                _busy(0.01)
                yield index

        def depth(self, level):
            return level if level == 0 else self.depth(level - 1)

    lib.leaf, lib.outer, lib.Stream = leaf, outer, Stream
    user = types.ModuleType("fake_user")
    user.leaf = lib.leaf  # what ``from fake_lib import leaf`` binds
    monkeypatch.setitem(sys.modules, "fake_lib", lib)
    monkeypatch.setitem(sys.modules, "fake_user", user)
    return lib, user


def test_generator_seam_is_timed_over_iteration(fake_modules):
    lib, _user = fake_modules
    tracer = Tracer()
    tracer.install([Seam("stream", ("fake_lib:Stream.items",))])
    try:
        iterator = lib.Stream().items(3)
        stats = tracer.stats["stream"]
        assert (stats.calls, stats.self_s) == (1, 0.0)
        assert list(iterator) == [0, 1, 2]
    finally:
        tracer.uninstall()
    assert stats.calls == 1
    assert stats.self_s >= 0.03


def test_from_import_bindings_are_patched_and_restored(fake_modules):
    lib, user = fake_modules
    original = lib.leaf
    tracer = Tracer()
    tracer.install([Seam("leaf", ("fake_lib:leaf",))])
    try:
        assert user.leaf() == "leaf"
        assert lib.leaf() == "leaf"
    finally:
        tracer.uninstall()
    assert tracer.stats["leaf"].calls == 2
    assert lib.leaf is original and user.leaf is original


def test_self_time_excludes_child_spans(fake_modules):
    lib, _user = fake_modules
    tracer = Tracer()
    tracer.install([Seam("outer", ("fake_lib:outer",)),
                    Seam("leaf", ("fake_lib:leaf",))])
    try:
        _result, cpu = tracer.root(lib.outer)
    finally:
        tracer.uninstall()
    outer, leaf = tracer.stats["outer"], tracer.stats["leaf"]
    assert outer.total_s >= outer.self_s + leaf.self_s - 1e-9
    assert outer.self_s >= 0.02 and leaf.self_s >= 0.02
    spans = sum(stats.self_s for stats in tracer.stats.values())
    assert spans == pytest.approx(cpu, rel=1e-9)


def test_reentrant_call_is_one_span(fake_modules):
    lib, _user = fake_modules
    tracer = Tracer()
    tracer.install([Seam("depth", ("fake_lib:Stream.depth",))])
    try:
        assert lib.Stream().depth(5) == 0
    finally:
        tracer.uninstall()
    assert tracer.stats["depth"].calls == 1


def _traced_point(experiment: str, index: int = 0):
    spec = discover()[experiment]
    label, params = spec.points(quick=True)[index]
    tracer = Tracer()
    tracer.install(SEAMS)
    try:
        payload, cpu = tracer.root(
            lambda: spec.run(label, params, derive_seed(experiment, label)))
    finally:
        tracer.uninstall()
    return tracer, payload, cpu


def test_classify_calls_match_datapath_packets():
    tracer, _payload, _cpu = _traced_point("cache_churn")
    metrics = tracer.metrics()
    assert metrics["classifier.classify.calls"] > 0
    assert (metrics["classifier.classify.calls"]
            == metrics["classifier.datapath.packets"])


def test_layer_self_times_sum_to_cpu_with_pool_children():
    tracer, _payload, cpu = _traced_point("cluster_chaos")
    metrics = tracer.metrics()
    children = tracer.counters["analysis.children_cpu_s"]
    assert metrics["runner.pool.calls"] > 0
    assert children > 0
    assert metrics["runner.pool.children_cpu_s"] == pytest.approx(children)
    spans = sum(metrics[f"{name}.self_s"]
                for name in [seam.name for seam in SEAMS] + [ROOT])
    assert spans + children == pytest.approx(cpu, rel=1e-9)


# -- end to end -------------------------------------------------------------------

def _run(*args, timeout=200):
    return subprocess.run([sys.executable, *args], cwd=REPO, timeout=timeout,
                          capture_output=True, text=True)


@pytest.fixture(scope="module")
def worker_pass():
    """One untraced worker pass per ``(workload, seed)``, run once."""
    results = {}

    def get(workload: str, seed: int) -> dict:
        if (workload, seed) not in results:
            done = _run(str(HERE / "worker.py"), "--workload", workload,
                        "--seed", str(seed))
            assert done.returncode == 0, done.stderr
            results[workload, seed] = json.loads(
                done.stdout.splitlines()[-1])["experiments"]
        return results[workload, seed]
    return get


def test_seed_reaches_exactly_the_seed_consumers(worker_pass):
    reached = set()
    for workload in WORKLOADS:
        first, second = worker_pass(workload, 0), worker_pass(workload, 1)
        reached |= {name for name in first if first[name]["report_sha256"]
                    != second[name]["report_sha256"]}
    assert reached == SEED_CONSUMERS


def test_cold_concurrent_traced_run(worker_pass):
    done = _run("perfbench/run.py", "--workload", "cold_concurrent",
                "--seed", "0", "--seconds", "1", "--trace", "1")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    metrics = {name: entry["value"]
               for name, entry in result["metrics"].items()}
    assert metrics["runner.pool.children_cpu_s"] > 0
    # cluster_chaos schedules shard kills, which the pool records.
    assert metrics["runner.pool.failed_attempts"] > 0
    assert "trace.overhead_s" in metrics
    assert metrics["vswitch.prewarm.calls"] == 0
    # A repeated run recomputes: no result cache serves it.
    repeat = sum(record["cpu_s"]
                 for record in worker_pass("cold_concurrent", 0).values())
    first = sum(metrics[f"analysis.{name}.cpu_s"]
                for name in WORKLOADS["cold_concurrent"])
    assert repeat > 0.5 * first


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for source in HERE.glob("*.py"):
        (tmp_path / "perfbench" / source.name).write_text(source.read_text())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ovs_datapath",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
