"""The benchmark's workloads: a partition of the experiment registry.

Each workload is a list of registry experiments whose quick grid points
run in one fresh interpreter.  Together the three cover every registered
experiment exactly once, so their sum is the quick campaign.
"""

from __future__ import annotations

from typing import Dict, Tuple

WORKLOADS: Dict[str, Tuple[str, ...]] = {
    # Cuckoo table build and traced lookup pricing; no megaflow prewarm and
    # few cache flushes.
    "lookup_tables": (
        "multicore", "keysize", "tab01", "abl_design", "abl_tlb",
        "abl_prefetch", "fig04", "fig09", "fig13", "degradation", "updates",
        "fig08", "tab04"),
    # The OVS three-layer path (prewarm, classify, TSS install) plus churn
    # traffic that interleaves cuckoo installs and lookups; no flushes.
    "ovs_datapath": ("fig03", "fig11", "fig12", "cache_churn"),
    # Cold-table flushes, lock/coherence contention and sharded clusters
    # forked through the supervised pool.
    "cold_concurrent": ("fig10", "sec34", "scaling_law", "cluster_chaos"),
}

#: Experiments whose results depend on the seed ``bench_run`` receives; the
#: others discard it.  Checked by a two-seed digest comparison in the tests.
SEED_CONSUMERS = frozenset({"scaling_law", "cluster_chaos"})

#: Parameters added to every quick grid point of an experiment.
#:
#: ``run_supervised`` can report a shard worker that has already sent its
#: result as crashed ("exited with code 0 before reporting a result"): it
#: polls the pipe, the worker sends and exits, then it sees the process
#: dead.  On two cores this hits about one ``scaling_law`` pass in 120.
#: ``cluster_chaos`` already retries a shard once by default;
#: ``scaling_law`` does not, so one such report fails its grid point.  The
#: retry re-runs the same deterministic shard, leaving the report
#: unchanged, and the traced run counts every retried attempt as
#: ``runner.pool.failed_attempts``.
POINT_PARAMS: Dict[str, Dict[str, int]] = {"scaling_law": {"retries": 1}}


def run_seed(derive_seed, experiment: str, label: str, seed: int) -> int:
    """The seed handed to ``bench_run`` for one grid point.

    Seed 0 is the registry's own ``derive_seed(experiment, label)``, so a
    seed-0 run reproduces ``repro bench``; any other seed derives a
    different value from the same identity.
    """
    if seed == 0:
        return derive_seed(experiment, label)
    return derive_seed(experiment, f"{label}\x00seed={seed}")
