"""Parity pin: the guard can never silently change the model.

Each pin runs a real experiment (quick grid) twice — once in the default
configuration and once with ``REPRO_GUARD=1`` — and requires every number
in every payload to match at ``rel=1e-12`` and the rendered report to
match byte for byte.  The guard observes every event; observation must
never perturb results.

Covered experiments: fig09, fig11, multicore scaling, and the
degradation sweep.
"""

from __future__ import annotations

import dataclasses
import math

import pytest

from repro.runner import run_for_bench

EXPERIMENTS = ("fig09", "fig11", "multicore", "degradation")

REL_TOL = 1e-12


def _numeric_view(payload, prefix=""):
    """Flatten a payload into {path: number} for exact-ish comparison."""
    out = {}
    if dataclasses.is_dataclass(payload) and not isinstance(payload, type):
        for field in dataclasses.fields(payload):
            out.update(_numeric_view(getattr(payload, field.name),
                                     f"{prefix}.{field.name}"))
    elif isinstance(payload, dict):
        for key, value in payload.items():
            out.update(_numeric_view(value, f"{prefix}[{key!r}]"))
    elif isinstance(payload, (list, tuple)):
        for index, value in enumerate(payload):
            out.update(_numeric_view(value, f"{prefix}[{index}]"))
    elif isinstance(payload, bool) or payload is None:
        pass
    elif isinstance(payload, (int, float)):
        out[prefix] = float(payload)
    return out


def _snapshot(name):
    payloads, text = run_for_bench(name, quick=True)
    numbers = {}
    for label, payload in payloads.items():
        numbers.update(_numeric_view(payload, label))
    assert numbers, f"experiment {name!r} produced no numeric payloads"
    return numbers, text


def _assert_parity(name, baseline, candidate, toggle):
    base_numbers, base_text = baseline
    cand_numbers, cand_text = candidate
    assert base_numbers.keys() == cand_numbers.keys(), (
        f"{name}: payload shape changed under {toggle}")
    for path, base_value in base_numbers.items():
        cand_value = cand_numbers[path]
        assert math.isclose(base_value, cand_value, rel_tol=REL_TOL,
                            abs_tol=0.0), (
            f"{name}: {path} diverged under {toggle}: "
            f"{base_value!r} vs {cand_value!r}")
    assert base_text == cand_text, (
        f"{name}: rendered report drifted under {toggle}")


@pytest.mark.parametrize("name", EXPERIMENTS)
def test_guard_parity(name, monkeypatch):
    monkeypatch.delenv("REPRO_GUARD", raising=False)
    baseline = _snapshot(name)
    monkeypatch.setenv("REPRO_GUARD", "1")
    guarded = _snapshot(name)
    _assert_parity(name, baseline, guarded, "REPRO_GUARD=1")
