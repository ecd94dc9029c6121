"""Self-tests for the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py -q

Run from the repository root.  They check the benchmark's contract,
not the program: printed metric names and units match
``BENCHMARK.json``, each correctness check can fail, the calibration
kernel stays independent of the program, and an untraced run patches
nothing.
"""

from __future__ import annotations

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import calib  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _declared(section):
    return [(metric["name"], metric["unit"]) for metric in SPEC[section]]


def test_declared_metrics_match_the_runner():
    assert _declared("end_to_end") == list(run.END_TO_END)
    for elasticity in run.ELASTICITY.values():
        assert set(elasticity) == set(workloads.WORKLOADS)
    assert _declared("per_layer") == list(run.PER_LAYER)
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_untraced_run_prints_every_end_to_end_metric():
    proc = subprocess.run(
        SPEC["command"]
        + ["--workload", "des-paper", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == _declared("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_per_layer_keys_match_declared_names():
    empty = workloads.Outcome()
    calibration = calib.Calibration(steps=100)
    calibration.slice()
    metrics = run.per_layer(tracing.Tracer(), empty, empty, [(0.1, 0.1, 0.0)], calibration, 50.0)
    assert sorted(metrics) == sorted(name for name, _unit in run.PER_LAYER)


def test_doctored_des_count_fails_the_golden_check():
    recorded = json.loads(workloads.GOLDEN_PATH.read_text())["cells"]
    measured = workloads.run_golden_cells(workloads.import_program())
    pristine = workloads.Outcome()
    workloads.check_golden(pristine, measured, recorded)
    assert pristine.checks == {"des-golden": True}

    doctored = {label: list(counts) for label, counts in recorded.items()}
    label = next(iter(doctored))
    doctored[label][1] += 1  # one more recorded miss than the program makes
    outcome = workloads.Outcome()
    workloads.check_golden(outcome, measured, doctored)
    assert outcome.checks == {"des-golden": False}
    assert label in outcome.notes[0]


def test_dropped_or_duplicated_routed_reply_fails():
    sent = [0, 1, 2, 3]
    replies = {tag: [{"tag": tag, "missed": False}] for tag in sent}
    ok = workloads.Outcome()
    assert workloads.check_replies(ok, sent, replies) == 0
    assert ok.checks == {"one-reply-per-tag": True}

    dropped = dict(replies)
    del dropped[2]
    outcome = workloads.Outcome()
    assert workloads.check_replies(outcome, sent, dropped) == 1
    assert outcome.checks == {"one-reply-per-tag": False}

    doubled = dict(replies)
    doubled[1] = replies[1] * 2
    outcome = workloads.Outcome()
    assert workloads.check_replies(outcome, sent, doubled) == 1
    assert outcome.checks == {"one-reply-per-tag": False}

    refused = dict(replies)
    refused[3] = [{"tag": 3, "error": "router is draining"}]
    outcome = workloads.Outcome()
    assert workloads.check_replies(outcome, sent, refused) == 1


def test_calibration_kernel_imports_nothing_from_the_program():
    tree = ast.parse((HERE / "calib.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
    assert imported <= {"__future__", "gc", "heapq", "statistics", "time", "typing"}
    probe = (
        "import sys; sys.path.insert(0, 'perfbench'); import calib; "
        "calib.kernel(100); print([m for m in sys.modules if m.startswith('repro')])"
    )
    proc = subprocess.run([sys.executable, "-c", probe], cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert proc.stdout.strip() == "[]", proc.stderr


def test_tracing_off_installs_no_wrapper(monkeypatch):
    def refuse(self, modules):
        raise AssertionError("an untraced run installed the tracer")

    imported = []

    def import_program():
        imported.append(real_import())
        return imported[-1]

    real_import = workloads.import_program
    monkeypatch.setattr(workloads, "import_program", import_program)
    monkeypatch.setattr(tracing.Tracer, "install", refuse)
    monkeypatch.setattr(run, "SETUP_REPS", 1)
    monkeypatch.setattr(workloads, "GOLDEN_DURATION", 20.0)
    monkeypatch.setattr(workloads, "check_golden", lambda *args: None)
    result = run.run("des-paper", seed=2, seconds=0.5, trace=False, reference_ms=50.0)
    assert result["attempted"] > 0
    assert imported and all(tracing.installed_wrappers(m) == [] for m in imported)


def test_tracer_wraps_and_restores_every_target():
    modules = workloads.import_program()
    originals = [getattr(owner, attr) for owner, attr, _ in tracing.patch_targets(modules)]
    tracer = tracing.Tracer()
    tracer.install(modules)
    try:
        assert len(tracing.installed_wrappers(modules)) == len(originals)
    finally:
        tracer.uninstall()
    assert tracing.installed_wrappers(modules) == []
    restored = [getattr(owner, attr) for owner, attr, _ in tracing.patch_targets(modules)]
    assert restored == originals


@pytest.mark.parametrize(
    "values, q, expected",
    [([], 50, 0.0), ([3.0], 95, 3.0), (list(range(1, 101)), 95, 95), (list(range(1, 101)), 50, 50)],
)
def test_percentile_is_nearest_rank(values, q, expected):
    assert tracing.percentile(values, q) == expected
