"""Tests of the benchmark's own logic (not of the simulator).

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import ast
import importlib.util
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent
ROOT = PERFBENCH.parent
RUN_PY = PERFBENCH / "run.py"

sys.path.insert(0, str(PERFBENCH))
sys.path.insert(0, str(ROOT / "src"))

import calibrate  # noqa: E402

_spec = importlib.util.spec_from_file_location("perfbench_run", RUN_PY)
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _clean_env(**extra):
    env = {k: v for k, v in os.environ.items()
           if k not in run.INSTRUMENT_ENV}
    env.update(extra)
    return env


# ----------------------------------------------------------------------
# Metric names
# ----------------------------------------------------------------------
def test_metric_names_are_well_formed():
    for name in list(run.END_TO_END) + list(run.PER_LAYER):
        assert NAME.fullmatch(name), name
        assert len(name) <= 64


def test_benchmark_json_matches_the_emitted_metrics():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in config["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in config["per_layer"]}
    assert e2e == run.END_TO_END
    assert layers == run.PER_LAYER
    from workloads import WORKLOADS

    assert [w["name"] for w in config["workloads"]] == list(WORKLOADS)
    for workload in config["workloads"]:
        assert NAME.fullmatch(workload["name"])


# ----------------------------------------------------------------------
# Calibration
# ----------------------------------------------------------------------
def test_calibrate_scales_by_nominal_over_measured():
    assert calibrate.calibrate(2.0, 0.070, 0.035) == pytest.approx(1.0)
    assert calibrate.calibrate(2.0, 0.035, 0.035) == pytest.approx(2.0)
    assert calibrate.calibrate(1.0, 0.0175, 0.035) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        calibrate.calibrate(1.0, 0.0)


def test_bracket_uses_the_mean_of_the_kernels_around_each_region():
    kernels = iter([0.04, 0.02, 0.05])
    ticks = iter([10.0, 13.0, 20.0, 21.0])
    bracket = calibrate.Bracket(clock=lambda: next(ticks),
                                kernel_runner=lambda: next(kernels),
                                nominal_s=0.03)
    value, first = bracket.time(lambda: "a")
    _, second = bracket.time(lambda: "b")
    assert value == "a"
    # Region 1: raw 3 s between kernels 0.04 and 0.02 -> mean 0.03.
    assert first.raw_s == pytest.approx(3.0)
    assert first.kernel_s == pytest.approx(0.03)
    assert first.calibrated_s == pytest.approx(3.0)
    # Region 2 shares kernel 0.02 and ends on 0.05 -> mean 0.035.
    assert second.raw_s == pytest.approx(1.0)
    assert second.kernel_s == pytest.approx(0.035)
    assert second.calibrated_s == pytest.approx(1.0 * 0.03 / 0.035)
    assert bracket.kernel_times == [0.04, 0.02, 0.05]


def test_kernel_is_deterministic():
    assert calibrate.kernel(500) == calibrate.kernel(500)


def test_kernel_module_does_not_import_repro():
    tree = ast.parse((PERFBENCH / "calibrate.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
    assert not any(name.split(".")[0] in ("repro", "workloads", "run")
                   for name in imported), imported
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); "
             "import calibrate; calibrate.run_kernel(); "
             "print(sorted(m for m in sys.modules "
             "if m == 'repro' or m.startswith('repro.')))")
    out = subprocess.run([sys.executable, "-c", probe, str(PERFBENCH)],
                         capture_output=True, text=True, check=True,
                         env=_clean_env())
    assert out.stdout.strip() == "[]"


# ----------------------------------------------------------------------
# Digests
# ----------------------------------------------------------------------
_DIGEST_PROBE = """
import sys
sys.path.insert(0, sys.argv[1]); sys.path.insert(0, sys.argv[2])
from repro.config import SimulationConfig
from repro.harness.runner import ExperimentSpec
from workloads import digest
sim = SimulationConfig(warmup_cycles=20, measure_cycles=200,
                       drain_cycles=100, deadlock_abort_cycles=300)
spec = ExperimentSpec(design="mesh:minadaptive-spin-1vc", mesh_side=4,
                      injection_rate=0.1, tdd=32, sim=sim)
_, point = spec.run()
print(digest(point.to_dict()))
"""


def test_digest_is_identical_across_hash_seeds():
    outputs = set()
    for hash_seed in ("0", "1", "4242"):
        out = subprocess.run(
            [sys.executable, "-c", _DIGEST_PROBE, str(ROOT / "src"),
             str(PERFBENCH)],
            capture_output=True, text=True, check=True,
            env=_clean_env(PYTHONHASHSEED=hash_seed))
        outputs.add(out.stdout.strip())
    assert len(outputs) == 1, outputs


def test_digest_ignores_key_order():
    from workloads import digest

    assert digest({"a": 1, "b": [1, 2]}) == digest({"b": [1, 2], "a": 1})
    assert digest({"a": 1}) != digest({"a": 2})


# ----------------------------------------------------------------------
# Failure counting
# ----------------------------------------------------------------------
def _point(rate, digest=None, error=None):
    return {"rate": rate, "digest": digest, "error": error}


def test_failure_counting():
    reference = {"0.10": "aa", "0.20": "bb"}
    passes = [
        [_point("0.10", "aa"), _point("0.20", "bb")],   # clean
        [_point("0.10", "xx"), _point("0.20", error="Boom")],
        [_point("0.10", "aa")],                          # 0.20 missing
        [_point("0.10", "aa"), _point("0.20", "bb"),
         _point("0.30", "cc")],                          # unexpected point
    ]
    attempted, failed, problems = run.count_failures(reference, passes)
    assert attempted == 2 + 2 + 2 + 3
    assert failed == 4
    assert any("digest xx" in p for p in problems)
    assert any("raised Boom" in p for p in problems)
    assert any("not run" in p for p in problems)
    assert any("not in the reference" in p for p in problems)


def test_failure_counting_clean_run():
    reference = {"0.10": "aa"}
    assert run.count_failures(reference, [[_point("0.10", "aa")]] * 3) \
        == (3, 0, [])


def test_committed_digests_cover_the_default_seed():
    table = json.loads(run.DIGESTS.read_text())
    from workloads import WORKLOADS, rate_key

    for name, workload in WORKLOADS.items():
        rates = table[name]["1"]
        valid = {rate_key(rate) for rate in workload.rates}
        assert rates and set(rates) <= valid, name


# ----------------------------------------------------------------------
# Refusals
# ----------------------------------------------------------------------
@pytest.mark.parametrize("variable", run.INSTRUMENT_ENV)
def test_instrumented_environment_is_detected(variable):
    assert run.instrumented({variable: "1"}) == [variable]
    assert run.instrumented({variable: ""}) == [variable]
    assert run.instrumented({"PATH": "/bin"}) == []


def test_refuses_to_time_an_instrumented_environment():
    done = subprocess.run(
        [sys.executable, str(RUN_PY), "--workload", "mesh-spin-curve",
         "--seconds", "1"],
        capture_output=True, text=True, cwd=str(ROOT),
        env=_clean_env(REPRO_ENGINE="fast"), timeout=60)
    assert done.returncode == 2
    assert done.stdout == ""
    assert "REPRO_ENGINE" in done.stderr


def test_fails_without_a_program(tmp_path):
    shutil.copytree(PERFBENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    env = _clean_env()
    env.pop("PYTHONPATH", None)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload",
         "mesh-spin-curve", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=str(tmp_path), env=env,
        timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
