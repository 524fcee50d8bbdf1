"""Smoke test of the benchmark itself, at tiny sizes.

Run from the repository root::

    python3 -m pytest -q perfbench/test_smoke.py

Every workload must run and print every metric with its unit, and a
deliberately corrupted output must trip the check that guards it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
sys.path[:0] = [str(HERE), str(CHECKOUT / "src")]

import spec  # noqa: E402
from common import CheckFailed, Repeat, same_stats  # noqa: E402
from oracles import (  # noqa: E402
    binomial_table,
    check_eq17_state,
    check_exact_placement,
    check_mapcal_table,
)

WORKLOADS = [name for name, _ in spec.WORKLOADS]


def _run(*args: str, cwd: Path = CHECKOUT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_prints_every_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0.2",
                "--trace", str(trace), "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = ({n: u for n, u, _, _ in spec.END_TO_END} if trace == 0
                else {n: u for n, u, _ in spec.per_layer_metrics()})
    got = {n: m["unit"] for n, m in result["metrics"].items()}
    assert got == expected
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_spec_matches_benchmark_json():
    on_disk = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    assert on_disk == spec.benchmark_json()


def test_shed_reasons_match_the_service():
    from repro.placement.base import SHED_REASONS
    assert set(spec.SHED_REASONS) == SHED_REASONS


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(CHECKOUT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "plan-dense", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# ---------------------------------------------------------------------- #
# corrupted outputs trip their checks
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def service_run(tmp_path_factory):
    from service import ServiceWorkload
    workload = ServiceWorkload(5, "tiny",
                               workdir=tmp_path_factory.mktemp("svc"))
    rep = workload.repeat(None)
    workload.check([rep])
    return workload, rep


def test_vm_moved_onto_full_pm_violates_eq17(service_run):
    from service import _placer
    _, rep = service_run
    svc, _ = rep.outputs
    state = json.loads(json.dumps(svc.consolidator.capture_state()))
    check_eq17_state(state, placer=_placer())
    target = int(next(iter(state["vms"].values()))["pm"])
    for rec in state["vms"].values():
        rec["pm"] = target
    with pytest.raises(CheckFailed, match="Eq. \\(17\\)|d ="):
        check_eq17_state(state, placer=_placer())


def test_tampered_recovered_state_is_caught(service_run, monkeypatch):
    import service
    from repro.service.service import PlacementService
    workload, rep = service_run
    real = PlacementService.recover

    def tampered(*args, **kwargs):
        svc = real(*args, **kwargs)
        vm_id = next(iter(svc.consolidator.hosted_vms()))
        svc.consolidator.depart(vm_id)
        return svc

    monkeypatch.setattr(service.PlacementService, "recover", tampered)
    with pytest.raises(CheckFailed, match="recovered"):
        workload.recover(rep)


def test_mapcal_table_off_by_one_is_caught():
    table = binomial_table(32, 0.1, 0.4, 0.01)
    check_mapcal_table(table, 32, 0.1, 0.4, 0.01)
    table[20] += 1
    with pytest.raises(CheckFailed, match="table\\[20\\]"):
        check_mapcal_table(table, 32, 0.1, 0.4, 0.01)


def test_exact_placement_over_capacity_is_caught():
    from plan import PlanWorkload

    from repro.core.types import PMSpec
    workload = PlanWorkload(4, "tiny")
    rep = workload.repeat(None)
    workload.check([rep])
    specs, _, _, exact = rep.outputs
    shrunk = [PMSpec(capacity=p.capacity / 4) for p in workload.pms]
    with pytest.raises(CheckFailed, match="exceeds capacity"):
        check_exact_placement(exact, specs, shrunk, 0.01)


def test_diverging_simulation_statistics_are_caught():
    def rep(migrations):
        return Repeat(build_s=0.0, wall_s=1.0, work=1.0, attempted=1,
                      failed=0, op_s=[], segments=[],
                      stats={"migrations": migrations})
    same_stats([rep(3), rep(3)])
    with pytest.raises(CheckFailed, match="migrations"):
        same_stats([rep(3), rep(4)])

