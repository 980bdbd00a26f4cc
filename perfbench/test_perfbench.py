"""Tests of the benchmark itself: generator, workloads, tracer and runner."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import tracer
import workloads

BENCHMARK = os.path.join(run.ROOT, "BENCHMARK.json")
SMALL = {  # one pass with every family small enough for a unit test
    "invariant": [("gl11", None, 2), ("gl21", None, 1)],
    "integrate": [("gl11", "VV*", 1), ("gl11", "VV*V", 1), ("gl21", "VV*", 1)],
    "report": [("gl11", None, 1), ("heis4", None, 1), ("par22", None, 1)],
}


@pytest.fixture(scope="module")
def cli():
    return run.import_cli()


@pytest.mark.parametrize("workload", sorted(workloads.PASSES))
def test_generated_inputs_validate(cli, tmp_path, workload):
    jobs = workloads.build(workload, 3, str(tmp_path))
    assert len(jobs) == sum(count for _, _, count in workloads.PASSES[workload])
    for job in jobs:
        code, out = run.call(cli, ["validate", job.algebra_path])
        assert code == 0 and json.loads(out)["valid"], job.id
    assert workloads.build(workload, 3, str(tmp_path / "again"))[0].id == jobs[0].id


def test_every_job_of_a_run_has_its_own_input(tmp_path):
    jobs = workloads.build("invariant", 3, str(tmp_path), passes=2)
    assert len(jobs) == 2 * sum(count for _, _, count in workloads.PASSES["invariant"])
    assert len({job.id for job in jobs}) == len(jobs)
    assert len({job.alg.name for job in jobs}) == len(jobs)
    assert len({job.algebra_path for job in jobs}) == len(jobs)


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_small_jobs_meet_their_expected_outcome(cli, tmp_path, monkeypatch, workload):
    monkeypatch.setitem(workloads.PASSES, workload, SMALL[workload])
    jobs = workloads.build(workload, 5, str(tmp_path))
    assert {job.exit_code for job in jobs} == ({0, 3} if workload == "report" else {0})
    for job in jobs:
        code, out = run.call(cli, job.argv)
        assert workloads.check(workload, job, code, out) == [], job.id


def test_check_catches_a_wrong_answer(cli, tmp_path, monkeypatch):
    monkeypatch.setitem(workloads.PASSES, "invariant", [("par22", None, 1)])
    job = workloads.build("invariant", 0, str(tmp_path))[0]
    code, out = run.call(cli, job.argv)
    assert code == 3 and workloads.check("invariant", job, code, out) == []
    wrong = out.replace(f'"violator": "{job.violator}"', '"violator": "nobody"')
    assert workloads.check("invariant", job, code, wrong)
    assert workloads.check("invariant", job, 0, out)


def test_check_catches_a_wrong_integral(cli, tmp_path, monkeypatch):
    monkeypatch.setitem(workloads.PASSES, "integrate", [("gl11", "(VV*)2", 1)])
    job = workloads.build("integrate", 4, str(tmp_path))[0]
    code, out = run.call(cli, job.argv)
    assert workloads.check("integrate", job, code, out) == []
    result = json.loads(out)
    result["integral_matrix"] = [["0"] * job.module.dim for _ in range(job.module.dim)]
    assert workloads.check("integrate", job, code, json.dumps(result))
    result = json.loads(out)
    result["right_invariant"] = False
    assert workloads.check("integrate", job, code, json.dumps(result))


def _metric_names(kind):
    with open(BENCHMARK, encoding="utf-8") as fh:
        return {m["name"] for m in json.load(fh)[kind]}


@pytest.mark.parametrize("workload", sorted(SMALL))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_metric(monkeypatch, capsys, workload, trace):
    monkeypatch.setitem(workloads.PASSES, workload, SMALL[workload])
    assert run.main(["--workload", workload, "--seed", "11", "--seconds", "1",
                     "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == _metric_names("per_layer" if trace else "end_to_end")


def test_tracer_restores_every_wrapped_function(cli, tmp_path):
    trace = tracer.Tracer()
    trace.assert_clean()
    originals = dict(trace._originals)
    trace.install()
    try:
        with pytest.raises(RuntimeError):
            trace.assert_clean()
        job = workloads.build("invariant", 0, str(tmp_path))
        small = next(j for j in job if j.id.startswith("gl11"))
        code, _ = run.call(cli, small.argv)
    finally:
        trace.uninstall()
    trace.assert_clean()
    for (mod_name, attr), orig in originals.items():
        assert getattr(sys.modules[mod_name], attr) is orig
    assert code == 0
    spans = trace.summary()
    assert spans["cli.main"]["calls"] == 1
    assert spans["enveloping.multiply"]["calls"] > 0
    assert sum(v["self_s"] for v in spans.values()) == pytest.approx(spans["cli.main"]["s"])


def test_tracer_refuses_a_missing_site(cli, monkeypatch):
    monkeypatch.setitem(tracer.SPANS, "cli.gone", ["superhaar.cli:no_such_function"])
    trace = tracer.Tracer()
    assert trace.missing == ["superhaar.cli.no_such_function"]
    with pytest.raises(RuntimeError, match="no_such_function"):
        trace.install()
    trace.assert_clean()
    with pytest.raises(RuntimeError):
        trace._after_frobenius_matrix(object())
    with pytest.raises(RuntimeError):
        trace._after_load_module(object())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCHMARK, tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "invariant",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120,
                          env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0 and proc.stdout == ""


def test_state_kept_across_calls_is_found(cli, monkeypatch):
    before = run.program_state()
    monkeypatch.setattr(sys.modules["superhaar.frobenius"], "_memo", {}, raising=False)
    assert run.program_state() == before | {"superhaar.frobenius._memo": 0}
    sys.modules["superhaar.frobenius"]._memo["key"] = 1
    assert run.program_state()["superhaar.frobenius._memo"] == 1
