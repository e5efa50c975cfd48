"""The correctness gate accepts right answers and rejects NaN and blow-ups."""

import json
import os

import numpy as np
import pytest

import ctqrw.cli
import gate
import jobs
import run

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def subordination_job(alpha):
    name = "subordination-a0.9" if alpha == 0.9 else "subordination-a0.5"
    return next(j for j in jobs.renewal_series(7) if j["name"] == name)


def write_solve_csv(path, t, states):
    header, columns = ctqrw.cli._solution_columns(states, t)
    ctqrw.cli.write_csv(str(path), header, columns)


def reference_states(job, t):
    p = job["params"]
    return gate.qubit_closed_solution(gate.make_model(p["model"]), gate.make_kernel(p["kernel"]),
                                      gate.bloch_state(*p["bloch"]), t).states


@pytest.fixture
def job_and_grid():
    job = subordination_job(0.5)
    return job, np.linspace(0.0, 20.0, 50)


def test_gate_accepts_the_closed_form(tmp_path, job_and_grid):
    job, t = job_and_grid
    write_solve_csv(tmp_path / job["csv"], t, reference_states(job, t))
    assert gate.check_job(job, str(tmp_path), 0) == []


def test_gate_rejects_a_nan_csv(tmp_path, job_and_grid):
    job, t = job_and_grid
    states = reference_states(job, t)
    states[1:] = np.nan
    write_solve_csv(tmp_path / job["csv"], t, states)
    reasons = gate.check_job(job, str(tmp_path), 0)
    assert reasons and "non-finite" in reasons[0]


def test_gate_rejects_a_1e104_csv(tmp_path, job_and_grid):
    job, t = job_and_grid
    states = reference_states(job, t)
    states[10:, 0, 1] = 1e104
    write_solve_csv(tmp_path / job["csv"], t, states)
    reasons = gate.check_job(job, str(tmp_path), 0)
    assert reasons and "1e+104" in reasons[0]


def test_gate_reports_exit_codes_and_missing_files(tmp_path, job_and_grid):
    job, _ = job_and_grid
    assert gate.check_job(job, str(tmp_path), 3) == ["exit code 3"]
    assert "missing" in gate.check_job(job, str(tmp_path), 0)[0]


def test_known_defect_is_checked_at_full_tolerance():
    job = subordination_job(0.9)
    assert job["name"] in jobs.KNOWN_DEFECTS
    assert job["params"]["tol"] == 1e-4 and job["params"]["kernel"]["alpha"] == 0.9


def test_jobs_are_a_function_of_the_seed():
    for workload in jobs.WORKLOADS:
        assert jobs.jobs(workload, 11) == jobs.jobs(workload, 11)
    seeds = [j["ini"] for j in jobs.mc_ensemble(1)], [j["ini"] for j in jobs.mc_ensemble(2)]
    assert all(a != b for a, b in zip(*seeds))


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(REPO, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(jobs.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_metrics()
