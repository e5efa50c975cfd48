"""Tracer install/restore, self-time accounting and return-value counts."""

import sys

import numpy as np

import ctqrw
import ctqrw.cli
from ctqrw import engine, models, quantum, seeding
from ctqrw.kernels import FractionalKernel, waiting_from_kernel
from ctqrw.models import Depolarizing, qubit_kraus
from tracing import Tracer

PLUS_X = 0.5 * np.array([[1, 1], [1, 1]], dtype=complex)


def ctqrw_bindings(fn):
    return [(name, attr) for name, mod in sys.modules.items()
            if mod is not None and (name == "ctqrw" or name.startswith("ctqrw."))
            for attr, value in vars(mod).items() if value is fn]


def test_install_rebinds_every_name_and_restore_puts_originals_back():
    original_kraus = quantum.apply_kraus
    original_stream = seeding.stream
    holders = ctqrw_bindings(original_kraus)
    assert ("ctqrw.engine", "apply_kraus") in holders and ("ctqrw", "apply_kraus") in holders

    tracer = Tracer().install()
    try:
        assert quantum.apply_kraus is not original_kraus
        assert engine.apply_kraus is quantum.apply_kraus
        assert ctqrw.apply_kraus is quantum.apply_kraus
        assert models.stream is seeding.stream is not original_stream
        assert not ctqrw_bindings(original_kraus)
    finally:
        tracer.restore()
    assert ctqrw_bindings(original_kraus) == holders
    assert seeding.stream is original_stream and models.stream is original_stream


def test_self_times_sum_to_the_root_span_on_one_thread():
    waiting = waiting_from_kernel(FractionalKernel(amplitude=1.0, alpha=0.5))
    emap = qubit_kraus(Depolarizing())
    grid = np.linspace(0.0, 4.0, 20)
    tracer = Tracer().install()
    try:
        tracer.job = "root"
        tracer.span("root", engine.ensemble_average, PLUS_X, emap, waiting, grid,
                    n_realizations=30, base_seed=5)
    finally:
        tracer.restore()
    root = [s for s in tracer.spans if s[1] == "root"][0]
    total_self = sum(s for _, s in tracer.self_times().values())
    assert abs(total_self - (root[3] - root[2])) < 1e-9
    assert tracer.self_times()["engine.run_realization"][0] == 30
    assert all(s[4] != 0 for s in tracer.spans if s[1] != "root")


def test_counts_come_from_arguments_and_return_values():
    waiting = waiting_from_kernel(FractionalKernel(amplitude=1.0, alpha=0.5))
    emap = qubit_kraus(Depolarizing())
    grid = np.linspace(0.0, 4.0, 20)
    tracer = Tracer().install()
    try:
        trajs = [engine.run_realization(PLUS_X, emap, waiting, grid, seed=k) for k in range(25)]
    finally:
        tracer.restore()
    metrics = tracer.layer_metrics()
    events = sum(len(t.event_times) for t in trajs)
    assert metrics["engine.events"] == events
    assert metrics["quantum.apply_kraus.calls"] == events
    # one draw per event plus the one that overshoots, per realization
    assert metrics["kernels.sample_waiting.draws"] == events + 25
    assert metrics["kernels.draws_used_frac"] == events / (events + 25)
    # inputs E^n[rho0], n < max events; depolarizing maps every n >= 1 to I/2
    inputs, rho = set(), PLUS_X
    for _ in range(max(len(t.event_times) for t in trajs)):
        inputs.add(rho.tobytes())
        rho = quantum.apply_kraus(emap, rho)
    assert len(inputs) == 2
    assert metrics["quantum.apply_kraus.distinct_frac"] == len(inputs) / events


def test_traced_cli_output_is_byte_identical(tmp_path):
    ini = tmp_path / "job.ini"
    ini.write_text("[experiment]\nkind = ensemble\nseed = 3\n[model]\ntype = depolarizing\n"
                   "[kernel]\ntype = fractional\namplitude = 1.0\nalpha = 0.5\n"
                   "[ensemble]\nn_realizations = 40\n[grid]\nn_points = 30\n")
    assert ctqrw.cli.run(str(ini), str(tmp_path / "plain")) == 0
    tracer = Tracer().install()
    try:
        assert ctqrw.cli.run(str(ini), str(tmp_path / "traced")) == 0
    finally:
        tracer.restore()
    plain = (tmp_path / "plain" / "output.csv").read_bytes()
    assert plain == (tmp_path / "traced" / "output.csv").read_bytes()
    assert tracer.layer_metrics()["cli.write_csv.rows"] == 30
