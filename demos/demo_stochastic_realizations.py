"""Stochastic realizations of the renewal walk and their ensemble average.

A depolarizing scattering map driven by the heavy-tailed Mittag-Leffler
waiting law (fractional kernel, alpha = 1/2).  Individual realizations show
the two hallmark behaviors: M_x and M_y collapse to zero at the first
event and stay there, while M_z flips sign at every event, with waiting
times of every magnitude (no characteristic scale).  The ensemble mean of
M_x relaxes as E_{1/2}(-A sqrt(t)).
"""

import numpy as np

from ctqrw import (
    Depolarizing,
    FractionalKernel,
    ensemble_average,
    make_density,
    mittag_leffler,
    qubit_kraus,
    run_realization,
    waiting_from_kernel,
)

AMP = 1.0 / np.sqrt(2.0)
kernel = FractionalKernel(amplitude=AMP, alpha=0.5)
waiting = waiting_from_kernel(kernel)
emap = qubit_kraus(Depolarizing())

# initial state with all three Bloch components populated
n = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
rho0 = make_density(
    0.5
    * (
        np.eye(2)
        + n[0] * np.array([[0, 1], [1, 0]])
        + n[1] * np.array([[0, -1j], [1j, 0]])
        + n[2] * np.diag([1.0, -1.0])
    )
)

grid = np.linspace(0.0, 20.0, 400)  # t/T in [0, 10], T = A^(-1/alpha) = 2

SEED = 1
print(f"realizations 0..2 of the ensemble seeded {SEED}:")
trajs = []
for k in range(3):
    traj = run_realization(rho0, emap, waiting, grid, seed=SEED, index=k)
    trajs.append(traj)
    times = ", ".join(f"{t:.2f}" for t in traj.event_times[:6])
    print(f"  realization {k}: {traj.event_times.size} events at t = [{times} ...]")

stats = ensemble_average(rho0, emap, waiting, grid, n_realizations=10_000, base_seed=SEED)
analytic = n[0] * mittag_leffler(0.5, AMP * np.sqrt(grid))
gap = np.abs(stats.observable_means["M_x"] - analytic)
print(
    f"ensemble of 10^4: max |mean M_x - E_1/2 closed form| = {gap.max():.2e}"
    f" (3 stderr <= {3 * stats.observable_stderrs['M_x'].max():.2e})"
)

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    raise SystemExit(0)

fig, axes = plt.subplots(2, 1, figsize=(7, 7), sharex=True)
for traj, color in zip(trajs, ("C0", "C1", "C2")):
    axes[0].step(grid / 2.0, traj.observables["M_z"] / n[2], where="post", color=color, lw=1)
axes[0].set_ylabel(r"$M_z(t)/M_z(0)$ per realization")
axes[0].set_ylim(-1.15, 1.15)

axes[1].plot(grid / 2.0, stats.observable_means["M_x"], "o", ms=2.5, label=r"ensemble mean $M_x$")
axes[1].plot(grid / 2.0, analytic, "-", label=r"$M_x(0)\,E_{1/2}(-A\sqrt{t})$")
axes[1].set_xlabel(r"$t/T$")
axes[1].set_ylabel(r"$M_x(t)$")
axes[1].legend()
fig.tight_layout()
fig.savefig("demo_stochastic_realizations.png", dpi=150)
print("wrote demo_stochastic_realizations.png")
