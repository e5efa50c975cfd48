"""Four independent routes to the same relaxation curve.

Depolarizing qubit, safe exponential kernel (gamma = 2, A_eps = 0.75):
the renewal-series resummation, the damping-basis closed form (telegraph
h-functions), product-integration Volterra quadrature, and the
subordination solution evaluated in the Laplace domain all coincide.
The same comparison runs for the fractional kernel.
"""

import numpy as np

from ctqrw import (
    Depolarizing,
    ExponentialKernel,
    FractionalKernel,
    closed_form_solve,
    damping_basis,
    lindblad_from_kraus,
    make_density,
    qubit_kraus,
    series_solution,
    subordination_solve,
    telegraph_ode_solve,
    volterra_solve,
    waiting_from_kernel,
)

rho0 = make_density(np.diag([1.0, 0.0]))
emap = qubit_kraus(Depolarizing())
gen = lindblad_from_kraus(emap)
basis = damping_basis(gen)


def m_z(states):
    return states[:, 0, 0].real - states[:, 1, 1].real


for name, kernel in (
    ("exponential (telegraph)", ExponentialKernel(amplitude=0.75, decay=2.0)),
    ("fractional alpha = 1/2", FractionalKernel(amplitude=1 / np.sqrt(2), alpha=0.5)),
):
    scale = 2.0 / 0.75 if "exp" in name else 2.0
    grid = np.linspace(0.0, 10.0 * scale, 2001)
    closed = closed_form_solve(basis, kernel, rho0, grid)
    routes = {
        "volterra": volterra_solve(gen, kernel, rho0, grid),
        "series": series_solution(rho0, emap, waiting_from_kernel(kernel), grid, tol=1e-7)[0],
        "subordination": subordination_solve(kernel, basis, rho0, grid[:: 8]),
    }
    if isinstance(kernel, ExponentialKernel):
        routes["telegraph ODE"] = telegraph_ode_solve(gen, kernel, rho0, grid)
    print(f"{name}:")
    for rname, states in routes.items():
        ref = closed if states.shape[0] == grid.size else closed[:: 8]
        print(f"  {rname:14s} max |deviation from closed form| = {np.max(np.abs(states - ref)):.2e}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    raise SystemExit(0)

kernel = ExponentialKernel(amplitude=0.75, decay=2.0)
grid = np.linspace(0.0, 10.0 * 2.0 / 0.75, 401)
closed = closed_form_solve(basis, kernel, rho0, grid)
vol = volterra_solve(gen, kernel, rho0, grid)
ser = series_solution(rho0, emap, waiting_from_kernel(kernel), grid, tol=1e-7)[0]
sub = subordination_solve(kernel, basis, rho0, grid[:: 8])

fig, ax = plt.subplots(figsize=(7, 4))
tt = grid * 0.75 / 2.0
ax.plot(tt, m_z(closed), "-", label="closed form (h-functions)")
ax.plot(tt, m_z(vol), "--", label="Volterra quadrature")
ax.plot(tt, m_z(ser), ":", label="renewal series")
ax.plot(tt[:: 8], m_z(sub), "o", ms=3, label="subordination")
ax.set_xlabel(r"$t/T$")
ax.set_ylabel(r"$M_z(t)$")
ax.legend()
fig.tight_layout()
fig.savefig("demo_route_agreement.png", dpi=150)
print("wrote demo_route_agreement.png")
