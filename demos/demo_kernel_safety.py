"""Safe vs dangerous kernels and the kernel/waiting-time duality.

A kernel is stochastically interpretable exactly when the density
w(tau) it induces through wtilde = Ktilde/(u + Ktilde) is nonnegative.
For the exponential kernel that happens iff gamma^2 >= 4 A_eps; the
classifier also refutes custom transforms through a finite
complete-monotonicity probe, and every dangerous verdict carries a
concrete witness w(t*) < 0.
"""

import numpy as np

from ctqrw import (
    ExponentialKernel,
    FractionalKernel,
    LaplaceKernel,
    MarkovianKernel,
    classify_kernel,
    waiting_from_kernel,
    waiting_pdf,
)
from ctqrw.kernels import kernel_from_waiting

cases = [
    ("Markovian A1=0.5", MarkovianKernel(rate=0.5)),
    ("fractional alpha=0.5", FractionalKernel(amplitude=2**-0.5, alpha=0.5)),
    ("exponential gamma=2, A=0.75", ExponentialKernel(amplitude=0.75, decay=2.0)),
    ("exponential gamma=0.5, A=0.25", ExponentialKernel(amplitude=0.25, decay=0.5)),
    ("custom Ktilde = 0.9 u^0.4", LaplaceKernel(transform=lambda u: 0.9 * u**0.4)),
    ("custom Ktilde = 1/(u+1)", LaplaceKernel(transform=lambda u: 1.0 / (u + 1.0))),
]

for name, kern in cases:
    verdict = classify_kernel(kern)
    print(f"{name:34s} -> {verdict.verdict:16s} {verdict.certificate}")

# duality round trip for a safe kernel
kern = ExponentialKernel(amplitude=0.75, decay=2.0)
w = waiting_from_kernel(kern)
u = np.geomspace(1e-2, 1e2, 7)
print("\nduality round trip (safe exponential kernel):")
print("  Ktilde(u)      :", np.array2string(kern.laplace(u), precision=6))
print("  from waiting   :", np.array2string(kernel_from_waiting(w)(u), precision=6))

# the dangerous witness: the analytically continued density oscillates
bad = ExponentialKernel(amplitude=0.25, decay=0.5)
verdict = classify_kernel(bad)
t_w = verdict.witness["t"]
root = np.sqrt(4 * bad.amplitude - bad.decay**2)
t = np.linspace(0.0, 2 * t_w, 600)
w_cont = 2 * bad.amplitude * np.exp(-bad.decay * t / 2) * np.sin(root * t / 2) / root
print(f"\ndangerous witness: w({t_w:.2f}) = {verdict.witness['w_value']:.3e} < 0")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    raise SystemExit(0)

fig, ax = plt.subplots(figsize=(7, 4))
safe_t = np.linspace(0.0, 12.0, 300)
ax.plot(safe_t, waiting_pdf(w, safe_t), label=r"safe: $\gamma^2 > 4A$ (hypoexponential)")
ax.plot(t, w_cont, label=r"dangerous: $\gamma^2 < 4A$ (oscillates negative)")
ax.axhline(0.0, color="k", lw=0.5)
ax.plot([t_w], [w_cont[np.argmin(np.abs(t - t_w))]], "rv", label="witness $w(t^*) < 0$")
ax.set_xlabel("t")
ax.set_ylabel(r"$w(t)$")
ax.legend()
fig.tight_layout()
fig.savefig("demo_kernel_safety.png", dpi=150)
print("wrote demo_kernel_safety.png")
