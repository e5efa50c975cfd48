"""Stochastic realizations of the renewal dynamics and the series solution.

One realization draws renewal intervals from the waiting-time distribution;
after the n-th event the state is ``E^n[rho0]`` (the unitary part commutes
with the scattering map, so states are piecewise constant between events
and observable sampling on a grid is exact).  The only per-realization
randomness is therefore the event count N(t): every Monte Carlo route
draws counts from one vectorized renewal core and gathers from per-n
tables of ``E^n[rho0]`` computed once.  The ensemble average converges to
``rho(t) = sum_n P_n(t) E^n[rho0]``, which the deterministic series route
evaluates directly from convolution-quadrature renewal probabilities.
"""

from dataclasses import dataclass

import numpy as np
import scipy.fft

from . import seeding
from .errors import BadParametersError, GridTooCoarseError, TruncationError
from .kernels import (
    WaitingTimeDistribution,
    survival_cell_integrals,
    waiting_from_uniforms,
    waiting_survival,
)
from .quantum import SIGMA_X, SIGMA_Y, SIGMA_Z, KrausMap, apply_kraus, as_matrix, linear_entropy

_NORMALIZATION_DRIFT = 1e-4

DRAWS_PER_BLOCK = 16  # waiting times a stream draws per refill


def default_observables(dim: int) -> dict:
    """Pauli set for qubits; nothing but the linear entropy otherwise."""
    if dim == 2:
        return {"M_x": SIGMA_X, "M_y": SIGMA_Y, "M_z": SIGMA_Z}
    return {}


@dataclass(frozen=True)
class Trajectory:
    """One realization: event times plus observable series on the grid."""

    seed: int
    grid: np.ndarray
    event_times: np.ndarray
    observables: dict
    states: np.ndarray | None = None


@dataclass(frozen=True)
class EnsembleStats:
    """Per-grid-point mean and standard error over realizations."""

    n_realizations: int
    grid: np.ndarray
    mean_state: np.ndarray
    observable_means: dict
    observable_stderrs: dict


def _check_grid(grid) -> np.ndarray:
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 1:
        raise BadParametersError("grid must be a nonempty 1-d array")
    if grid[0] < 0 or np.any(np.diff(grid) <= 0):
        raise BadParametersError("grid must be increasing and start at t >= 0")
    return grid


def _renewal_events(waiting: WaitingTimeDistribution, t_end: float, rngs):
    """Every renewal event in (0, t_end] of each stream in `rngs`.

    Each round, every live stream fills one (DRAWS_PER_BLOCK, k) row of raw
    uniforms, k per waiting time and interleaved per draw, which is the
    order of successive scalar ``sample_waiting`` calls.  The rows become
    waiting times in one vectorized call, and each clock is accumulated by
    a cumsum that starts from its running value, so event times round
    exactly as ``clock += tau``.  A stream stays live until its clock
    passes `t_end`; the generators are left just after their last block.
    Returns flat (stream index, event time) arrays.
    """
    width = waiting.uniforms
    clock = np.zeros(len(rngs))
    live = np.arange(len(rngs))
    owners, times = [np.empty(0, dtype=np.intp)], [np.empty(0)]
    while live.size:
        u = np.empty((live.size, DRAWS_PER_BLOCK, width))
        for row, k in zip(u, live):
            rngs[k].random(out=row)
        taus = waiting_from_uniforms(waiting, u)
        clocks = np.cumsum(np.concatenate([clock[live, None], taus], axis=1), axis=1)[:, 1:]
        hit = clocks <= t_end
        owners.append(np.broadcast_to(live[:, None], hit.shape)[hit])
        times.append(clocks[hit])
        clock[live] = clocks[:, -1]
        live = live[clocks[:, -1] <= t_end]
    return np.concatenate(owners), np.concatenate(times)


def renewal_counts(waiting: WaitingTimeDistribution, grid, rngs) -> np.ndarray:
    """Event counts N(t) on `grid`, shape (len(rngs), n_grid), one row per
    generator; each generator is advanced past the draws it supplied."""
    grid = _check_grid(grid)
    owners, times = _renewal_events(waiting, float(grid[-1]), rngs)
    # an event at time s counts at every grid point t >= s
    first = np.searchsorted(grid, times, side="left")
    starts = np.bincount(owners * grid.size + first, minlength=len(rngs) * grid.size)
    return np.cumsum(starts.reshape(len(rngs), grid.size), axis=1)


def event_counts(waiting: WaitingTimeDistribution, grid, n: int, base_seed: int) -> np.ndarray:
    """Event counts of realizations 0..n-1, shape (n, n_grid).

    Row k is the count of stream ``seeding.stream(derive_seed(base_seed, k))``,
    equal to ``searchsorted(draw_event_times(...), grid, side="right")`` of
    that stream.
    """
    if n < 1:
        raise BadParametersError(f"need at least one realization, got n = {n}")
    return renewal_counts(waiting, grid, seeding.realization_streams(base_seed, n))


def draw_event_times(
    waiting: WaitingTimeDistribution, t_end: float, rng: np.random.Generator
) -> np.ndarray:
    """Renewal event times in (0, t_end]; empty array if the first interval
    overshoots.  `rng` is advanced in whole blocks of DRAWS_PER_BLOCK
    waiting times, as in :func:`renewal_counts`."""
    return _renewal_events(waiting, float(t_end), [rng])[1]


def _kraus_powers(emap: KrausMap, rho: np.ndarray, n_max: int) -> np.ndarray:
    """``E^n[rho]`` for n = 0..n_max, shape (n_max+1, d, d)."""
    powers = [rho]
    for _ in range(n_max):
        powers.append(apply_kraus(emap, powers[-1]))
    return np.asarray(powers)


def _assemble(weights: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """States ``sum_n weights[n, k] E^n[rho0]`` per grid point k."""
    return np.einsum("nk,nij->kij", weights, powers)


def count_tables(rho0, emap: KrausMap, n_max: int, observables: dict | None = None):
    """Per-count tables: ``E^n[rho0]`` for n = 0..n_max and each observable
    (default :func:`default_observables`, plus ``linear_entropy``) on them.

    Returns (powers, {name: values of shape (n_max+1,)}); a realization
    with counts N on the grid has series ``table[N]``.
    """
    rho = as_matrix(rho0)
    if observables is None:
        observables = default_observables(rho.shape[0])
    powers = _kraus_powers(emap, rho, n_max)
    tables = {
        name: np.einsum("ij,nji->n", np.asarray(op, dtype=complex), powers).real
        for name, op in observables.items()
    }
    tables["linear_entropy"] = np.array([linear_entropy(s) for s in powers])
    return powers, tables


def run_realization(
    rho0,
    emap: KrausMap,
    waiting: WaitingTimeDistribution,
    grid,
    seed: int,
    observables: dict | None = None,
    store_states: bool = False,
) -> Trajectory:
    """Simulate one realization, fully reproducible from `seed`."""
    grid = _check_grid(grid)
    events = draw_event_times(waiting, float(grid[-1]), seeding.stream(seed))
    # state index per grid point: number of events that occurred by then
    idx = np.searchsorted(events, grid, side="right")
    powers, tables = count_tables(rho0, emap, events.size, observables)
    return Trajectory(
        seed=seed,
        grid=grid,
        event_times=events,
        observables={name: table[idx] for name, table in tables.items()},
        states=powers[idx] if store_states else None,
    )


def ensemble_average(
    rho0,
    emap: KrausMap,
    waiting: WaitingTimeDistribution,
    grid,
    n_realizations: int,
    base_seed: int,
    observables: dict | None = None,
    threads: int | None = None,
) -> EnsembleStats:
    """Monte Carlo mean and standard error over `n_realizations` streams.

    Realization k has the counts of :func:`event_counts`; its observable
    series are gathered from :func:`count_tables` and reduced with numpy
    summation over the gathered (n_realizations, n_grid) arrays.  The mean
    state is ``sum_n P_n(t) E^n[rho0]`` with P_n the empirical count
    distribution.  `threads` is accepted for compatibility and changes
    neither the result nor the work done.
    """
    grid = _check_grid(grid)
    n = n_realizations
    counts = event_counts(waiting, grid, n, base_seed)
    powers, tables = count_tables(rho0, emap, int(counts.max()), observables)
    means, stderrs = {}, {}
    for name, table in tables.items():
        samples = table[counts]  # (n, n_grid)
        mean = np.sum(samples, axis=0) / n
        if n > 1:
            sq = np.sum((samples - mean) ** 2, axis=0)
            stderrs[name] = np.sqrt(sq / (n - 1) / n)
        else:
            stderrs[name] = np.zeros_like(mean)
        means[name] = mean

    histogram = np.bincount(
        (counts * grid.size + np.arange(grid.size)).ravel(), minlength=powers.shape[0] * grid.size
    ).reshape(powers.shape[0], grid.size)
    return EnsembleStats(
        n_realizations=n,
        grid=grid,
        mean_state=_assemble(histogram / n, powers),
        observable_means=means,
        observable_stderrs=stderrs,
    )


@dataclass(frozen=True)
class RenewalProbabilities:
    """Table P_n(t) for n = 0..n_max on a grid, with the truncation tail."""

    grid: np.ndarray
    table: np.ndarray  # (n_max+1, n_grid)
    tail: np.ndarray  # 1 - sum_n P_n per grid point

    @property
    def n_max(self) -> int:
        return self.table.shape[0] - 1


def _fine_grid(grid: np.ndarray, min_points: int):
    """Uniform refinement of [0, t_end] that contains every (uniform) grid
    point exactly; non-uniform grids are interpolated."""
    t_end = float(grid[-1])
    steps = np.diff(grid)
    uniform = grid[0] == 0.0 and steps.size > 0 and np.allclose(steps, steps[0], rtol=1e-9)
    if uniform:
        factor = max(1, int(np.ceil(min_points / (grid.size - 1))))
        n_fine = (grid.size - 1) * factor
        fine = np.linspace(0.0, t_end, n_fine + 1)
        index = np.arange(grid.size) * factor
        return fine, index
    n_fine = max(min_points, 4 * grid.size)
    return np.linspace(0.0, t_end, n_fine + 1), None


def _waiting_cell_weights(waiting, fine: np.ndarray):
    """Product-integration weights of the waiting density on a uniform grid.

    A0[m] = int_cell w, A1[m] = int_cell w (s/h - m): exact in the weight
    (survival differences and first moments), so only the linear
    interpolation of the convolved factor contributes error.  The first
    cell is refined geometrically to absorb an integrable t^(alpha-1)
    singularity.
    """
    h = fine[1] - fine[0]
    edges = fine
    surv = waiting_survival(waiting, edges)
    a0 = surv[:-1] - surv[1:]
    # first moments: int s w ds = [-s S]_a^b + int S ds
    int_s = survival_cell_integrals(waiting, edges)
    s_w = -edges[1:] * surv[1:] + edges[:-1] * surv[:-1] + int_s
    # refine cell 0: the kink (or divergence) of w sits at s = 0
    sub = np.geomspace(h * 1e-8, h, 64)
    sub = np.concatenate([[0.0], sub])
    surv_sub = waiting_survival(waiting, sub)
    int_s0 = survival_cell_integrals(waiting, sub).sum()
    s_w0 = -sub[-1] * surv_sub[-1] + 0.0 + int_s0
    s_w[0] = s_w0
    a1 = s_w / h - np.arange(len(a0)) * a0
    return a0, a1


def renewal_probabilities(
    waiting: WaitingTimeDistribution,
    n_max: int | None,
    grid,
    min_points: int = 32000,
    tail_tol: float = 1e-6,
) -> RenewalProbabilities:
    """P_n(t) by iterated product convolution (FFT accelerated).

    ``P_0`` is the survival function; ``P_n(t) = int_0^t w(t-s) P_{n-1}(s)
    ds`` uses exact cell moments of w against a piecewise-linear P_{n-1}
    (second-order accurate; `min_points` internal cells keep the error
    below ~1e-8 for smooth waiting densities).  When `n_max` is None it
    grows until the tail bound drops below `tail_tol` at the grid end
    (capped at 512).
    """
    grid = _check_grid(grid)
    if grid[-1] <= 0:
        raise BadParametersError("renewal_probabilities needs a grid that reaches past t = 0")
    fine, index = _fine_grid(grid, min_points)
    a0, a1 = _waiting_cell_weights(waiting, fine)

    def restrict(row):
        return row[index] if index is not None else np.interp(grid, fine, row)

    # P_n[k] = sum_{m=0}^{k-1} prev[k-1-m] A1[m] + prev[k-m] (A0[m]-A1[m]):
    # two full linear convolutions by real FFT at the next fast length, with
    # the fixed weights transformed once
    size1 = scipy.fft.next_fast_len(2 * fine.size - 2, True)
    size2 = scipy.fft.next_fast_len(2 * fine.size - 3, True)
    w1 = scipy.fft.rfft(a1, size1)
    w2 = scipy.fft.rfft(a0 - a1, size2)
    prev = waiting_survival(waiting, fine)
    rows = [restrict(prev)]
    total_fine = prev.copy()
    cap = 512 if n_max is None else int(n_max)
    n = 0
    while n < cap:
        c1 = scipy.fft.irfft(scipy.fft.rfft(prev, size1) * w1, size1)[: fine.size - 1]
        c2 = scipy.fft.irfft(scipy.fft.rfft(prev[1:], size2) * w2, size2)[: fine.size - 1]
        nxt = np.zeros_like(prev)
        nxt[1:] = c1 + c2
        nxt = np.clip(nxt, 0.0, None)
        rows.append(restrict(nxt))
        total_fine += nxt
        prev = nxt
        n += 1
        if n_max is None and 1.0 - total_fine[-1] < tail_tol:
            break

    table = np.asarray(rows)
    tail_fine = 1.0 - total_fine
    # self-consistency: the quadrature must not inflate total probability
    drift = max(0.0, float(-tail_fine.min()))
    if drift > _NORMALIZATION_DRIFT:
        raise GridTooCoarseError(
            f"normalization drift {drift:.2e} after {table.shape[0] - 1} convolutions"
        )
    tail = restrict(tail_fine)
    return RenewalProbabilities(grid=grid, table=table, tail=tail)


def series_solution(
    rho0,
    emap: KrausMap,
    waiting: WaitingTimeDistribution,
    grid,
    n_max: int | None = None,
    tol: float = 1e-6,
    min_points: int = 32000,
):
    """Deterministic route: ``rho(t) = sum_n P_n(t) E^n[rho0]``.

    Returns (states, error_bound) where states has shape (n_grid, d, d) and
    the bound is ``tail(t) * max_n ||E^n rho0 - rho_inf||``-style crude
    envelope (the renewal tail times the largest operator spread).
    Raises :class:`TruncationError` when the tail at the grid end exceeds
    `tol` at the allowed truncation.
    """
    grid = _check_grid(grid)
    rho = as_matrix(rho0)
    probs = renewal_probabilities(waiting, n_max, grid, min_points=min_points, tail_tol=tol / 10)
    if probs.tail[-1] > tol:
        raise TruncationError(
            f"renewal tail {probs.tail[-1]:.2e} at t={grid[-1]:g} exceeds tol={tol:g} "
            f"with n_max={probs.n_max}"
        )
    powers = _kraus_powers(emap, rho, probs.n_max)
    states = _assemble(probs.table, powers)
    spread = np.max(np.abs(powers - powers.mean(axis=0)))
    bound = probs.tail * spread
    return states, bound
