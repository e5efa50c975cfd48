"""Stochastic realizations of the renewal dynamics and the series solution.

One realization draws renewal intervals from the waiting-time distribution;
after the n-th event the state is ``E^n[rho0]`` (the unitary part commutes
with the scattering map, so states are piecewise constant between events
and observable sampling on a grid is exact).  The only per-realization
randomness is therefore the event count N(t): every Monte Carlo route
draws events from one vectorized renewal core and gathers from per-n
tables of ``E^n[rho0]`` computed once.  The ensemble average converges to
``rho(t) = sum_n P_n(t) E^n[rho0]``, which the deterministic series route
evaluates directly.  Ensemble statistics are read from the flat event list
(each event's realization, number and first grid cell) through the
empirical count law, with no (realizations x grid) count matrix; only
:func:`event_counts` forms per-realization count rows, for per-realization
output and the walkers' positions.  A waiting law's count law P_n(t) is its
dual kernel's decay factor at rate 1 - z, expanded in z: closed-form for
the Markovian and exponential kernels, else a certified fixed-Talbot
inversion.
"""

import numpy as np

from . import seeding
from ._record import record
from .errors import BadParametersError, DomainError, TruncationError
from .kernels import WaitingTimeDistribution, _check_count, _check_positive
from .quantum import SIGMA_X, SIGMA_Y, SIGMA_Z, KrausMap, apply_kraus, as_matrix, linear_entropy

DRAWS_PER_BLOCK = 8  # waiting times drawn per live realization and round


def default_observables(dim: int) -> dict:
    """Pauli set for qubits; nothing but the linear entropy otherwise."""
    if dim == 2:
        return {"M_x": SIGMA_X, "M_y": SIGMA_Y, "M_z": SIGMA_Z}
    return {}


@record
class Trajectory:
    """Realization `index` of the run seeded `seed`: event times plus
    observable series on the grid."""

    seed: int
    index: int
    grid: np.ndarray
    event_times: np.ndarray
    observables: dict
    states: np.ndarray | None = None


@record
class EnsembleStats:
    """Per-grid-point mean and standard error over realizations."""

    n_realizations: int
    grid: np.ndarray
    mean_state: np.ndarray
    observable_means: dict
    observable_stderrs: dict


def check_grid(grid, uniform: bool = False) -> np.ndarray:
    """`grid` as a float array once it is 1-d, nonempty, finite, increasing
    and starts at t >= 0; with `uniform`, also at least two points from
    t = 0 in equal steps (to 1e-9 relative), as the stepping solvers need.
    Raises :class:`BadParametersError` otherwise.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 1:
        raise BadParametersError("grid must be a nonempty 1-d array")
    if not np.isfinite(grid).all():
        raise BadParametersError("grid must be finite")
    steps = np.diff(grid)
    if grid[0] < 0 or np.any(steps <= 0):
        raise BadParametersError("grid must be increasing and start at t >= 0")
    if uniform and (
        grid.size < 2 or grid[0] != 0.0 or not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0)
    ):
        raise BadParametersError("this solver needs a uniform grid of at least two points starting at 0")
    return grid


def _renewal_events(waiting: WaitingTimeDistribution, t_end: float, base_seed: int, realizations):
    """Every renewal event in (0, t_end] of each realization in `realizations`.

    Waiting time j of realization k comes from ``seeding.uniforms(base_seed,
    k, j, WAITING_LANE, waiting.uniforms)``.  Each round draws the next
    DRAWS_PER_BLOCK waiting times of every live realization in one call,
    and each clock is accumulated along its row, starting from its running
    value plus the first wait, so event times round exactly as
    ``clock += tau``.  A realization stays live until its clock passes
    `t_end`.  Returns flat (position in `realizations`, event number, event
    time) arrays; the number of an event is its draw index + 1, as every
    wait drawn before `t_end` ends in an event.
    """
    if not np.isfinite(t_end):
        raise BadParametersError(f"the renewal horizon must be finite, got {t_end}")
    realizations = np.asarray(realizations)
    clock = np.zeros(realizations.size)
    live = np.arange(realizations.size)
    owners, numbers = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]
    times = [np.empty(0)]
    first = 0
    while live.size:
        draws = np.arange(first, first + DRAWS_PER_BLOCK)
        u = seeding.uniforms(
            base_seed, realizations[live, None], draws, seeding.WAITING_LANE, waiting.uniforms
        )
        clocks = waiting.from_uniforms(u)
        clocks[:, 0] += clock[live]
        for c in range(1, DRAWS_PER_BLOCK):  # cumsum by columns: faster on short rows
            clocks[:, c] += clocks[:, c - 1]
        # rows are nondecreasing, so each row's hits are a prefix of it
        hit = clocks <= t_end
        per_row = np.count_nonzero(hit, axis=1)
        owners.append(np.repeat(live, per_row))
        ends = np.cumsum(per_row)
        numbers.append(np.arange(first + 1, first + 1 + ends[-1]) - np.repeat(ends - per_row, per_row))
        times.append(clocks[hit])
        clock[live] = clocks[:, -1]
        live = live[hit[:, -1]]
        first += DRAWS_PER_BLOCK
    return np.concatenate(owners), np.concatenate(numbers), np.concatenate(times)


def _first_cells(grid: np.ndarray, times: np.ndarray) -> np.ndarray:
    """``searchsorted(grid, times, side="left")`` for unsorted `times` on an
    increasing `grid`: each cell is guessed from the mean grid step and
    checked, ``grid[i-1] < t <= grid[i]``; only the times whose guess fails
    the check are searched.  On an equal-step grid the guess fails only
    within rounding of a grid point."""
    edges = np.concatenate([[-np.inf], grid, [np.inf]])  # edges[i] = grid[i - 1]
    with np.errstate(all="ignore"):  # 0/0 on a one-point grid, overflow on a subnormal span
        scale = (grid.size - 1) / (grid[-1] - grid[0])
        guess = times - grid[0]
        guess *= scale if np.isfinite(scale) else 0.0
    cell = np.clip(np.ceil(guess, out=guess), 0, grid.size, out=guess).astype(np.intp)
    wrong = np.flatnonzero((edges[cell] >= times) | (edges[cell + 1] < times))
    cell[wrong] = np.searchsorted(grid, times[wrong], side="left")
    return cell


def _grid_events(waiting: WaitingTimeDistribution, grid: np.ndarray, n: int, base_seed: int):
    """Every event of realizations 0..n-1 of the run seeded `base_seed` up
    to the end of the checked `grid`, as flat (realization, event number,
    first grid cell) arrays: an event at time s counts at every grid point
    t >= s, from cell ``searchsorted(grid, s, side="left")`` on."""
    owners, numbers, times = _renewal_events(waiting, float(grid[-1]), base_seed, np.arange(n))
    return owners, numbers, _first_cells(grid, times)


def event_counts(waiting: WaitingTimeDistribution, grid, n: int, base_seed: int) -> np.ndarray:
    """Event counts N(t) on `grid` of realizations 0..n-1 of the run seeded
    `base_seed`, shape (n, n_grid).

    Row k depends on (base_seed, k) alone: it equals
    ``searchsorted(draw_event_times(waiting, grid[-1], base_seed, k), grid,
    side="right")`` for any n > k.
    """
    _check_count("n", n)
    grid = check_grid(grid)
    owners, _, first = _grid_events(waiting, grid, n, base_seed)
    starts = np.bincount(owners * grid.size + first, minlength=n * grid.size)
    return np.cumsum(starts.reshape(n, grid.size), axis=1)


def _count_histogram(waiting: WaitingTimeDistribution, grid: np.ndarray, n: int, base_seed: int):
    """Entry [c, i]: how many of realizations 0..n-1 have N(grid[i]) = c,
    c = 0..max count, read from the event list.  N(t) >= c once event
    number c has happened, so the realizations with N(grid[i]) >= c are
    the events numbered c in cells up to i."""
    _, numbers, first = _grid_events(waiting, grid, n, base_seed)
    rows = int(numbers.max(initial=0)) + 1
    starts = np.bincount(numbers * grid.size + first, minlength=rows * grid.size)
    at_least = np.cumsum(starts.reshape(rows, grid.size), axis=1)
    at_least[0] = n  # numbers start at 1
    return -np.diff(at_least, axis=0, append=0)  # at_least[c] - at_least[c + 1]


def draw_event_times(
    waiting: WaitingTimeDistribution, t_end: float, seed: int, index: int = 0
) -> np.ndarray:
    """Renewal event times in (0, t_end] of realization `index` of the run
    seeded `seed`; empty if the first interval overshoots."""
    if index < 0:
        raise BadParametersError(f"realization index must be >= 0, got {index}")
    return _renewal_events(waiting, float(t_end), seed, [index])[2]


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
    tables["linear_entropy"] = linear_entropy(powers)
    return powers, tables


def run_realization(
    rho0,
    emap: KrausMap,
    waiting: WaitingTimeDistribution,
    grid,
    seed: int,
    index: int = 0,
    observables: dict | None = None,
    store_states: bool = False,
) -> Trajectory:
    """Realization `index` of the run seeded `seed`: the same events as row
    `index` of :func:`event_counts` for that seed."""
    grid = check_grid(grid)
    events = draw_event_times(waiting, float(grid[-1]), seed, index)
    # state index per grid point: number of events that occurred by then
    idx = np.searchsorted(events, grid, side="right")
    powers, tables = count_tables(rho0, emap, events.size, observables)
    return Trajectory(
        seed=seed,
        index=index,
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
) -> EnsembleStats:
    """Monte Carlo mean and standard error over `n_realizations` realizations.

    Realization k has the counts of :func:`event_counts`.  Every statistic
    is read off their histogram, the empirical count law ``Phat_n(t)``: an
    observable with per-count values ``table`` (:func:`count_tables`) has
    mean ``sum_n table[n] Phat_n(t)`` and squared deviation ``n_real sum_n
    (table[n] - mean)^2 Phat_n(t)``, and the mean state is ``sum_n Phat_n(t)
    E^n[rho0]``.  The histogram is read from the event list
    (:func:`_count_histogram`), with no count matrix.
    """
    _check_count("n_realizations", n_realizations)
    grid = check_grid(grid)
    n = n_realizations
    histogram = _count_histogram(waiting, grid, n, base_seed)
    powers, tables = count_tables(rho0, emap, histogram.shape[0] - 1, observables)
    means, stderrs = {}, {}
    for name, table in tables.items():
        mean = table @ histogram / n
        if n > 1:
            sq = ((table[:, None] - mean) ** 2 * histogram).sum(axis=0)
            stderrs[name] = np.sqrt(sq / (n - 1) / n)
        else:
            stderrs[name] = np.zeros_like(mean)
        means[name] = mean
    return EnsembleStats(
        n_realizations=n,
        grid=grid,
        mean_state=_assemble(histogram / n, powers),
        observable_means=means,
        observable_stderrs=stderrs,
    )


@record
class RenewalProbabilities:
    """Table P_n(t) for n = 0..n_max on a grid, with the truncation tail."""

    grid: np.ndarray
    table: np.ndarray  # (n_max+1, n_grid)
    tail: np.ndarray  # 1 - sum_n P_n per grid point

    @property
    def n_max(self) -> int:
        return self.table.shape[0] - 1


def renewal_probabilities(
    waiting: WaitingTimeDistribution,
    n_max: int | None,
    grid,
    min_points: int | None = None,
    tail_tol: float = 1e-6,
) -> RenewalProbabilities:
    """P_n(t) for n = 0..n_max from the waiting law's
    :meth:`~ctqrw.kernels.WaitingTimeDistribution.renewal_table`, its dual
    kernel's count law.

    Every grid point is computed directly (a certified Laplace inversion,
    or a closed-form generating function).  When `n_max` is None the
    row count doubles from 16 until the tail at the grid end drops below
    `tail_tol` (capped at 512 rows; the end point alone is tabulated while
    it doubles).  The table is built once, up to the first row of the
    last end-point table that gets the tail there, and cut after the first
    row of its own end point that does (at the cap, or by rounding).  A
    table that is not finite, or a floating-point fault while tabulating
    it (times at the ends of the float range), raises
    :class:`DomainError`.  `min_points` is ignored: it sized the fine grid
    of an earlier convolution quadrature, and is accepted only because
    ``benchmarks/gate.py`` still passes it.  Raises
    :class:`BadParametersError` unless `tail_tol` is finite and > 0.
    """
    _check_positive(tail_tol=tail_tol)
    grid = check_grid(grid)
    if grid[-1] <= 0:
        raise BadParametersError("renewal_probabilities needs a grid that reaches past t = 0")
    if n_max is not None:
        if not n_max >= 0:
            raise BadParametersError(f"n_max must be >= 0, got {n_max}")
        table = waiting.renewal_table(grid, int(n_max) + 1)
    else:
        rows = 16
        while rows < 512:
            end = waiting.renewal_table(grid[-1:], rows)[:, 0]
            reached = np.flatnonzero(1.0 - np.cumsum(end) < tail_tol)
            if reached.size:
                rows = int(reached[0]) + 1
                break
            rows *= 2
        table = waiting.renewal_table(grid, rows)
        reached = np.flatnonzero(1.0 - np.cumsum(table[:, -1]) < tail_tol)
        table = table[: reached[0] + 1] if reached.size else table
    if not np.all(np.isfinite(table)):
        raise DomainError(f"the renewal count law is not finite on this grid (t up to {grid[-1]:g})")
    table = np.clip(table, 0.0, None)  # rounding negatives
    return RenewalProbabilities(grid=grid, table=table, tail=1.0 - table.sum(axis=0))


def series_solution(
    rho0,
    emap: KrausMap,
    waiting: WaitingTimeDistribution,
    grid,
    n_max: int | None = None,
    tol: float = 1e-6,
):
    """Deterministic route: ``rho(t) = sum_n P_n(t) E^n[rho0]``.

    Returns (states, error_bound) where states has shape (n_grid, d, d) and
    the bound is ``tail(t) * max_n ||E^n rho0 - rho_inf||``-style crude
    envelope (the renewal tail times the largest operator spread).
    Raises :class:`TruncationError` when the tail at the grid end exceeds
    `tol` at the allowed truncation, and :class:`BadParametersError` unless
    `tol` is finite and > 0.
    """
    _check_positive(tol=tol)
    grid = check_grid(grid)
    rho = as_matrix(rho0)
    probs = renewal_probabilities(waiting, n_max, grid, tail_tol=tol / 10)
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
