"""Time integration of the gradient flow.

The stiff linear part (D d_xx - 1) is integrated exactly per Fourier mode
with its integrating factor, while the nonlocal production term
kappa e^u / int e^u is treated explicitly (exponential Euler).  The scheme
is first-order accurate overall, exact on the linear equation when the
production term is absent, and preserves the constant steady state to
round-off.  Because the mode-0 forcing is exactly kappa, the recorded mass
follows the exact law m(t) = kappa + (m0 - kappa) e^(-t) to round-off.

One fused step serves two loops.  ``simulate`` takes fixed steps for
trajectory-accurate runs.  The relaxation behind
:func:`mechmorph.steady.relax_to_steady` adapts its step to the energy J,
the flow's Lyapunov function: fixed points of exponential Euler are exact
steady states for any step, so only the energy needs to control the step.
Each state's e^(u - max u) is computed once and gives both J at that state
and the production term of the step that leaves it.  Both loops refuse a
step that leaves the exp() guard by one rule, ``_refusal``: a
DivergenceError carrying the last finite state if the step went
non-finite, else the guard's AmplitudeOverflowError.  ``simulate`` raises
it; the relaxation halves a longer step and ends the row with it at dt.

The step advances one state, or a stack of states that share one grid
and one ``ModelParams``: the transforms, the reductions and the dot of J
run along the last axis, so a numpy call costs about the same for four
rows as for one.  ``simulate`` and ``relax_to_steady`` step one state, as
1-d arrays with 0-d extremes on numpy's fast paths, and so does a stack
once it is down to one row; a sweep cell relaxes its seeds as one stack
(``_relax_stack``), in which each row keeps its own step length,
decisions, budget, flow time and detector, and leaves when it converges,
runs out of budget or fails (keeping its exception).  Every row
is bit-identical to its start relaxed alone: each numpy loop computes a row
as it computes one state (J takes ``np.vecdot``, the BLAS dot of
``np.dot``, per row), and the mean of e^(u - max u), its ``np.log`` and
J's tail are plain float arithmetic per row.

A step is 12 numpy calls: kappa times the density, rfft, the two
integrating-factor products and their sum, irfft, max and min; then the
shift, exp and sum of e^(u - max u) and the division into the density
(``produce``).  The relaxation adds J's weighted product and dot at every
step (``evaluate``), since its acceptance reads J; the detector adds three
when its threshold is positive (the rate is >= 0, so a threshold <= 0
could never fire).  Every array operation writes into a preallocated slot,
or into reaction and energy buffers, given as its positional output (a
keyword ``out=`` is parsed anew at every call).  The slots form a ring: a
step writes only into the slot after its start, so a rejected step leaves
the accepted state intact; rows rejected while others are accepted are
copied back.  Each slot has its own row of rfft; the grid values, density
and extremes alternate between two sets of buffers.  The transforms are
:func:`mechmorph.grid.rfft` and ``irfft``, numpy's pocketfft gufuncs
(numpy >= 2.0) called directly: at n = 256 the ``np.fft`` wrapper took
about half of each transform.  One max and one min give the finiteness
check (NaN and +-inf propagate through them), the exp() range guard, the
shift of the exponential and the recorded extremes.  J is one dot over the
rfft, with the gradient term and, by Parseval, int u^2 in its weights.
A stack takes these extremes and the detector's max as reductions along
its rows, and J by ``np.vecdot``.  One state takes the values at
``argmax`` and ``argmin`` (both return the first NaN, so NaN still fails
the guard) and J by ``np.dot``, the same BLAS dot: at n = 256 an extreme
costs 0.3 us instead of 0.8 us for a reduction into a 0-d output, and the
dot 0.5 us instead of 0.65 us.  The bits are the same but for the sign
of an extreme of exactly zero where both zeros occur (the max of
[-0.0, 0.0] is 0.0, the value at its argmax -0.0), which only a recorded
``max_u``/``min_u`` shows.

``simulate`` never reads J to take a step, so it takes J in blocks.  Its
ring holds the rfft of up to RING_ROWS = 64 consecutive states in at most
RING_FLOATS = 2^16 floats; a step keeps only its max u and its mean of
e^(u - max u), as floats.  Every 63 steps at n = 256 (``depth`` - 1), at
the last step and where the detector fires, ``energies`` gives the J of
every state in the ring at once: one ``np.vecdot`` over the ring rows, one
``np.log`` over the means and J's tail elementwise, each bit-identical to
its state's ``evaluate``.  From them come the block's largest increment
and the energies of its records.

The step functions are closures over the slots, the buffers, kappa, n, the
ufuncs and the transforms, bound once per buffer allocation (when the
stepper is built, and again when ``keep`` shrinks a stack), with the
one-state or stack form of the extremes, J and the detector chosen
there.  ``simulate`` resolves its fixed dt to the integrating factors
once; per step it keeps only the exp() guard, the detector and the record
test: about 11 us per step at n = 256 (``BENCH_block_energy.json``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._operators import (
    EXP_GUARD,
    density,
    energy_weights,
    exp_range_error,
    quadratic_energy,
)
from .errors import AmplitudeOverflowError, ConfigurationError, DivergenceError, MechmorphError
from .grid import Field, Grid, irfft, rfft
from .model import ModelParams, check_count

__all__ = ["TrajectorySummary", "simulate", "strain_field"]


@dataclass(frozen=True)
class TrajectorySummary:
    """Recorded diagnostics of one trajectory.

    ``max_energy_increment`` is the largest single-step energy increase seen
    over the whole run (round-off scale for a gradient flow), checked over
    every internal step, not only at recording times: the energies of a
    block of consecutive steps are taken at once, at the block's end, and
    each block's first increment starts from the last state of the one
    before.
    """

    times: np.ndarray
    masses: np.ndarray
    energies: np.ndarray
    max_values: np.ndarray
    min_values: np.ndarray
    final_state: Field
    step_count: int
    converged: bool
    max_energy_increment: float


MAX_STEP = 0.5  # stability guard on the step length
ENERGY_SLACK = 8.0 * np.finfo(float).eps  # round-off allowance of the energy rule, relative
STEP_SLACK = 4.0 * np.finfo(float).eps  # relative round-off of t_end / dt that adds no step
# a fixed-dt trajectory takes J in blocks: the rfft of up to RING_ROWS
# consecutive states, in at most RING_FLOATS floats (64 rows up to n = 1022,
# 6 at n = 8192); the block's weighted product takes as many again
RING_ROWS = 64
RING_FLOATS = 2**16


def _tiled(a: np.ndarray, rows: int) -> np.ndarray:
    """rows copies of the 1-d array a, stacked; a itself for one row."""
    return a if rows == 1 else np.repeat(a[None], rows, axis=0)


def _fit(a: np.ndarray, rows: int) -> np.ndarray:
    """The first rows of a stacked array; for one row, a 1-d view."""
    return a[0] if rows == 1 else a[:rows]


_STATE = ("u_hat", "values", "density", "top", "bottom")


class _Slot:
    """One state of the stack in the stepper's ring, and what the step reads from it.

    ``u_hat`` is the slot's own row of the ring.  The grid values, density
    and extremes are one of two sets of buffers, which ring neighbours never
    share (``twin`` hands over its set).  A stack of B rows holds (B, n)
    arrays and (B,) extremes, one state 1-d arrays and 0-d extremes;
    ``top_col`` broadcasts the maxima over the values.  ``energy`` is J, a
    float for one state and a list for a stack; each evaluation binds a new
    one.  ``index`` is the slot's row in the ring.
    """

    __slots__ = (*_STATE, "u_hat_float", "top_col", "energy", "index")

    def __init__(self, u_hat: np.ndarray, index: int, n: int, twin: _Slot | None = None):
        lead = u_hat.shape[:-1]
        self.u_hat, self.index = u_hat, index
        self.u_hat_float = u_hat.view(float)  # real and imaginary parts, interleaved
        if twin is None:
            self.values = np.empty((*lead, n))
            self.density = np.empty((*lead, n))  # e^u / int e^u
            self.top = np.empty(lead)  # max u
            self.bottom = np.empty(lead)  # min u
            self.top_col = self.top[:, None] if lead else self.top
        else:
            self.values, self.density = twin.values, twin.density
            self.top, self.bottom, self.top_col = twin.top, twin.bottom, twin.top_col
        self.energy = [math.nan] * lead[0] if lead else math.nan

    def extremes(self):
        """(max u, min u) of each row, in order."""
        return zip(self.top.reshape(-1).tolist(), self.bottom.reshape(-1).tolist())

    def energies(self) -> list[float]:
        return self.energy if isinstance(self.energy, list) else [self.energy]

    def row(self, r: int) -> np.ndarray:
        """The grid values of row r."""
        return self.values if self.values.ndim == 1 else self.values[r]

    def copy_rows(self, other: _Slot, rows: list[int]) -> None:
        """Copy the given rows of the stack other, energies included."""
        for name in _STATE:
            getattr(self, name)[rows] = getattr(other, name)[rows]
        for r in rows:
            self.energy[r] = other.energy[r]


def _refusal(top: float, bottom: float, grid: Grid, last: np.ndarray, t: float,
             flow: str) -> MechmorphError:
    """The error of a step to extremes (top, bottom) beyond the exp() guard:
    a DivergenceError of the named flow at time t, carrying the last finite
    state (grid values ``last``), if the step went non-finite, else the
    guard's AmplitudeOverflowError."""
    # NaN propagates through max and min, and +-inf lands in one of them
    if math.isfinite(top) and math.isfinite(bottom):
        return exp_range_error(max(top, -bottom))
    return DivergenceError(f"{flow} diverged at t = {t:.6g}", last_state=Field(grid, last), t=t)


class _Stepper:
    """Exponential-Euler steps of a stack of states, or of one state, on
    one (grid, params), along a ring of ``depth`` slots.

    A step writes only into the slot after its start, so a rejected step
    leaves the accepted state intact.  Depth 2, the two slots the
    relaxation and the stacks alternate between, holds a start and its
    step; a fixed-dt trajectory keeps the rfft of ``depth`` consecutive
    states of one state (``energies``).  The integrating factors are
    cached per step length, and rows may step with different lengths.
    ``_bind`` binds ``advance``, ``produce``, ``evaluate``, ``change`` and
    ``energies``, and the extremes rule ``start`` shares with ``advance``;
    no reference to the stepper is among their locals, so no cycle keeps
    it alive.
    """

    def __init__(self, grid: Grid, params: ModelParams, dt: float, rows: int = 1,
                 depth: int = 2):
        if not (dt > 0.0):
            raise ConfigurationError(f"dt must be positive, got {dt}")
        if dt > MAX_STEP:
            raise ConfigurationError(f"dt = {dt} exceeds the stability guard {MAX_STEP:g}")
        self.n = grid.n_points
        self.kappa = params.kappa
        self._decay = -(1.0 + params.D * grid.laplacian_eigenvalues)
        # the arrays that multiply the stack are tiled to its rows: operands
        # of one shape take numpy's fast path, and broadcasting does not
        self.rows, self.depth = rows, depth
        self._weights = _tiled(energy_weights(grid, params.D), rows)
        self._factors = {}  # step length h -> factors(h)
        self._bind()

    def _bind(self) -> None:
        """Buffers for ``rows`` states (1-d for one), and the step functions over them."""
        n, kappa, weights, depth = self.n, self.kappa, self._weights, self.depth
        lead = (self.rows,) if self.rows > 1 else ()
        # an even depth: the two sets of grid buffers alternate along the
        # ring.  Zeros: a row no state has reached yet enters the block dot as 0
        ring = np.zeros((depth, *lead, n // 2 + 1), dtype=complex)
        slots = [_Slot(ring[0], 0, n), _Slot(ring[1], 1, n)]
        slots += [_Slot(ring[r], r, n, slots[r % 2]) for r in range(2, depth)]
        self._slots = slots
        successor = {s: slots[(s.index + 1) % depth] for s in slots}
        reaction = np.empty((*lead, n))
        reaction_hat = np.empty((*lead, n // 2 + 1), dtype=complex)
        self._row_factors = np.empty((2, *lead, n // 2 + 1), dtype=complex)
        diff, largest = np.empty((*lead, n)), np.empty(lead)
        mean = np.empty(lead)  # grid mean of e^(u - max u)
        mean_col = mean[:, None] if lead else mean
        weighted = np.empty((*lead, n + 2))  # weights * u_hat.view(float)
        kappa_0d = np.array(kappa)  # 0-d: numpy converts a Python float anew at every call
        multiply, add, subtract, divide, exp, log, absolute, dot = (
            np.multiply, np.add, np.subtract, np.divide, np.exp, np.log, np.abs, np.dot)
        maximum, minimum, total_of = np.maximum.reduce, np.minimum.reduce, np.add.reduce
        forward, inverse = rfft, irfft

        def advance(p: _Slot, step: tuple) -> _Slot:
            """One step (``factors(h)``) from p into the next slot: its rfft,
            grid values and extremes.  ``produce`` completes the step."""
            _, factor, weight = step
            new = successor[p]
            multiply(kappa_0d, p.density, reaction)
            forward(reaction, reaction_hat)
            multiply(weight, reaction_hat, reaction_hat)
            multiply(factor, p.u_hat, new.u_hat)
            add(new.u_hat, reaction_hat, new.u_hat)
            inverse(new.u_hat, n, new.values)
            bound(new)
            return new

        # the extremes, J's quadratic part and the detector's max take one
        # form for a stack and one for a state.  One number per row (the
        # mean, log int e^u, J's tail) is a plain float: a numpy call on a
        # few elements costs more than the arithmetic
        if lead:
            def bound(s: _Slot) -> None:
                """max u and min u of each row of s, into its extremes."""
                maximum(s.values, -1, None, s.top)
                minimum(s.values, -1, None, s.bottom)

            def mean_of(total: np.ndarray) -> list[float]:
                mean[:] = means = [row_total / n for row_total in total.tolist()]
                return means

            def energy(s: _Slot, means: list[float]) -> list[float]:
                quadratic = quadratic_energy(s.u_hat_float, weights, weighted)
                return [q - kappa * (top + float(log(m)))
                        for q, top, m in zip(quadratic.tolist(), s.top.tolist(), means)]

            def change(new: _Slot, old: _Slot) -> np.ndarray:
                """max |u_new - u_old| per row: the detector's numerator."""
                subtract(new.values, old.values, diff)
                absolute(diff, diff)
                return maximum(diff, -1, None, largest)

            energies = None
        else:
            # one state: the values at argmax and argmin (the first NaN, if
            # any) and np.dot, the BLAS dot of np.vecdot, give the same bits
            # and cost less than 0-d reductions and the vecdot
            def bound(s: _Slot) -> None:
                """max u and min u of s, into its 0-d extremes."""
                values = s.values
                s.top[()] = values[values.argmax()]
                s.bottom[()] = values[values.argmin()]

            def mean_of(total: np.ndarray) -> float:
                mean[()] = m = total.item() / n
                return m

            def energy(s: _Slot, m: float) -> float:
                v = s.u_hat_float
                quadratic = float(dot(multiply(weights, v, weighted), v))
                return quadratic - kappa * (s.top.item() + float(log(m)))

            def change(new: _Slot, old: _Slot) -> np.ndarray:
                """max |u_new - u_old|, 0-d: the detector's numerator."""
                subtract(new.values, old.values, diff)
                absolute(diff, diff)
                largest[()] = diff[diff.argmax()]
                return largest

            ring_float = ring.view(float)
            ring_weighted = np.empty_like(ring_float)

            def energies(end: _Slot, tops: list[float], means: list[float]) -> np.ndarray:
                """J of the len(tops) <= depth consecutive states that end
                at the slot end, oldest first, from their max u (tops) and
                grid means of e^(u - max u) (means).

                Three calls give them all: one BLAS dot per ring row
                (``quadratic_energy``), one log over the means and the
                arithmetic of ``energy``, elementwise.  np.log gives each
                element of an array the bits it gives the element alone,
                so every J is the one ``evaluate`` gives its state."""
                quadratic = quadratic_energy(ring_float, weights, ring_weighted)
                # the ring twice over: the rows that end at end are one slice
                stop = end.index + 1 + depth
                quadratic = np.concatenate((quadratic, quadratic))[stop - len(tops):stop]
                return quadratic - kappa * (np.array(tops) + log(means))

        def produce(s: _Slot):
            """The density of s, every row within the exp() guard; returns
            the grid mean of e^(u - max u), of each row for a stack."""
            density = s.density
            subtract(s.values, s.top_col, density)
            exp(density, density)
            means = mean_of(total_of(density, -1, None, mean))
            divide(density, mean_col, density)
            return means

        def evaluate(s: _Slot) -> None:
            """The density and the energy of s, every row within the exp() guard."""
            # J = (its quadratic part) - kappa log(int e^u)
            s.energy = energy(s, produce(s))

        self.advance, self.produce, self.evaluate, self.change = advance, produce, evaluate, change
        self.energies, self._bound = energies, bound

    def start(self, values: np.ndarray) -> _Slot:
        """The first states (one row each, or one 1-d state), in slot 0:
        their rfft, grid values and extremes.  ``produce`` or ``evaluate``
        completes them."""
        s = self._slots[0]
        s.values[...] = values
        rfft(s.values, s.u_hat)
        self._bound(s)
        return s

    def keep(self, s: _Slot, rows: list[int]) -> _Slot:
        """The given rows of the stack s, as a smaller stack in slot 0."""
        self.rows = len(rows)
        self._weights = _fit(self._weights, self.rows)
        self._factors = {h: (h, _fit(f, self.rows), _fit(w, self.rows))
                         for h, (_, f, w) in self._factors.items()}
        self._bind()
        kept = self._slots[0]
        for name in _STATE:
            getattr(kept, name)[...] = getattr(s, name)[rows]
        energies = [s.energy[r] for r in rows]
        kept.energy = energies if self.rows > 1 else energies[0]
        return kept

    def factors(self, h) -> tuple:
        """What ``advance`` takes for a step of length h: (h, e^(h decay),
        phi_1(h decay) h), tiled to the stack.  h is one step length for
        every row, or a list of one per row of a stack."""
        if isinstance(h, list):
            factor, weight = self._row_factors
            for row, h_row in enumerate(h):
                _, row_factor, row_weight = self.factors(h_row)
                factor[row], weight[row] = row_factor[0], row_weight[0]
            return h, factor, weight
        if h not in self._factors:
            factor = np.exp(self._decay * h)
            weight = (factor - 1.0) / self._decay  # phi_1(h decay) h
            # complex, as the products with the complex rfft would cast them
            self._factors[h] = (h, _tiled(factor.astype(complex), self.rows),
                                _tiled(weight.astype(complex), self.rows))
        return self._factors[h]


def _check_run(t_end: float, steady_tol: float) -> None:
    if not 0.0 < t_end < math.inf:
        raise ConfigurationError(f"t_end must be positive and finite, got {t_end}")
    if math.isnan(steady_tol):
        raise ConfigurationError("steady_tol must be a number, got nan")


def _step_budget(t_end: float, dt: float) -> int:
    """The steps of length dt that reach t_end: the least N with N dt >= t_end,
    where a quotient t_end / dt within a few ulps above an integer counts as
    that integer (0.07 / 0.01 is 7.000000000000001, and takes 7 steps)."""
    return math.ceil(t_end / dt * (1.0 - STEP_SLACK))


def _ring_depth(n: int) -> int:
    """The slots of a fixed-dt trajectory on n points: at most RING_ROWS rows
    of rfft and RING_FLOATS floats, an even count (the two sets of grid
    buffers alternate along the ring), and never fewer than 2."""
    rows = min(RING_ROWS, RING_FLOATS // (n + 2))
    return max(2, rows - rows % 2)


def simulate(
    u0: Field,
    params: ModelParams,
    t_end: float,
    dt: float = 1e-3,
    record_every: int = 100,
    steady_tol: float = 1e-9,
) -> TrajectorySummary:
    """Integrate with the fixed step dt until t_end, recording mass and
    energy every record_every steps.

    Stops early (and reports ``converged=True``) once the steady-state
    detector fires: max |u_{n+1} - u_n| / dt < steady_tol.  Divergence raises
    :class:`DivergenceError` with the last finite state attached.
    """
    _check_run(t_end, steady_tol)
    check_count("record_every", record_every, 1)
    stepper = _Stepper(u0.grid, params, dt, depth=_ring_depth(u0.grid.n_points))
    advance, produce, change, energies = (
        stepper.advance, stepper.produce, stepper.change, stepper.energies)
    fixed = stepper.factors(dt)
    n_steps = _step_budget(t_end, dt)
    block = stepper.depth - 1  # steps between two energy flushes
    detect = steady_tol > 0.0  # the rate is >= 0, so a threshold <= 0 never fires

    p = stepper.start(u0.values)  # one state: 1-d arrays, 0-d extremes
    if error := exp_range_error(max(p.top.item(), -p.bottom.item())):
        raise error
    # the states since the last flush, the flushed one first: max u, the
    # mean of e^(u - max u), and which of them are recorded
    tops, means, marks = [p.top.item()], [produce(p)], []
    records, recorded = [], []  # (t, mass, max u, min u); J
    max_increment = 0.0
    converged = False
    step = 0

    def record(t, s):
        records.append((t, float(s.values.mean()), s.top.item(), s.bottom.item()))
        marks.append(len(tops) - 1)

    record(0.0, p)
    while step < n_steps and not converged:
        for _ in range(min(block, n_steps - step)):
            new = advance(p, fixed)
            step += 1
            top, bottom = new.top.item(), new.bottom.item()
            if not (top <= EXP_GUARD and bottom >= -EXP_GUARD):  # NaN fails this too
                raise _refusal(top, bottom, u0.grid, p.values, step * dt, "simulation")
            tops.append(top)
            means.append(produce(new))
            if detect:
                converged = change(new, p).item() / dt < steady_tol
            p = new
            if step % record_every == 0 or step == n_steps or converged:
                record(step * dt, p)
            if converged:
                break
        # the flush: J of the states stepped since the last one, their
        # largest increment (fmax skips a NaN, as the comparison does) and
        # those of the records
        energy = energies(p, tops, means)
        max_increment = max(max_increment, np.fmax.reduce(energy[1:] - energy[:-1]).item())
        recorded += energy[marks].tolist()
        tops[:], means[:], marks[:] = tops[-1:], means[-1:], []

    times, masses, max_values, min_values = map(np.asarray, zip(*records))
    return TrajectorySummary(
        times, masses, np.asarray(recorded), max_values, min_values,
        final_state=Field(u0.grid, p.values),
        step_count=step,
        converged=converged,
        max_energy_increment=max_increment,
    )


def _energy_allows(old: float, new: float) -> bool:
    """Acceptance rule of the adaptive flow: J may rise by round-off only.

    The quadratic part of J is convex and integrated exactly, the concave
    -kappa log int e^u is explicit, so no step of any length raises J in
    exact arithmetic; the rule guards against round-off and defects.
    """
    return new <= old + ENERGY_SLACK * max(1.0, abs(old))


class _Row:
    """The counters of one start's run in a relaxation stack."""

    __slots__ = ("start", "h", "accepted", "rejected", "flow_time", "rate")

    def __init__(self, start: int, dt: float):
        self.start = start  # index among the starts
        self.h = dt
        self.accepted = 0
        self.rejected = dict.fromkeys(("rejected_energy", "rejected_nonfinite", "rejected_overflow"), 0)
        self.flow_time = 0.0
        self.rate = math.inf

    def stats(self) -> dict:
        """The counters as ``_relax_stack`` returns them (the RelaxStats fields of the flow)."""
        return {"accepted": self.accepted, **self.rejected, "flow_time": self.flow_time,
                "final_h": self.h, "handoff_rate": self.rate}


def _relax_stack(
    starts: list[Field], params: ModelParams, dt: float, t_end: float, steady_tol: float
) -> list[tuple[Field, bool, dict] | MechmorphError]:
    """Energy-controlled adaptive exponential Euler toward a steady state,
    for starts on one grid stepped as one stack.

    The first step is dt and each accepted step doubles the next, up to the
    0.5 guard.  A longer step that raises J beyond round-off, goes
    non-finite or trips the exp() guard is rejected and halved, never below
    dt; a step of length dt that goes non-finite or trips the guard ends
    the row with ``simulate``'s refusal of it.  The budget is
    ``_step_budget(t_end, dt)`` steps, accepted plus rejected, which is what
    ``simulate`` takes to reach t_end: near sharp peaks the contraction per
    step saturates once the step is long, so a flow-time budget would run
    out without converging.

    Each row keeps its own step length, decisions, budget, flow time and
    detector, and leaves the stack when the detector
    max |u_{n+1} - u_n| / h < steady_tol fires on it, when its budget runs
    out or when it fails.  Returns, for each start in order, the last
    accepted state, whether the detector fired on it and the counters of
    its run, or the exception that ended the run.  Every row is
    bit-identical to its start relaxed alone.  The rate is >= 0, so a
    steady_tol <= 0 could never fire and raises ConfigurationError.
    """
    _check_run(t_end, steady_tol)
    if steady_tol <= 0.0:
        raise ConfigurationError(f"steady_tol must be positive, got {steady_tol}")
    grid = starts[0].grid
    stepper = _Stepper(grid, params, dt, len(starts))
    results: list = [None] * len(starts)
    rows = [_Row(i, dt) for i in range(len(starts))]
    p = stepper.start(np.array([u0.values for u0 in starts]))
    for row, (top, bottom) in zip(rows, p.extremes()):
        results[row.start] = exp_range_error(max(top, -bottom))
    rows, p = _survivors(stepper, p, rows, results)
    if rows:
        stepper.evaluate(p)
    for _ in range(_step_budget(t_end, dt)):
        if not rows:
            break
        steps = [row.h for row in rows]
        h = steps[0] if steps.count(steps[0]) == len(steps) else steps
        new = stepper.advance(p, stepper.factors(h))
        rejected = {}  # row -> why its step was rejected; at h = dt the row fails
        for r, (top, bottom) in enumerate(new.extremes()):
            if top <= EXP_GUARD and bottom >= -EXP_GUARD:  # NaN fails this too
                continue
            row = rows[r]
            error = _refusal(top, bottom, grid, p.row(r), row.flow_time + row.h, "relaxation")
            overflow = isinstance(error, AmplitudeOverflowError)
            rejected[r] = "rejected_overflow" if overflow else "rejected_nonfinite"
            if row.h == dt:
                results[row.start] = error
        if len(rejected) < len(rows):  # else no energy or change below is read
            if rejected:
                new.copy_rows(p, list(rejected))  # the stack evaluates finite rows only
            stepper.evaluate(new)
            changes = stepper.change(new, p).reshape(-1).tolist()
            old_energy, new_energy = p.energies(), new.energies()
        converged = []
        for r, row in enumerate(rows):
            reason = rejected.get(r)
            if reason is None and row.h != dt and not _energy_allows(old_energy[r], new_energy[r]):
                reason = rejected[r] = "rejected_energy"
            if reason is not None:
                row.rejected[reason] += 1
                row.h = max(0.5 * row.h, dt)
                continue
            row.accepted += 1
            row.flow_time += row.h
            row.rate = changes[r] / row.h
            if row.rate < steady_tol:
                converged.append(r)
            else:
                row.h = min(2.0 * row.h, MAX_STEP)
        if len(rejected) < len(rows):
            # the next step leaves from the new slot; the rejected rows get
            # their accepted states back
            if rejected:
                new.copy_rows(p, list(rejected))
            p = new
        for r in converged:
            results[rows[r].start] = Field(grid, p.row(r)), True, rows[r].stats()
        if converged or rejected:
            rows, p = _survivors(stepper, p, rows, results)
    for r, row in enumerate(rows):  # out of budget
        results[row.start] = Field(grid, p.row(r)), False, row.stats()
    return results


def _survivors(stepper: _Stepper, p: _Slot, rows: list[_Row], results: list):
    """The rows that have no result yet, and the stack of their states."""
    live = [r for r, row in enumerate(rows) if results[row.start] is None]
    if len(live) == len(rows):
        return rows, p
    return [rows[r] for r in live], (stepper.keep(p, live) if live else p)


def strain_field(u: Field, params: ModelParams) -> Field:
    """Nondimensional strain profile e^u / int e^u (integrates to one).

    The elastic modulus decreases exponentially with the morphogen level, so
    after nondimensionalization the strain is the normalized production
    profile; constant factors are absorbed into kappa.
    """
    return Field(u.grid, density(u.values))
