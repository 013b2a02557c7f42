import gc
import math
import tracemalloc
import weakref
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import mechmorph as mm
from mechmorph import dynamics
from mechmorph._operators import bump_seed, even_noise
from mechmorph.errors import (
    AmplitudeOverflowError,
    ConfigurationError,
    ConvergenceError,
    DivergenceError,
    MechmorphError,
)

import oracles
from conftest import perturbed_constant
from oracles import random_smooth_field, reference_simulate


def one_step(u, dt, params):
    """One exponential-Euler step of length dt, taken by ``simulate``."""
    return mm.simulate(u, params, t_end=dt, dt=dt).final_state


@pytest.mark.parametrize("dt", [1e-3, 0.05, 0.5])
def test_constant_state_is_fixed_point(grid256, dt):
    params = mm.ModelParams(D=0.02, kappa=1.8)
    u = mm.Field(grid256, np.full(256, 1.8))
    out = one_step(u, dt, params)
    assert np.max(np.abs(out.values - 1.8)) < 1e-13


def test_step_rejects_bad_dt(grid256):
    params = mm.ModelParams(D=0.02, kappa=1.8)
    u = mm.Field(grid256, np.full(256, 1.8))
    with pytest.raises(ConfigurationError):
        one_step(u, 0.6, params)
    with pytest.raises(ConfigurationError, match="dt must be positive"):
        mm.simulate(u, params, t_end=1.0, dt=0.0)


@pytest.mark.parametrize("t_end", [np.inf, np.nan, 0.0])
def test_flows_reject_bad_t_end(grid256, t_end):
    params = mm.ModelParams(D=0.02, kappa=1.8)
    u = mm.Field(grid256, np.full(256, 1.8))
    with pytest.raises(ConfigurationError, match="t_end must be positive and finite"):
        mm.simulate(u, params, t_end=t_end)
    with pytest.raises(ConfigurationError, match="t_end must be positive and finite"):
        mm.relax_to_steady(u, params, t_end=t_end)


def test_linear_decay_is_mode_exact(grid256):
    # with a vanishing production term the scheme reduces to the exact
    # integrating factor exp(-(1 + 4 pi^2 k^2 D) dt) per mode
    D, dt = 0.013, 0.05
    params = mm.ModelParams(D=D, kappa=1e-300)
    u = mm.Field(grid256, np.cos(2.0 * np.pi * grid256.nodes))
    out = one_step(u, dt, params)
    factor = np.exp(-(1.0 + 4.0 * np.pi**2 * D) * dt)
    assert np.max(np.abs(out.values - factor * u.values)) < 1e-13


def test_mass_recursion_is_exact_per_step(grid256):
    params = mm.ModelParams(D=0.01, kappa=1.4)
    rng = np.random.Generator(np.random.PCG64(31))
    for _ in range(5):
        u = random_smooth_field(grid256, rng, amplitude=0.4, mean=2.0)
        for dt in (1e-3, 0.1):
            m0 = mm.integrate(u)
            m1 = mm.integrate(one_step(u, dt, params))
            exact = params.kappa + (m0 - params.kappa) * np.exp(-dt)
            assert abs(m1 - exact) < 1e-14


def test_trajectory_mass_follows_exact_law(grid256):
    params = mm.ModelParams(D=0.01, kappa=1.5)
    rng = np.random.Generator(np.random.PCG64(32))
    u0 = random_smooth_field(grid256, rng, amplitude=0.3, mean=2.1)
    m0 = mm.integrate(u0)
    summary = mm.simulate(u0, params, t_end=5.0, dt=1e-3, record_every=50)
    exact = params.kappa + (m0 - params.kappa) * np.exp(-summary.times)
    assert np.max(np.abs(summary.masses - exact)) < 1e-12


@pytest.mark.parametrize("dt", [1e-2, 5e-3, 2.5e-3])
def test_mass_law_error_stays_at_roundoff(grid256, dt):
    # the mode-0 forcing is exactly kappa, so the scheme integrates the mass
    # law exactly; the first-order convergence bound holds with margin
    params = mm.ModelParams(D=0.01, kappa=1.3)
    u0 = mm.Field(grid256, 1.8 + 0.2 * np.cos(2.0 * np.pi * grid256.nodes))
    summary = mm.simulate(u0, params, t_end=2.0, dt=dt, record_every=10)
    exact = params.kappa + (1.8 - params.kappa) * np.exp(-summary.times)
    assert np.max(np.abs(summary.masses - exact)) < 1e-12


def test_energy_never_increases(grid256):
    params = mm.ModelParams(D=0.01, kappa=1.5)
    u0 = mm.Field(grid256, 1.5 + 0.01 * np.cos(2.0 * np.pi * grid256.nodes))
    summary = mm.simulate(u0, params, t_end=40.0, dt=1e-3)
    assert summary.max_energy_increment <= 1e-10
    assert np.all(np.diff(summary.energies) <= 1e-10)


def test_pattern_emergence(grid256):
    params = mm.ModelParams(D=0.01, kappa=1.5)
    u0 = mm.Field(grid256, 1.5 + 0.01 * np.cos(2.0 * np.pi * grid256.nodes))
    summary = mm.simulate(u0, params, t_end=150.0, dt=1e-3)
    final = summary.final_state
    assert final.values.max() - final.values.min() > 1.0
    assert mm.count_modes(final) == 1


def test_decay_to_constant_beyond_dmax(grid256):
    kappa = 1.5
    params = mm.ModelParams(D=1.1 * mm.bounds(kappa).d_max, kappa=kappa)
    rng = np.random.Generator(np.random.PCG64(33))
    u0 = random_smooth_field(grid256, rng, amplitude=0.5, mean=kappa)
    summary = mm.simulate(u0, params, t_end=40.0, dt=1e-3)
    final = summary.final_state
    assert final.values.max() - final.values.min() < 1e-7
    assert summary.converged


def test_temporal_self_convergence_first_order(grid256):
    params = mm.ModelParams(D=0.01, kappa=1.5)
    u0 = mm.Field(grid256, 1.5 + 0.2 * np.cos(2.0 * np.pi * grid256.nodes))

    def solve(dt):
        return mm.simulate(u0, params, t_end=1.0, dt=dt, steady_tol=0.0).final_state.values

    coarse, mid, fine = solve(4e-3), solve(2e-3), solve(1e-3)
    e1 = np.max(np.abs(coarse - mid))
    e2 = np.max(np.abs(mid - fine))
    assert 1.6 < e1 / e2 < 2.4


def test_early_stop_reports_convergence(grid256):
    params = mm.ModelParams(D=0.5, kappa=1.2)
    u0 = mm.Field(grid256, 1.2 + 0.05 * np.cos(2.0 * np.pi * grid256.nodes))
    summary = mm.simulate(u0, params, t_end=1000.0, dt=1e-2)
    assert summary.converged
    assert summary.times[-1] < 1000.0
    assert summary.step_count < 100000


def test_overflow_guard_raises(grid256):
    params = mm.ModelParams(D=0.01, kappa=1.0)
    u0 = mm.Field(grid256, np.full(256, 750.0))
    with pytest.raises(AmplitudeOverflowError):
        mm.simulate(u0, params, t_end=1.0)


def test_strain_constant_field(grid256):
    params = mm.ModelParams(D=0.1, kappa=0.9)
    u = mm.Field(grid256, np.full(256, -2.3))
    strain = mm.strain_field(u, params)
    assert np.max(np.abs(strain.values - 1.0)) < 1e-14


def test_strain_normalization_and_peak(grid256):
    params = mm.ModelParams(D=0.1, kappa=1.1)
    rng = np.random.Generator(np.random.PCG64(34))
    for _ in range(10):
        u = random_smooth_field(grid256, rng, amplitude=1.2, mean=0.7)
        strain = mm.strain_field(u, params)
        assert abs(mm.integrate(strain) - 1.0) < 1e-13
        assert np.argmax(strain.values) == np.argmax(u.values)


class _Taken(NamedTuple):
    """The state a step left from: the stepper's slot, and a copy of its
    values and energy, which later steps overwrite in the slot."""

    slot: object
    values: np.ndarray
    energy: float


def _record_steps(monkeypatch):
    """List that collects (state, h) of every step a ``_Stepper`` takes.

    The stepper binds ``advance`` to the instance whenever it allocates
    buffers (``_bind``), so the recorder wraps each one it binds."""
    calls = []
    bind = dynamics._Stepper._bind

    def recording_bind(self):
        bind(self)
        advance = self.advance

        def recording(p, step):
            calls.append((_Taken(p, p.values.copy(), p.energy), step[0]))
            return advance(p, step)

        self.advance = recording

    monkeypatch.setattr(dynamics._Stepper, "_bind", recording_bind)
    return calls


def _relax_alone(u0, params, dt, t_end, steady_tol):
    """A one-row ``_relax_stack``: its (state, converged, counters), or the
    exception that ended the row, raised."""
    (result,) = dynamics._relax_stack([u0], params, dt, t_end, steady_tol)
    if isinstance(result, MechmorphError):
        raise result
    return result


def _record_reference_steps(monkeypatch):
    """List that collects (state, h) of every step ``oracles.ReferenceStepper`` takes."""
    calls = []
    advance = oracles.ReferenceStepper.advance

    def recording(self, p, h):
        calls.append((_Taken(p, p.values.copy(), p.energy), h))
        return advance(self, p, h)

    monkeypatch.setattr(oracles.ReferenceStepper, "advance", recording)
    return calls


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from([64, 128]),
    D=st.floats(1e-3, 0.05),
    kappa=st.floats(0.5, 8.0),
    amplitude=st.floats(0.01, 2.0),
)
def test_adaptive_steps_keep_energy_and_mass_law(seed, n, D, kappa, amplitude):
    grid = mm.make_grid(n)
    params = mm.ModelParams(D=D, kappa=kappa)
    rng = np.random.Generator(np.random.PCG64(seed))
    u0 = mm.Field(grid, kappa * (1.0 + amplitude * even_noise(rng, n)))
    with pytest.MonkeyPatch.context() as m:
        calls = _record_steps(m)
        _relax_alone(u0, params, 1e-3, 1.0, 1e-9)
    # a step was accepted when the next one leaves from its result
    steps = [
        (h, p, nxt) for (p, h), (nxt, _) in zip(calls, calls[1:]) if nxt.slot is not p.slot
    ]
    assert len(steps) > 10
    eps = np.finfo(float).eps
    for h, old, new in steps:
        assert new.energy <= old.energy + 8.0 * eps * max(1.0, abs(old.energy))
        m_old, m_new = float(old.values.mean()), float(new.values.mean())
        assert abs(m_new - (kappa + (m_old - kappa) * np.exp(-h))) < 1e-12
    assert max(h for h, _, _ in steps) == dynamics.MAX_STEP


def test_energy_acceptance_rule():
    # exponential Euler treats the convex quadratic part of J exactly and
    # the concave part -kappa log int e^u explicitly, so J cannot rise in
    # exact arithmetic and no start forces an energy rejection; the rule
    # only admits round-off
    eps = np.finfo(float).eps
    assert dynamics._energy_allows(-120.0, -120.0 + 7.0 * eps * 120.0)
    assert not dynamics._energy_allows(-120.0, -120.0 + 9.0 * eps * 120.0)
    assert dynamics._energy_allows(1e-3, 1e-3 + 7.0 * eps)
    assert not dynamics._energy_allows(1e-3, 1e-3 + 9.0 * eps)
    assert dynamics._energy_allows(2.0, 1.0)


def test_rejected_steps_halve_down_to_dt(monkeypatch):
    # accept six longer steps, which reach the 0.5 cap, then reject every
    # step longer than dt: halving from 0.5 must stop at dt, where steps are
    # accepted, and the flow must still converge
    grid = mm.make_grid(64)
    params = mm.ModelParams(D=0.05, kappa=1.2)
    u0 = mm.Field(grid, 1.2 + 0.1 * np.cos(2.0 * np.pi * grid.nodes))
    calls = _record_steps(monkeypatch)
    verdicts = iter([True] * 6)
    monkeypatch.setattr(dynamics, "_energy_allows", lambda old, new: next(verdicts, False))
    dt = 0.01
    _, converged, stats = _relax_alone(u0, params, dt, 100.0, 1e-9)
    steps = [h for _, h in calls]
    assert converged
    assert steps[:14] == [
        0.01, 0.02, 0.04, 0.08, 0.16, 0.32, 0.5, 0.5, 0.25, 0.125, 0.0625, 0.03125, 0.015625, 0.01
    ]
    assert set(steps[14:]) == {dt, 2.0 * dt}
    assert stats["accepted"] + stats["rejected_energy"] == len(calls)
    assert stats["rejected_energy"] == 6 + steps[14:].count(2.0 * dt)


def test_overflowing_steps_are_rejected_until_dt_raises(monkeypatch):
    # at kappa = 100, D = 1e-3 the peak outgrows the exp() range: longer
    # steps that leave it are rejected and halved, and the step of length
    # dt raises exactly as simulate does
    grid = mm.make_grid(64)
    params = mm.ModelParams(D=1e-3, kappa=100.0)
    xi = np.random.default_rng(0).standard_normal(64)
    u0 = mm.Field(grid, 100.0 * (1.0 + 0.1 * xi))
    with pytest.raises(AmplitudeOverflowError) as flow_error:
        mm.simulate(u0, params, t_end=10.0)
    calls = _record_steps(monkeypatch)
    with pytest.raises(AmplitudeOverflowError) as relax_error:
        mm.relax_to_steady(u0, params, dt=1e-3, t_end=10.0)
    assert str(relax_error.value) == str(flow_error.value)
    rejected = [
        (h, h_next) for (p, h), (p_next, h_next) in zip(calls, calls[1:]) if p_next.slot is p.slot
    ]
    assert rejected and all(h_next == max(0.5 * h, 1e-3) for h, h_next in rejected)
    assert calls[-1][1] == 1e-3


def _assert_same_trajectory(new, ref):
    for name in ("times", "masses", "max_values", "min_values"):
        assert np.array_equal(getattr(new, name), getattr(ref, name)), name
    assert np.array_equal(new.final_state.values, ref.final_state.values)
    assert (new.step_count, new.converged) == (ref.step_count, ref.converged)
    # J is one Parseval dot in the package and two sums in the oracle
    tol = 1e-14 * max(1.0, float(np.max(np.abs(ref.energies))))
    assert np.max(np.abs(new.energies - ref.energies)) <= tol
    assert abs(new.max_energy_increment - ref.max_energy_increment) <= tol


@pytest.mark.parametrize(
    "D, kappa, amplitude, run, converges, off_record",
    [
        # detector off: the full 3000 steps of a growing pattern
        (0.01, 1.5, 0.01, dict(t_end=3.0, steady_tol=0.0), False, False),
        # default detector; it fires at a step that is not a recording step
        (0.5, 1.2, 0.05, dict(t_end=1000.0, dt=1e-2), True, True),
        # 3000 steps recorded every 7th, and at the last
        (0.01, 1.5, 0.2, dict(t_end=3.0, record_every=7), False, True),
    ],
)
def test_simulate_matches_reference_loop(
    grid256, D, kappa, amplitude, run, converges, off_record
):
    params = mm.ModelParams(D=D, kappa=kappa)
    u0 = mm.Field(grid256, kappa * (1.0 + amplitude * np.cos(2.0 * np.pi * grid256.nodes)))
    new = mm.simulate(u0, params, **run)
    ref = reference_simulate(u0, params, **run)
    _assert_same_trajectory(new, ref)
    assert new.converged == converges
    assert (new.step_count % run.get("record_every", 100) != 0) == off_record
    assert new.times[-1] == new.step_count * run.get("dt", 1e-3)


@given(
    n=st.sampled_from([32, 64, 128, 256]),
    D=st.floats(1e-3, 0.5),
    kappa=st.floats(0.5, 8.0),
    amplitude=st.one_of(st.just(0.0), st.floats(1e-3, 1.0)),
    record_every=st.integers(1, 40),
    t_end=st.floats(1e-3, 0.3),
    steady_tol=st.sampled_from([0.0, 1e-9]),
)
@example(n=64, D=0.1, kappa=1.2, amplitude=0.0, record_every=7, t_end=0.3, steady_tol=1e-9)
def test_simulate_matches_reference_loop_on_generated_runs(
    n, D, kappa, amplitude, record_every, t_end, steady_tol
):
    # the lean step (one state in 1-d arrays, its scalars in plain floats)
    # against the loop that allocates every intermediate array
    grid = mm.make_grid(n)
    params = mm.ModelParams(D=D, kappa=kappa)
    u0 = mm.Field(grid, kappa * (1.0 + amplitude * np.cos(2.0 * np.pi * grid.nodes)))
    run = dict(t_end=t_end, record_every=record_every, steady_tol=steady_tol)
    _assert_same_trajectory(mm.simulate(u0, params, **run), reference_simulate(u0, params, **run))


@pytest.mark.parametrize(
    "level, kappa, start, error",
    [
        # the peak outgrows the exp() range after some steps
        (100.0, 100.0, "noise", AmplitudeOverflowError),
        # the guard is on max |u|: a start far below zero trips it
        (-750.0, 1.0, "cosine", AmplitudeOverflowError),
        # kappa e^u / int e^u overflows to inf, so the first step is NaN;
        # after a finite step of this size the exp() guard fires first
        (100.0, 1e308, "cosine", DivergenceError),
    ],
)
def test_simulate_fails_like_reference_loop(monkeypatch, level, kappa, start, error):
    grid = mm.make_grid(64)
    params = mm.ModelParams(D=1e-3, kappa=kappa)
    if start == "noise":
        shape = 0.1 * np.random.default_rng(0).standard_normal(64)
    else:
        shape = 0.1 * np.cos(2.0 * np.pi * grid.nodes)
    u0 = mm.Field(grid, level * (1.0 + shape))
    new_steps = _record_steps(monkeypatch)
    ref_steps = _record_reference_steps(monkeypatch)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(error) as new:
            mm.simulate(u0, params, t_end=10.0, steady_tol=0.0)
        with pytest.raises(error) as ref:
            reference_simulate(u0, params, t_end=10.0, steady_tol=0.0)
    assert str(new.value) == str(ref.value)
    assert len(new_steps) == len(ref_steps)
    assert (len(new_steps) > 1) == (start == "noise")
    if error is DivergenceError:
        assert new.value.t == ref.value.t
        assert np.array_equal(new.value.last_state.values, ref.value.last_state.values)


def _assert_same_bytes(new, ref):
    """Every field of two TrajectorySummary objects, byte for byte."""
    for name in ("times", "masses", "energies", "max_values", "min_values"):
        a, b = getattr(new, name), getattr(ref, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
    assert new.final_state.values.tobytes() == ref.final_state.values.tobytes()
    for name in ("step_count", "converged", "max_energy_increment"):
        a, b = getattr(new, name), getattr(ref, name)
        assert (type(a), repr(a)) == (type(b), repr(b)), name


@settings(max_examples=60, deadline=None)
@given(
    n=st.sampled_from([32, 64, 256, 2048]),
    D=st.floats(1e-3, 0.5),
    kappa=st.floats(0.5, 8.0),
    amplitude=st.one_of(st.just(0.0), st.floats(1e-4, 1.0)),
    dt=st.sampled_from([1e-3, 0.05]),
    steps=st.integers(1, 4 * 63 + 2),
    record_every=st.sampled_from([1, 7, 63, 64, 65, 200]),
    steady_tol=st.sampled_from([0.0, 1e-9]),
)
# the detector fires at step 19, inside the first block
@example(n=64, D=0.5, kappa=1.2, amplitude=1e-3, dt=0.05, steps=200, record_every=7,
         steady_tol=1e-9)
def test_block_energies_match_a_flush_after_every_step(
    n, D, kappa, amplitude, dt, steps, record_every, steady_tol
):
    # a ring of two rows flushes J after every step: the blocks of the
    # default ring must give the same bytes in every field
    grid = mm.make_grid(n)
    params = mm.ModelParams(D=D, kappa=kappa)
    u0 = mm.Field(grid, kappa * (1.0 + amplitude * np.cos(2.0 * np.pi * grid.nodes)))
    run = dict(t_end=steps * dt, dt=dt, record_every=record_every, steady_tol=steady_tol)
    blocks = mm.simulate(u0, params, **run)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(dynamics, "RING_ROWS", 2)
        assert dynamics._ring_depth(n) == 2
        each_step = mm.simulate(u0, params, **run)
    _assert_same_bytes(blocks, each_step)
    assert blocks.step_count == steps or blocks.converged


def test_detector_stops_inside_a_block():
    # the example above, checked to stop where it should: off the block
    # boundaries and off the recording steps
    params = mm.ModelParams(D=0.5, kappa=1.2)
    grid = mm.make_grid(64)
    u0 = mm.Field(grid, 1.2 * (1.0 + 1e-3 * np.cos(2.0 * np.pi * grid.nodes)))
    summary = mm.simulate(u0, params, t_end=10.0, dt=0.05, record_every=7)
    assert summary.converged
    assert summary.step_count % (dynamics._ring_depth(64) - 1) != 0
    assert summary.step_count % 7 != 0 and summary.times[-1] == summary.step_count * 0.05


def test_largest_increment_counts_every_step_across_blocks(monkeypatch):
    # with a record at every step the energies are every state's J, so the
    # largest increment is their largest difference.  A rise put into the
    # first state of each flushed block makes that the increment across the
    # block boundary, which only the flush's first difference holds
    grid = mm.make_grid(64)
    params = mm.ModelParams(D=0.01, kappa=1.5)
    u0 = perturbed_constant(grid, 1.5, amplitude=0.2)
    run = dict(t_end=0.2, record_every=1, steady_tol=0.0)

    def largest_difference(summary):
        return max(0.0, float(np.max(np.diff(summary.energies))))

    summary = mm.simulate(u0, params, **run)
    assert summary.max_energy_increment == largest_difference(summary) == 0.0
    bind = dynamics._Stepper._bind

    def rising_bind(self):
        bind(self)
        energies = self.energies

        def rising(end, tops, means):
            energy = energies(end, tops, means)
            energy[1] += 1.0
            return energy

        self.energies = rising

    monkeypatch.setattr(dynamics._Stepper, "_bind", rising_bind)
    summary = mm.simulate(u0, params, **run)
    assert summary.step_count == 200
    assert summary.max_energy_increment == largest_difference(summary) > 0.5


@settings(max_examples=200)
@given(st.lists(st.one_of(st.floats(1.0 / 8192.0, 1.0), st.floats(1e-300, 1e300)),
                min_size=1, max_size=64))
def test_log_over_an_array_matches_the_scalar_log(means):
    # the block energies take np.log over the means of a block; the one-state
    # and stacked steps take it of each mean alone
    assert np.log(np.array(means)).tolist() == [float(np.log(m)) for m in means]


@pytest.mark.parametrize("t_end, dt, steps", [
    (0.07, 0.01, 7),  # 0.07 / 0.01 = 7.000000000000001
    (0.3, 0.1, 3),  # 2.9999999999999996
    (0.075, 0.01, 8),
    (1e-12, 1e-3, 1),
])
def test_fixed_steps_reach_t_end_without_an_extra_step(t_end, dt, steps):
    grid = mm.make_grid(64)
    params = mm.ModelParams(D=0.01, kappa=1.5)
    assert dynamics._step_budget(t_end, dt) == steps
    u0 = perturbed_constant(grid, 1.5)
    run = dict(t_end=t_end, dt=dt, record_every=1, steady_tol=0.0)
    summary = mm.simulate(u0, params, **run)
    assert summary.step_count == steps
    assert summary.times[-1] == steps * dt
    if t_end == 0.07:
        assert summary.times[-1] == 0.07
    _assert_same_trajectory(summary, reference_simulate(u0, params, **run))


@given(k=st.integers(1, 10**6), dt=st.floats(1e-4, 0.5), part=st.floats(0.01, 0.99))
def test_step_budget_is_the_least_count_that_reaches_t_end(k, dt, part):
    # k dt, rounded, is reached in k steps; any t_end past it in k + 1
    assert dynamics._step_budget(k * dt, dt) == k
    assert dynamics._step_budget((k + part) * dt, dt) == k + 1


def test_relaxation_budget_takes_the_same_count(monkeypatch):
    grid = mm.make_grid(64)
    params = mm.ModelParams(D=0.01, kappa=1.5)
    calls = _record_steps(monkeypatch)
    with pytest.raises(ConvergenceError, match="not steady within 7 steps"):
        mm.relax_to_steady(perturbed_constant(grid, 1.5), params, dt=0.01, t_end=0.07)
    assert len(calls) == 7


@pytest.mark.parametrize("poison_at", [64, 130, 200])
def test_divergence_after_several_blocks_matches_the_reference(monkeypatch, poison_at):
    # a NaN put into the density before step poison_at makes that step
    # diverge, past one or more blocks of 63 steps: the refusal carries the
    # state before it (the peak of the same start outgrows the exp() range
    # at step 211 unpoisoned, which test_simulate_fails_like_reference_loop
    # checks)
    grid = mm.make_grid(64)
    params = mm.ModelParams(D=1e-3, kappa=100.0)
    u0 = mm.Field(grid, 100.0 * (1.0 + 0.1 * np.random.default_rng(0).standard_normal(64)))
    new_steps = _record_steps(monkeypatch)
    ref_steps = _record_reference_steps(monkeypatch)
    bind, reference_advance = dynamics._Stepper._bind, oracles.ReferenceStepper.advance

    def poisoning_bind(self):
        bind(self)
        advance = self.advance

        def poisoned(p, step):
            if len(new_steps) == poison_at - 1:
                p.density[0] = math.nan
            return advance(p, step)

        self.advance = poisoned

    def poisoned_reference(self, p, h):
        if len(ref_steps) == poison_at - 1:
            p.density[0] = math.nan
        return reference_advance(self, p, h)

    monkeypatch.setattr(dynamics._Stepper, "_bind", poisoning_bind)
    monkeypatch.setattr(oracles.ReferenceStepper, "advance", poisoned_reference)
    with np.errstate(invalid="ignore"):
        with pytest.raises(DivergenceError) as new:
            mm.simulate(u0, params, t_end=10.0, steady_tol=0.0)
        with pytest.raises(DivergenceError) as ref:
            reference_simulate(u0, params, t_end=10.0, steady_tol=0.0)
    assert str(new.value) == str(ref.value)
    assert len(new_steps) == len(ref_steps) == poison_at
    assert new.value.t == ref.value.t == poison_at * 1e-3
    assert np.array_equal(new.value.last_state.values, ref.value.last_state.values)
    assert np.isfinite(new.value.last_state.values).all()


def test_trajectory_memory_stays_within_the_ring_bound():
    # at n = 8192 the ring holds 6 rows; 64 rows would take 8.4 MB.  Besides
    # the ring and its weighted product, a trajectory holds about 17 floats
    # per grid point (17.5 at n = 8192 before the ring)
    n = 8192
    grid = mm.make_grid(n)
    params = mm.ModelParams(D=0.01, kappa=1.5)
    u0 = perturbed_constant(grid, 1.5)
    mm.simulate(u0, params, t_end=0.01)  # FFT plans and caches
    assert dynamics._ring_depth(n) * (n + 2) <= dynamics.RING_FLOATS
    tracemalloc.start()
    try:
        mm.simulate(u0, params, t_end=0.05, record_every=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * (2 * dynamics.RING_FLOATS + 20 * n)


def _with_specials(data, n):
    """A generated field of n values: finite ones within and beyond the
    exp() guard, all of one sign or mixed, with NaN, +-inf and both zeros
    at generated positions."""
    values = data.draw(arrays(np.float64, n, elements=st.floats(-800.0, 800.0)))
    sign = data.draw(st.sampled_from([None, 1.0, -1.0]))
    if sign is not None:  # an extreme of exactly zero once a zero is placed
        values = sign * np.abs(values)
    specials = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0])
    for position, special in data.draw(st.lists(st.tuples(st.integers(0, n - 1), specials),
                                                max_size=6)):
        values[position] = special
    return values


def _same(value, reduced):
    """value equals the reduction's under ==, NaN exactly where it is NaN."""
    return math.isnan(value) == math.isnan(reduced) and (math.isnan(value) or value == reduced)


@settings(max_examples=100)
@given(data=st.data(), n=st.integers(4, 256).map(lambda half: 2 * half))
def test_one_state_extremes_match_the_reductions(data, n):
    # one state takes max u, min u and the detector's max |u_new - u_old|
    # as the values at argmax and argmin.  The one allowed difference from
    # np.max and np.min: where the extreme is an exact zero and both zeros
    # occur, the two may return opposite signs ([-0.0, 0.0] reduces to 0.0,
    # while argmax picks -0.0), which == does not see.  It only shows as the
    # sign of a recorded max_u or min_u of exactly zero.
    new, old = _with_specials(data, n), _with_specials(data, n)
    grid = mm.Grid(n, 1.0 / n, np.arange(n) / n)
    params = mm.ModelParams(D=0.01, kappa=1.5)
    one, other = dynamics._Stepper(grid, params, 1e-3), dynamics._Stepper(grid, params, 1e-3)
    with np.errstate(invalid="ignore", over="ignore"):
        s_new, s_old = one.start(new), other.start(old)
        change = one.change(s_new, s_old).item()
        largest_change = np.max(np.abs(new - old))
    top, bottom = s_new.top.item(), s_new.bottom.item()
    assert _same(top, np.max(new)) and _same(bottom, np.min(new))
    assert _same(change, largest_change)
    assert s_new.top.shape == s_new.bottom.shape == ()
    # the refusal reads the same class and message from either pair
    last = np.zeros(n)  # the last finite state a DivergenceError carries
    refusals = [dynamics._refusal(a, b, grid, last, 0.5, "simulation")
                for a, b in ((top, bottom), (np.max(new).item(), np.min(new).item()))]
    assert type(refusals[0]) is type(refusals[1])
    assert str(refusals[0]) == str(refusals[1])


def _stack_and_alone(seed, n, D, kappa, dt, t_end, shapes, energy_rejections):
    """The outcomes of starts of the given shapes relaxed as one stack, and
    each relaxed alone (a stack of one, or the exception that ended it).

    The starts sit at the level min(kappa, 100); "beyond guard" starts
    outside the exp() range.  With energy_rejections, the energy rule
    rejects a step by a hash of the old and the new energy, which is the
    same function of a row's trajectory in both runs; a row rejected while
    others are accepted must get its old energy back."""
    grid = mm.make_grid(n)
    params = mm.ModelParams(D=D, kappa=kappa)
    rng = np.random.Generator(np.random.PCG64(seed))
    level = min(kappa, 100.0)
    values = {
        "noise": lambda: level * (1.0 + 0.1 * even_noise(rng, n)),
        "small noise": lambda: level * (1.0 + 1e-4 * even_noise(rng, n)),
        "bump": lambda: bump_seed(level, grid.nodes),
        "constant": lambda: np.full(n, level),
        "beyond guard": lambda: -750.0 * (1.0 + 0.1 * np.cos(2.0 * np.pi * grid.nodes)),
    }
    starts = [mm.Field(grid, values[shape]()) for shape in shapes]

    def alone(start):
        try:
            return _relax_alone(start, params, dt, t_end, 1e-9)
        except MechmorphError as exc:
            return exc

    with pytest.MonkeyPatch.context() as m, np.errstate(over="ignore", invalid="ignore"):
        if energy_rejections:
            m.setattr(dynamics, "_energy_allows", lambda old, new: hash((old, new)) % 3 != 0)
        return (dynamics._relax_stack(starts, params, dt, t_end, 1e-9),
                [alone(start) for start in starts])


def _assert_same_outcome(row, alone):
    if isinstance(alone, MechmorphError):
        assert type(row) is type(alone)
        assert str(row) == str(alone)
        if isinstance(alone, DivergenceError):
            assert row.t == alone.t
            assert np.array_equal(row.last_state.values, alone.last_state.values)
        return
    (field, converged, stats), (field_alone, converged_alone, stats_alone) = row, alone
    assert np.array_equal(field.values, field_alone.values)
    assert converged == converged_alone
    # accepted, the three rejected_* counts, flow_time, final_h, handoff_rate
    assert stats == stats_alone


SHAPES = ["noise", "small noise", "bump", "constant", "beyond guard"]
# stacks whose rows fail at h = dt (exp() guard, divergence) or run out of budget
FAILING_STACKS = [
    dict(seed=7, n=64, D=1e-3, kappa=100.0, dt=1e-3, t_end=1.0,
         shapes=["noise", "small noise", "constant", "beyond guard"]),
    dict(seed=7, n=32, D=1e-3, kappa=1e308, dt=1e-3, t_end=1.0,
         shapes=["noise", "bump", "beyond guard"]),
    dict(seed=7, n=64, D=0.01, kappa=2.0, dt=1e-3, t_end=0.05,
         shapes=["noise", "bump", "constant"]),
]


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from([32, 64]),
    D=st.floats(1e-3, 0.05),
    kappa=st.one_of(st.floats(0.5, 8.0), st.sampled_from([50.0, 100.0, 1e308])),
    dt=st.sampled_from([1e-3, 4e-3, 0.02]),
    t_end=st.sampled_from([0.05, 1.0]),
    shapes=st.lists(st.sampled_from(SHAPES), min_size=1, max_size=4),
    energy_rejections=st.booleans(),
)
@example(**FAILING_STACKS[0], energy_rejections=False)
@example(**FAILING_STACKS[1], energy_rejections=False)
@example(**FAILING_STACKS[2], energy_rejections=True)
def test_stacked_rows_match_single_runs(seed, n, D, kappa, dt, t_end, shapes, energy_rejections):
    # every row of a stack is bit-identical to its start relaxed alone: a
    # row that fails, converges or runs out of budget leaves the others as
    # they were
    stacked, alone = _stack_and_alone(seed, n, D, kappa, dt, t_end, shapes, energy_rejections)
    assert len(stacked) == len(alone)
    for row, row_alone in zip(stacked, alone):
        _assert_same_outcome(row, row_alone)


@pytest.mark.parametrize("stack, outcomes", zip(FAILING_STACKS, [
    {"AmplitudeOverflowError", "converged"},
    {"DivergenceError", "AmplitudeOverflowError"},
    {"out of budget", "converged"},
]))
def test_failing_stacks_fail_as_intended(stack, outcomes):
    # the explicit examples of the property test cover each way a row ends
    stacked, _ = _stack_and_alone(**stack, energy_rejections=False)
    seen = {type(row).__name__ if isinstance(row, MechmorphError)
            else ("converged" if row[1] else "out of budget") for row in stacked}
    assert outcomes <= seen


def test_steppers_are_freed_without_the_cycle_collector(grid256):
    # the step functions close over the buffers, not over the stepper, so
    # dropping a stepper frees it by reference counting alone
    params = mm.ModelParams(D=0.01, kappa=1.5)
    values = perturbed_constant(grid256, 1.5).values
    gc.disable()
    try:
        one = dynamics._Stepper(grid256, params, 1e-3)
        p = one.start(values)
        one.evaluate(p)
        one.evaluate(one.advance(p, one.factors(1e-3)))
        stack = dynamics._Stepper(grid256, params, 1e-3, rows=3)
        p = stack.start(np.array([values, 1.01 * values, 0.99 * values]))
        stack.evaluate(p)
        p = stack.advance(p, stack.factors([1e-3, 2e-3, 1e-3]))
        stack.evaluate(p)
        p = stack.keep(p, [0, 2])
        stack.evaluate(stack.advance(p, stack.factors(1e-3)))
        refs = [weakref.ref(one), weakref.ref(stack)]
        del one, stack, p
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()
