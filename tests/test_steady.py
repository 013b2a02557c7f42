import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mechmorph as mm
from mechmorph import _operators, dynamics, steady
from mechmorph.errors import (
    AmplitudeOverflowError,
    ConfigurationError,
    ConvergenceError,
    ResolutionError,
)
from mechmorph.steady import turning_directions

from conftest import perturbed_constant
from oracles import loop_turning_directions, random_smooth_field, reference_count_modes


def test_constant_state_record(grid256):
    params = mm.ModelParams(D=0.3, kappa=1.5)
    state = mm.constant_state(params, grid256)
    assert np.all(state.field.values == 1.5)
    assert state.residual_norm == 0.0
    assert state.modality == 0
    assert state.energy == pytest.approx(-1.125, abs=1e-14)


def test_count_modes_examples(grid256):
    x = grid256.nodes
    assert mm.count_modes(mm.Field(grid256, np.full(256, 3.0))) == 0
    assert mm.count_modes(mm.Field(grid256, 2.0 + np.cos(2.0 * np.pi * x))) == 1
    assert mm.count_modes(mm.Field(grid256, 2.0 + np.cos(4.0 * np.pi * x) + 0.1 * np.cos(2.0 * np.pi * x))) == 2


def test_count_modes_translation_invariant(grid256):
    x = grid256.nodes
    rng = np.random.Generator(np.random.PCG64(41))
    base = 2.0 + np.cos(4.0 * np.pi * x) + 0.3 * np.cos(2.0 * np.pi * x)
    for _ in range(5):
        shift = rng.integers(0, 256)
        assert mm.count_modes(mm.Field(grid256, np.roll(base, shift))) == 2


def test_count_modes_ignores_subthreshold_wiggles(grid256):
    x = grid256.nodes
    main = 1.0 + np.cos(2.0 * np.pi * x)
    noise = 1e-9 * np.cos(16.0 * np.pi * x)
    assert mm.count_modes(mm.Field(grid256, main + noise)) == 1


def test_newton_from_constant_returns_constant(grid256):
    params = mm.ModelParams(D=0.05, kappa=1.2)
    state = mm.newton_steady(mm.Field(grid256, np.full(256, 1.2)), params)
    assert state.modality == 0
    assert np.max(np.abs(state.field.values - 1.2)) < 1e-9


def test_newton_polishes_relaxed_pattern(grid256, unimodal_15):
    state = unimodal_15
    assert state.modality == 1
    assert state.residual_norm < 1e-8
    assert abs(mm.integrate(state.field) - 1.5) < 1e-6
    assert state.energy < -0.5 * 1.5**2
    grad = mm.first_variation(state.field, state.params)
    assert np.sqrt(np.mean(grad.values**2)) < 1e-8


def test_newton_quadratic_convergence(grid256):
    params = mm.ModelParams(D=0.01, kappa=1.5)
    summary = mm.simulate(perturbed_constant(grid256, 1.5), params, t_end=60.0, dt=1e-3)
    history = []
    mm.newton_steady(summary.final_state, params, tol=1e-12, history=history)
    # quadratic contraction holds until the residual round-off floor
    small = [r for r in history if 1e-11 < r < 1e-3]
    assert len(small) >= 2
    for r_k, r_next in zip(small, small[1:]):
        assert r_next <= 50.0 * r_k**2


def test_newton_halves_a_step_that_does_not_lower_the_residual(monkeypatch):
    # from kappa (1 + cos 2 pi x) full Newton steps overshoot: some trials
    # are rejected (more syntheses than iterates), and the damped iteration
    # still reaches the relaxed unimodal state
    grid = mm.make_grid(128)
    params = mm.ModelParams(D=0.01, kappa=1.5)
    calls, synthesize = [], steady.synthesize_even

    def counted(*args):
        calls.append(None)
        return synthesize(*args)

    monkeypatch.setattr(steady, "synthesize_even", counted)
    history = []
    guess = mm.Field(grid, 1.5 * (1.0 + np.cos(2.0 * np.pi * grid.nodes)))
    state = mm.newton_steady(guess, params, history=history)
    assert len(calls) > len(history) + 1  # one synthesis per trial, one for the state
    assert all(later < earlier for earlier, later in zip(history, history[1:]))
    relaxed = mm.relax_to_steady(perturbed_constant(grid, 1.5), params)
    assert state.modality == 1
    assert np.max(np.abs(state.field.values - relaxed.field.values)) < 1e-9


def test_newton_and_relaxation_agree(grid256):
    params = mm.ModelParams(D=0.01, kappa=1.5)
    u0 = perturbed_constant(grid256, 1.5)
    route_a = mm.relax_to_steady(u0, params, t_end=400.0)
    # independent route: a short relaxation handed to Newton early
    summary = mm.simulate(u0, params, t_end=70.0, dt=1e-3)
    route_b = mm.newton_steady(summary.final_state, params)
    assert np.max(np.abs(route_a.field.values - route_b.field.values)) < 1e-7


@pytest.mark.parametrize("kappa,d_factor", [(1.5, 1.1), (3.0, 1.2)])
def test_relaxation_beyond_dmax_returns_constant(grid256, kappa, d_factor):
    params = mm.ModelParams(D=d_factor * mm.bounds(kappa).d_max, kappa=kappa)
    rng = np.random.Generator(np.random.PCG64(42))
    u0 = random_smooth_field(grid256, rng, amplitude=0.4, mean=kappa)
    state = mm.relax_to_steady(u0, params, t_end=100.0)
    assert state.modality == 0
    assert np.max(np.abs(state.field.values - kappa)) < 1e-7


def test_pattern_amplitude_grows_with_kappa(grid512):
    # fixed small diffusion, increasing kappa: stronger production focuses
    # the pattern and raises its peak-to-trough range
    spans = []
    for kappa in (1.5, 2.0, 2.5):
        params = mm.ModelParams(D=1e-3, kappa=kappa)
        state = mm.relax_to_steady(perturbed_constant(grid512, kappa), params, t_end=400.0)
        assert state.modality == 1
        spans.append(state.field.values.max() - state.field.values.min())
    assert spans[0] < spans[1] < spans[2]


def test_smaller_diffusion_concentrates_peak(grid512):
    widths = []
    for d_val in (1e-3, 2.5e-4):
        params = mm.ModelParams(D=d_val, kappa=3.0)
        state = mm.relax_to_steady(perturbed_constant(grid512, 3.0), params, t_end=400.0)
        values = state.field.values
        half = values.min() + 0.5 * (values.max() - values.min())
        widths.append(np.mean(values > half))
    assert widths[1] < widths[0]


def test_steady_mass_matches_kappa(grid256, unimodal_15, unimodal_16):
    for state in (unimodal_15, unimodal_16):
        assert abs(mm.integrate(state.field) - state.params.kappa) < 1e-6


def test_nonconstant_energy_below_constant(unimodal_15, unimodal_16, twomodal_16):
    for state in (unimodal_15, unimodal_16, twomodal_16):
        assert state.energy < -0.5 * state.params.kappa**2 - 1e-10


def test_rescale_identity(unimodal_15):
    assert mm.rescale_modal(unimodal_15, 1) is unimodal_15


def test_rescale_builds_two_modal(unimodal_16, twomodal_16):
    assert twomodal_16.modality == 2
    assert twomodal_16.params.D == pytest.approx(unimodal_16.params.D / 4.0)
    assert twomodal_16.params.kappa == unimodal_16.params.kappa
    assert twomodal_16.residual_norm < 1e-7
    # independent residual evaluation at the new parameters
    residual = mm.first_variation(twomodal_16.field, twomodal_16.params)
    assert np.sqrt(np.mean(residual.values**2)) < 1e-7


def test_rescale_rejects_unresolvable_compression(grid256):
    # an 8-fold compression pushes the profile beyond the grid's bandwidth
    params = mm.ModelParams(D=0.02, kappa=2.0)
    state = mm.relax_to_steady(perturbed_constant(grid256, 2.0), params, t_end=400.0)
    with pytest.raises(ResolutionError):
        mm.rescale_modal(state, 8)


@pytest.mark.parametrize("kappa", [1.9, 2.0])
def test_energy_is_invariant_under_rescale_modal(grid256, kappa):
    # J(v(m x); D) = J(v; m^2 D): the energy of every mode-m branch point
    # is that of the mode-1 point it is compressed from
    params = mm.ModelParams(D=0.02, kappa=kappa)
    state = mm.relax_to_steady(perturbed_constant(grid256, kappa), params, t_end=400.0)
    assert state.modality == 1
    want = mm.energy(state.field, params)
    for m in (2, 3, 4):
        rescaled = mm.rescale_modal(state, m)
        assert rescaled.params.D == params.D / m**2
        got = mm.energy(rescaled.field, rescaled.params)
        assert abs(got - want) <= 1e-14 * max(1.0, abs(want))


def test_rescale_rejects_bad_m(unimodal_15):
    for m in (0, "2", None):
        with pytest.raises(ConfigurationError):
            mm.rescale_modal(unimodal_15, m)


def test_steady_state_certification_rejects_large_residual(grid256):
    params = mm.ModelParams(D=0.01, kappa=1.5)
    with pytest.raises(ConvergenceError):
        mm.SteadyState(perturbed_constant(grid256, 1.5), params)


def test_certificate_comes_from_the_field(grid256, unimodal_16, twomodal_16):
    field, params = unimodal_16.field, unimodal_16.params
    with pytest.raises(TypeError):
        mm.SteadyState(field, params, residual_norm=0.0)
    # a reflection-asymmetric field far from any steady state
    x = grid256.nodes
    values = 1.6 + 0.3 * np.cos(2.0 * np.pi * x) + 0.2 * np.sin(4.0 * np.pi * x)
    with pytest.raises(ConvergenceError):
        mm.SteadyState(mm.Field(grid256, values), mm.ModelParams(D=0.01, kappa=1.6))
    # rebuilding a certified state reproduces its numbers bit for bit, and
    # they are the residual, peak count and energy of the field itself
    for state in (unimodal_16, twomodal_16):
        again = mm.SteadyState(state.field, state.params)
        assert (again.residual_norm, again.modality, again.energy) == (
            state.residual_norm, state.modality, state.energy
        )
        residual = mm.first_variation(state.field, state.params).values
        assert 0.0 < state.residual_norm == float(np.sqrt(np.mean(residual**2)))
        assert state.modality == reference_count_modes(state.field)
        assert state.energy == mm.energy(state.field, state.params)
    assert (unimodal_16.modality, twomodal_16.modality) == (1, 2)


def test_certificate_evaluates_exp_once(monkeypatch, unimodal_16, twomodal_16):
    # the residual's e^U also gives log(int e^U) for the energy
    calls, shifted_exp = [], _operators.shifted_exp

    def counting(values):
        calls.append(values.size)
        return shifted_exp(values)

    for module in (steady, _operators):
        monkeypatch.setattr(module, "shifted_exp", counting)
    for state in (unimodal_16, twomodal_16):
        calls.clear()
        again = mm.SteadyState(state.field, state.params)
        assert calls == [state.field.grid.n_points]
        assert again.energy == state.energy == mm.energy(state.field, state.params)


@settings(max_examples=200)
@given(st.integers(3, 11), st.floats(1e-3, 700.0), st.floats(1e-5, 1.0))
def test_constant_state_certificate_is_exact(log_n, kappa, D):
    state = mm.constant_state(mm.ModelParams(D=D, kappa=kappa), mm.make_grid(2**log_n))
    assert state.residual_norm == 0.0
    assert state.modality == 0
    assert state.energy == -0.5 * kappa**2


def test_constant_state_beyond_the_exp_guard(grid256):
    with pytest.raises(AmplitudeOverflowError):
        mm.constant_state(mm.ModelParams(D=0.01, kappa=700.5), grid256)


@settings(max_examples=200)
@given(st.integers(3, 9), st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 8))
def test_count_modes_fill_matches_the_loop(log_n, seed, levels, repeat):
    # rounded smooth samples, each repeated: long runs of exact ties,
    # plateaus at the peaks and ties across the wrap
    n = 2**log_n
    rng = np.random.Generator(np.random.PCG64(seed))
    coarse = random_smooth_field(mm.make_grid(n), rng).values[::repeat]
    values = np.repeat(np.round(coarse * levels) / levels, repeat)[:n]
    values = np.roll(values, int(rng.integers(n)))
    np.testing.assert_array_equal(turning_directions(values), loop_turning_directions(values))
    field = mm.Field(mm.make_grid(n), values)
    assert mm.count_modes(field) == reference_count_modes(field)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "call",
    [
        lambda g, p, bp: mm.newton_steady(perturbed_constant(g, 1.5), p, tol=NAN),
        lambda g, p, bp: mm.continue_branch(bp, step=NAN, grid=g),
        lambda g, p, bp: mm.continue_branch(bp, step=INF, grid=g),
        lambda g, p, bp: mm.continue_branch(bp, max_points=0, grid=g),
        lambda g, p, bp: mm.continue_branch(bp, kappa_range=(0.0, NAN), grid=g),
        lambda g, p, bp: mm.continue_branch(bp, kappa_range=(NAN, INF), grid=g),
        lambda g, p, bp: mm.continue_branch(bp, kappa_range=(2.0, 1.0), grid=g),
        lambda g, p, bp: mm.relax_to_steady(perturbed_constant(g, 1.5), p, steady_tol=NAN),
        lambda g, p, bp: mm.simulate(perturbed_constant(g, 1.5), p, t_end=1.0, steady_tol=NAN),
        lambda g, p, bp: mm.critical_kappas(INF, 1),
    ],
    ids=[
        "newton-tol-nan", "branch-step-nan", "branch-step-inf", "branch-max-points-0",
        "branch-kappa-max-nan", "branch-kappa-min-nan", "branch-kappa-range-reversed",
        "relax-steady-tol-nan", "simulate-steady-tol-nan", "critical-kappas-d-inf",
    ],
)
def test_entry_points_reject_invalid_numbers(grid256, call):
    params = mm.ModelParams(D=0.01, kappa=1.5)
    bp = mm.critical_kappas(0.02, 1)[0]
    with pytest.raises(ConfigurationError):
        call(grid256, params, bp)


@pytest.mark.parametrize("steady_tol", [0.0, -1.0])
def test_relaxation_refuses_a_detector_that_cannot_fire(monkeypatch, grid256, steady_tol):
    # the detector rate is >= 0, so such a threshold would spend the whole
    # step budget; it is refused before the first step
    def no_steps(*args):
        raise AssertionError("stepping started")

    monkeypatch.setattr(dynamics, "_Stepper", no_steps)
    params = mm.ModelParams(D=0.01, kappa=1.5)
    with pytest.raises(ConfigurationError, match="steady_tol must be positive"):
        mm.relax_to_steady(perturbed_constant(grid256, 1.5), params, t_end=1.0,
                           steady_tol=steady_tol)


def test_newton_tolerance_validation(grid256):
    params = mm.ModelParams(D=0.01, kappa=1.5)
    with pytest.raises(ConfigurationError):
        mm.newton_steady(perturbed_constant(grid256, 1.5), params, tol=1e-13)


@given(
    st.integers(0, 2**32 - 1),
    st.floats(1e-4, 0.02),
    st.integers(0, 255),
    st.booleans(),
)
def test_newton_is_translation_and_reflection_equivariant(unimodal_16, seed, amplitude, shift, flip):
    # Newton recenters its guess at the maximum, so a shifted or reflected
    # guess must polish to the same (node-0 centered) state as the original
    rng = np.random.Generator(np.random.PCG64(seed))
    grid = unimodal_16.field.grid
    guess = unimodal_16.field.values + random_smooth_field(grid, rng, amplitude).values
    moved = np.roll(guess, shift)
    if flip:
        moved = moved[-np.arange(grid.n_points)]  # u(-x)
    base = mm.newton_steady(mm.Field(grid, guess), unimodal_16.params)
    other = mm.newton_steady(mm.Field(grid, moved), unimodal_16.params)
    assert np.max(np.abs(other.field.values - base.field.values)) < 1e-10
    assert np.max(np.abs(base.field.values - unimodal_16.field.values)) < 1e-6
    assert other.energy == pytest.approx(base.energy, abs=1e-12)


def test_cross_validation_over_pattern_region(grid256):
    # two independent solvers agree on sampled pattern-region parameters
    rng = np.random.Generator(np.random.PCG64(43))
    cases = [
        (0.01, 1.5), (0.01, 1.8), (0.008, 1.6), (0.006, 1.4), (0.012, 1.7),
        (0.02, 2.0), (0.015, 1.9), (0.005, 1.3), (0.01, 2.2), (0.018, 2.1),
    ]
    for d_val, kappa in cases:
        params = mm.ModelParams(D=d_val, kappa=kappa)
        u0 = perturbed_constant(grid256, kappa, amplitude=0.02)
        route_a = mm.relax_to_steady(u0, params, t_end=400.0)
        summary = mm.simulate(u0, params, t_end=50.0, dt=1e-3)
        route_b = mm.newton_steady(summary.final_state, params)
        assert np.max(np.abs(route_a.field.values - route_b.field.values)) < 1e-7


def _relax_stats(caplog, *args, **kwargs):
    with caplog.at_level(logging.DEBUG, logger="mechmorph.steady"):
        state = mm.relax_to_steady(*args, **kwargs)
    records = [r for r in caplog.records if r.name == "mechmorph.steady"]
    assert len(records) == 1
    return state, records[0].relax_stats


def test_relax_logs_its_stats(caplog, grid256):
    params = mm.ModelParams(D=0.01, kappa=1.5)
    state, stats = _relax_stats(caplog, perturbed_constant(grid256, 1.5), params)
    assert isinstance(stats, mm.RelaxStats)
    assert "RelaxStats(accepted=" in caplog.text
    assert 0 < stats.accepted < 1000
    assert stats.rejected_energy == stats.rejected_nonfinite == stats.rejected_overflow == 0
    assert stats.final_h == 0.5
    assert stats.flow_time > 100.0
    assert stats.handoff_rate < 1e-9
    assert stats.newton_iterations >= 0
    assert 0.0 <= stats.newton_move < 1e-6
    assert state.modality == 1


def test_handoff_projects_each_relaxed_state_once(monkeypatch, grid256):
    # Newton starts from the projection that is also the baseline of the move
    calls, project = [], steady._even_project

    def counting(values):
        calls.append(values.size)
        return project(values)

    monkeypatch.setattr(steady, "_even_project", counting)
    mm.relax_to_steady(perturbed_constant(grid256, 1.5), mm.ModelParams(D=0.01, kappa=1.5))
    assert calls == [256]
    calls.clear()
    cell = mm.sweep([0.005], [1.15], trials=1, seed=13, n_points=128).cells[0]
    assert cell.classification == "bistable"
    assert calls == [128, 128]  # the bump and the noisy seed, one hand-off each


def test_relax_budget_counts_steps_not_flow_time(caplog, grid256):
    # the quickstart start needs about 121 time units at the longest step;
    # t_end = 100 still leaves a budget of 100,000 steps
    params = mm.ModelParams(D=0.01, kappa=1.5)
    state, stats = _relax_stats(caplog, perturbed_constant(grid256, 1.5), params, t_end=100.0)
    assert state.modality == 1
    assert stats.flow_time > 100.0
    with pytest.raises(ConvergenceError, match="within 100 steps"):
        mm.relax_to_steady(perturbed_constant(grid256, 1.5), params, dt=0.01, t_end=1.0)


def test_relax_stiff_sharp_peak(grid256):
    # D = 0.01, kappa = 8 from a large random start: the peak is sharp, and
    # long steps contract slowly near it
    xi = np.random.default_rng(1).standard_normal(256)
    u0 = mm.Field(grid256, 8.0 * (1.0 + 2.0 * xi))
    state = mm.relax_to_steady(u0, mm.ModelParams(D=0.01, kappa=8.0))
    assert state.modality == 1
    assert state.energy == pytest.approx(-120.43030312810612, rel=1e-12)


def test_newton_corrects_the_nyquist_coefficient():
    # a long-step flow leaves the (-1)^j coefficient off by ~1e-13; Newton
    # must be able to correct it to certify the full-grid residual
    grid = mm.make_grid(128)
    bump = np.exp(np.cos(2.0 * np.pi * grid.nodes))
    u0 = mm.Field(grid, 2.0 * bump / bump.mean())
    params = mm.ModelParams(D=0.005, kappa=2.0)
    state = mm.relax_to_steady(u0, params, dt=0.2, steady_tol=1e-7)
    assert state.modality == 1
    assert state.residual_norm < 1e-11
