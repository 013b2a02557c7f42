import numpy as np
import pytest

import mechmorph as mm
from mechmorph import bifurcation, stability, steady
from mechmorph.bifurcation import _detect_folds
from mechmorph.errors import (
    AmplitudeOverflowError,
    ConfigurationError,
    ConvergenceError,
    ResolutionError,
    SingularJacobianError,
)

from oracles import (
    mode_n_branch,
    per_point_branch,
    reference_classify_cell,
    two_pass_corrector_solve,
)

DEGENERATE_D = 1.0 / (8.0 * np.pi**2)


def test_critical_kappa_values():
    points = mm.critical_kappas(0.02, 3)
    assert [bp.n for bp in points] == [1, 2, 3]
    for bp in points:
        assert bp.kappa_n == pytest.approx(1.0 + 4.0 * np.pi**2 * bp.n**2 * 0.02, rel=1e-14)
        assert bp.kappa_n > 1.0


@pytest.mark.parametrize("n_max", [2.5, "2", 0])
def test_critical_kappas_rejects_a_bad_n_max(n_max):
    with pytest.raises(ConfigurationError):
        mm.critical_kappas(0.02, n_max)


def test_normal_form_constants_at_d_002():
    bp = mm.critical_kappas(0.02, 1)[0]
    assert bp.kappa_n == pytest.approx(1.789568352087149, rel=1e-12)
    assert bp.alpha_pp == pytest.approx(0.3281554771612688, rel=1e-10)
    assert bp.type == "supercritical"
    assert bp.z_amp == pytest.approx(bp.kappa_n / (24.0 * np.pi**2 * 0.02), rel=1e-12)


def test_normal_form_constants_at_d_0005():
    bp = mm.critical_kappas(0.005, 1)[0]
    assert bp.kappa_n == pytest.approx(1.1973920880217872, rel=1e-12)
    assert bp.kappa_n < 1.5
    assert bp.type == "subcritical"
    assert bp.alpha_pp < 0


def test_degenerate_threshold():
    bp = mm.critical_kappas(DEGENERATE_D, 1)[0]
    assert bp.type == "degenerate"
    assert abs(bp.alpha_pp) < 1e-12
    assert bp.kappa_n == pytest.approx(1.5, rel=1e-14)


def test_type_flips_across_threshold():
    below = mm.critical_kappas(DEGENERATE_D * 0.99, 1)[0]
    above = mm.critical_kappas(DEGENERATE_D * 1.01, 1)[0]
    assert below.type == "subcritical"
    assert above.type == "supercritical"
    # mode n changes type at D = 1 / (8 pi^2 n^2)
    for n in (2, 3):
        d_n = DEGENERATE_D / n**2
        assert mm.critical_kappas(d_n * 0.99, n)[n - 1].type == "subcritical"
        assert mm.critical_kappas(d_n * 1.01, n)[n - 1].type == "supercritical"


def test_predictor_at_zero_amplitude(grid256):
    bp = mm.critical_kappas(0.02, 1)[0]
    field, kappa = mm.predictor_from_normal_form(bp, 0.0, grid256)
    assert kappa == bp.kappa_n
    assert np.max(np.abs(field.values - bp.kappa_n)) < 1e-14


def test_predictor_matches_the_closed_form(grid256):
    bp = mm.critical_kappas(0.005, 1)[0]
    x = grid256.nodes
    for s in (0.05, 0.13, -0.2):
        field, kappa = mm.predictor_from_normal_form(bp, s, grid256)
        expected = (kappa + s * np.sqrt(2.0) * np.cos(2.0 * np.pi * x)
                    + s**2 * bp.z_amp * np.cos(4.0 * np.pi * x))
        assert kappa == bp.kappa_n + bp.curvature * s**2
        assert np.max(np.abs(field.values - expected)) < 1e-14


def test_predictor_mass_consistency(grid256):
    bp = mm.critical_kappas(0.02, 1)[0]
    field, kappa = mm.predictor_from_normal_form(bp, 0.1, grid256)
    assert mm.integrate(field) == pytest.approx(kappa, abs=1e-12)


@pytest.mark.parametrize("mode, n_points", [(4, 8), (9, 16)])
def test_predictor_refuses_a_mode_the_grid_cannot_hold(mode, n_points):
    # mode 4 on 8 points once landed its amplitude in the kappa slot, which
    # was then overwritten (a flat field at kappa_4); mode 9 on 16 points
    # raised IndexError
    bp = mm.critical_kappas(0.005, mode)[mode - 1]
    with pytest.raises(ConfigurationError, match=f"mode {mode} needs more than {n_points}"):
        mm.predictor_from_normal_form(bp, 0.05, mm.make_grid(n_points))
    # the largest mode below the Nyquist cosine is held
    below = mm.critical_kappas(0.005, n_points // 2 - 1)[-1]
    field, kappa = mm.predictor_from_normal_form(below, 0.05, mm.make_grid(n_points))
    assert kappa == below.kappa_n + below.curvature * 0.05**2
    assert np.ptp(field.values) > 0.1


def test_newton_converges_fast_from_predictor(grid256):
    bp = mm.critical_kappas(0.02, 1)[0]
    field, kappa = mm.predictor_from_normal_form(bp, 0.05, grid256)
    history = []
    state = mm.newton_steady(
        field, mm.ModelParams(D=bp.D, kappa=kappa), tol=1e-9, history=history
    )
    assert len(history) <= 4  # initial residual plus at most 3 corrections
    assert state.residual_norm < 1e-9


@pytest.mark.parametrize("D", [0.005, 0.02])
def test_branch_curvature_matches_corrected_constant(D, grid256):
    # fit kappa(s) - kappa_n = c s^2 on the corrected branch; c agrees with
    # alpha_pp / 3 (the chain-rule value), not with alpha_pp itself
    bp = mm.critical_kappas(D, 1)[0]
    branch = mm.continue_branch(bp, step=0.02, max_points=5, grid=grid256)
    amps = np.array([p.amplitude for p in branch.points[:4]])
    kappas = np.array([p.kappa for p in branch.points[:4]])
    fit = float(np.sum((kappas - bp.kappa_n) * amps**2) / np.sum(amps**4))
    assert fit == pytest.approx(bp.curvature, rel=0.05)
    assert fit != pytest.approx(bp.alpha_pp, rel=0.5)


def test_mode2_curvature_matches_corrected_constant(grid256):
    # the normal-form constants depend on n and D only through n^2 D, so the
    # n=2 branch at D=0.005 shares them with the n=1 branch at D=0.02
    bp2 = mm.critical_kappas(0.005, 2)[1]
    bp1 = mm.critical_kappas(0.02, 1)[0]
    assert bp2.alpha_pp == pytest.approx(bp1.alpha_pp, rel=1e-12)
    branch = mm.continue_branch(bp2, step=0.02, max_points=5, grid=grid256)
    amps = np.array([p.amplitude for p in branch.points[:4]])
    kappas = np.array([p.kappa for p in branch.points[:4]])
    fit = float(np.sum((kappas - bp2.kappa_n) * amps**2) / np.sum(amps**4))
    assert fit == pytest.approx(bp2.curvature, rel=0.05)


def test_branch_points_are_even_symmetric(grid256):
    bp = mm.critical_kappas(0.005, 1)[0]
    branch = mm.continue_branch(bp, step=0.06, max_points=6, grid=grid256)
    for point in branch.points:
        values = point.field.values
        reflected = values[(-np.arange(values.size)) % values.size]
        assert np.max(np.abs(values - reflected)) < 1e-10


def test_branch_second_harmonic_matches_z_amp(grid256):
    bp = mm.critical_kappas(0.02, 1)[0]
    branch = mm.continue_branch(bp, step=0.02, max_points=3, grid=grid256)
    point = branch.points[1]
    coef = np.fft.rfft(point.field.values, norm="forward")
    second = 2.0 * float(coef[2].real)  # cos(4 pi x) amplitude
    assert second / point.amplitude**2 == pytest.approx(bp.z_amp, rel=0.05)


def test_supercritical_branch_is_stable_near_onset(grid256):
    bp = mm.critical_kappas(0.02, 1)[0]
    branch = mm.continue_branch(bp, step=0.03, max_points=8, grid=grid256)
    assert branch.folds == []
    for point in branch.points:
        assert point.kappa > bp.kappa_n
        assert point.stable
        assert abs(np.max(point.field.values) - point.field.values[0]) < 1e-10


def test_mode2_branch_is_unstable_near_onset(grid256):
    bp = mm.critical_kappas(0.005, 2)[1]
    branch = mm.continue_branch(bp, step=0.03, max_points=6, grid=grid256)
    for point in branch.points:
        assert not point.stable
        assert point.leading_nu > 1e-8


def test_subcritical_branch_fold_and_exchange(grid256):
    bp = mm.critical_kappas(0.005, 1)[0]
    branch = mm.continue_branch(
        bp, step=0.06, max_points=60, kappa_range=(0.0, bp.kappa_n + 0.02), grid=grid256
    )
    assert branch.terminated_by == "kappa_bound"
    assert branch.reason is None
    assert len(branch.folds) == 1
    index, kappa_f = branch.folds[0]
    assert 0.0 < kappa_f < bp.kappa_n
    # before the fold kappa decreases and points are unstable; after, stable
    assert branch.points[index - 1].leading_nu > 0
    assert branch.points[index + 1].leading_nu < 0
    pre = [p.stable for p in branch.points[: index - 1]]
    post = [p.stable for p in branch.points[index + 2 :]]
    assert not any(pre)
    assert all(post)


def test_fold_law_near_the_type_flip(grid256):
    # the normal form kappa = kappa_1 + c2 s^2 + c4 s^4 puts the fold at
    # kappa_1 - c2^2 / (4 c4); with c2 = alpha_pp / 3 ~ 2 pi^2 (D - D*) the
    # ratio (kappa_1 - kappa_f) / (D* - D)^2 tends to pi^4 / c4, which
    # alpha_pp in place of alpha_pp / 3 would make 9 times larger
    flat = mm.continue_branch(
        mm.critical_kappas(DEGENERATE_D, 1)[0], step=0.02, max_points=9, grid=grid256
    )
    s = np.array([p.s for p in flat.points])
    kappa = np.array([p.kappa for p in flat.points])
    assert s.size == 9 and s.max() <= 0.18 + 1e-12
    c4, _ = np.linalg.lstsq(np.stack([s**4, s**6], axis=1), kappa - 1.5, rcond=None)[0]
    limit = np.pi**4 / c4
    gaps, drops = [], []
    for d_val in (0.0120, 0.0123, 0.0125):
        bp = mm.critical_kappas(d_val, 1)[0]
        branch = mm.continue_branch(bp, step=0.02, max_points=40, grid=grid256)
        assert len(branch.folds) == 1
        gaps.append(DEGENERATE_D - d_val)
        drops.append(bp.kappa_n - branch.folds[0][1])
    ratios = np.array(drops) / np.array(gaps) ** 2
    assert np.all(np.diff(ratios) < 0) and np.all(ratios > limit)
    assert np.all(np.abs(ratios / limit - 1.0) < 0.03)
    slope = np.polyfit(np.log(gaps), np.log(drops), 1)[0]
    assert abs(slope - 2.0) < 0.05


def test_uncertifiable_branch_point_reports_resolution():
    # the README call: the corrected point near kappa = 1.2645 has a
    # full-grid residual of 1.65e-8 with 96 of the 127 modes solved
    bp = mm.critical_kappas(0.005, 1)[0]
    branch = mm.continue_branch(bp, step=0.06, max_points=60)
    assert branch.terminated_by == "resolution"
    assert len(branch.points) == 32
    assert branch.reason == "ConvergenceError: residual norm 1.651e-08 exceeds 1e-08"


def test_fine_grid_branch_with_every_mode_reaches_its_bound(grid512):
    # the corrector stops at the round-off floor of the residual; with a
    # fixed 1e-11, which lies below that floor here, this branch ended
    # after 37 points with "ConvergenceError: corrector did not converge"
    bp = mm.critical_kappas(0.02, 1)[0]
    branch = mm.continue_branch(bp, step=0.05, max_points=200,
                                kappa_range=(0.0, bp.kappa_n + 1.0), grid=grid512, n_modes=255)
    assert (branch.terminated_by, branch.reason) == ("kappa_bound", None)
    assert branch.points[-1].kappa > bp.kappa_n + 1.0


def test_corrector_failure_keeps_its_cause(monkeypatch, grid256):
    correct = bifurcation._bordered_newton
    calls = []

    def fails_after_first_point(*args, **kwargs):
        calls.append(None)
        if len(calls) > 1:
            raise SingularJacobianError("injected")
        return correct(*args, **kwargs)

    monkeypatch.setattr(bifurcation, "_bordered_newton", fails_after_first_point)
    branch = mm.continue_branch(mm.critical_kappas(0.02, 1)[0], step=0.05, grid=grid256)
    assert len(branch.points) == 1
    assert (branch.terminated_by, branch.reason) == ("failure", "SingularJacobianError: injected")


def _singular(block):
    block[...] = 0.0


def _non_finite(block):
    block[...] = 0.0
    np.fill_diagonal(block, 5e-324)  # the triangular solve divides by subnormal pivots


def _uphill(block):
    np.negative(block, block)  # the step then climbs the residual


# each exit of the bordered Newton: how its Jacobian block is spoiled (None: no
# iterations allowed), the error it raises and the start of its message
NEWTON_EXITS = {
    "singular": (_singular, SingularJacobianError, "singular bordered Jacobian"),
    "non-finite": (_non_finite, SingularJacobianError, "non-finite Newton step"),
    "stalled": (_uphill, ConvergenceError, "Newton line search stalled at residual"),
    "iteration cap": (None, ConvergenceError, "Newton did not reach tol="),
}


@pytest.mark.parametrize("exit_name", NEWTON_EXITS)
def test_each_newton_exit_keeps_its_cause(monkeypatch, exit_name):
    spoil, error, message = NEWTON_EXITS[exit_name]
    dense = steady.linearization_dense

    def spoiled(*args):
        block = dense(*args)
        spoil(block)
        return block

    def break_newton(patch):
        if spoil is None:
            patch.setattr(steady, "NEWTON_MAX_ITER", 0)
        else:
            patch.setattr(steady, "linearization_dense", spoiled)

    grid, bp = mm.make_grid(64), mm.critical_kappas(0.02, 1)[0]
    guess = mm.Field(grid, 1.5 + 0.3 * np.cos(2.0 * np.pi * grid.nodes))
    with pytest.MonkeyPatch.context() as patch:
        break_newton(patch)
        with pytest.raises(error) as raised:
            mm.newton_steady(guess, mm.ModelParams(D=0.01, kappa=1.5))
        assert str(raised.value).startswith(message)
        with pytest.raises(ConvergenceError) as raised:
            mm.continue_branch(bp, max_points=10, grid=grid)
        first = "could not correct the first branch point: "
        assert str(raised.value).startswith(first + message)
        assert type(raised.value.__cause__) is error

    # every corrector after the first point's fails: the step halves down to
    # step / 64 and the branch ends with the last failure as its reason
    certify = bifurcation._rescale_modal

    def breaking_after_first_point(*args):
        break_newton(monkeypatch)
        return certify(*args)

    monkeypatch.setattr(bifurcation, "_rescale_modal", breaking_after_first_point)
    branch = mm.continue_branch(bp, max_points=10, grid=grid)
    assert len(branch.points) == 1
    assert branch.terminated_by == "failure"
    assert branch.reason.startswith(f"{error.__name__}: {message}")


@pytest.mark.parametrize("mode, grid_name", [(1, "grid256"), (2, "grid256"), (1, "grid512")],
                         ids=["mode1-n256", "mode2-n256", "mode1-n512"])
def test_corrector_matches_the_two_pass_oracle(monkeypatch, request, mode, grid_name):
    # one synthesis and one e^(U - max U) per iterate, shared by the
    # residual, the kappa column and the Jacobian, and the Jacobian and the
    # right-hand side assembled in place in arrays allocated once per call,
    # change no bit of a point
    grid = request.getfixturevalue(grid_name)
    bp = mm.critical_kappas(0.005, mode)[mode - 1]
    lean = mm.continue_branch(bp, max_points=15, grid=grid)
    monkeypatch.setattr(bifurcation, "_bordered_newton", two_pass_corrector_solve)
    reference = mm.continue_branch(bp, max_points=15, grid=grid)
    assert len(lean.points) == len(reference.points) == 15
    for got, want in zip(lean.points, reference.points):
        assert got.field.values.tobytes() == want.field.values.tobytes()
        assert (got.s, got.kappa, got.leading_nu, got.energy) == (
            want.s, want.kappa, want.leading_nu, want.energy
        )
    assert lean.folds == reference.folds
    assert (lean.terminated_by, lean.reason) == (reference.terminated_by, reference.reason)


@pytest.mark.parametrize("mode", [1, 2])
def test_branch_that_reaches_the_constant_state_ends_with_reconnect(monkeypatch, grid256, mode):
    # the constant state (kappa, 0, ..., 0, kappa) has residual exactly 0,
    # so it certifies; compressed m-fold it keeps m x 0 peaks, which a
    # check for exactly m peaks would turn into "resolution"
    correct = bifurcation._bordered_newton
    calls = []

    def reconnects(z, *args):
        calls.append(None)
        if len(calls) == 2:
            constant = np.zeros_like(z)
            constant[[0, -1]] = z[-1]
            return constant
        return correct(z, *args)

    monkeypatch.setattr(bifurcation, "_bordered_newton", reconnects)
    bp = mm.critical_kappas(0.005, mode)[mode - 1]
    branch = mm.continue_branch(bp, grid=grid256)
    assert (len(branch.points), branch.terminated_by, branch.reason) == (2, "reconnect", None)
    assert np.ptp(branch.points[-1].field.values) == 0.0


def test_each_mode2_point_is_certified_once(monkeypatch, grid256):
    # only the compressed state is certified, not the mode-1 field it came from
    residual = steady._residual
    calls = []

    def counted(*args):
        calls.append(None)
        return residual(*args)

    monkeypatch.setattr(steady, "_residual", counted)
    branch = mm.continue_branch(mm.critical_kappas(0.005, 2)[1], max_points=5, grid=grid256)
    assert len(branch.points) == 5
    assert len(calls) == 5


def test_mode2_branch_matches_the_mode_n_oracle(grid256):
    # the branch workload's mode-2 call: traced at D in the cosine modes of
    # the 2-peaked field, the branch runs out of resolved modes after 44
    # points; as the mode-1 branch at 4 D, compressed, it reaches the bound
    bp = mm.critical_kappas(0.005, 2)[1]
    kappa_range = (0.0, bp.kappa_n + 1.0)
    branch = mm.continue_branch(bp, step=0.05, max_points=120, kappa_range=kappa_range,
                                grid=grid256)
    oracle = mode_n_branch(bp, 0.05, 120, kappa_range, grid256)
    assert (len(oracle.points), oracle.terminated_by) == (44, "resolution")
    assert (len(branch.points), branch.terminated_by, branch.reason) == (57, "kappa_bound", None)
    assert branch.origin is bp and branch.folds == oracle.folds == []
    for got, want in zip(branch.points, oracle.points):
        assert got.s == want.s and got.stable == want.stable
        for name in ("kappa", "amplitude", "leading_nu", "energy"):
            assert abs(getattr(got, name) - getattr(want, name)) < 1e-13
        assert np.max(np.abs(got.field.values - want.field.values)) < 1e-10
    for point in branch.points:
        state = mm.SteadyState(point.field, mm.ModelParams(D=bp.D, kappa=point.kappa))
        assert state.modality == 2


def assert_same_branch(got, want):
    """Every BranchPoint field byte for byte, the folds and the ends."""
    assert len(got.points) == len(want.points)
    for a, b in zip(got.points, want.points):
        assert a.field.values.tobytes() == b.field.values.tobytes()
        assert a.stable == b.stable
        for name in ("s", "kappa", "amplitude", "leading_nu", "energy"):
            assert float(getattr(a, name)).hex() == float(getattr(b, name)).hex()
    assert [(i, kf.hex()) for i, kf in got.folds] == [(i, kf.hex()) for i, kf in want.folds]
    assert (got.terminated_by, got.reason) == (want.terminated_by, want.reason)


# (D, mode, n_points, step, max_points, kappa above kappa_n or None): the six
# calls of the branch benchmark workload, then the README call
BRANCH_CALLS = [
    (0.005, 1, 256, 0.05, 120, 1.0), (0.01, 1, 256, 0.05, 120, 1.0),
    (0.005, 1, 256, 0.06, 60, 0.02), (0.02, 1, 256, 0.05, 120, 1.0),
    (0.005, 2, 256, 0.05, 120, 1.0), (0.005, 1, 512, 0.05, 120, 1.0),
    (0.005, 1, 256, 0.06, 60, None),
]


@pytest.mark.parametrize("D, mode, n, step, max_points, margin", BRANCH_CALLS)
def test_stacked_branch_spectra_match_the_per_point_oracle(D, mode, n, step, max_points, margin):
    # spectra taken in stacks after correction leave every point, fold and end as they were
    bp = mm.critical_kappas(D, mode)[mode - 1]
    kwargs = dict(step=step, max_points=max_points, grid=mm.make_grid(n),
                  kappa_range=None if margin is None else (0.0, bp.kappa_n + margin))
    assert_same_branch(mm.continue_branch(bp, **kwargs), per_point_branch(bp, **kwargs))


@pytest.mark.parametrize("where, error", [
    ("first", ResolutionError), ("mid-stack", ResolutionError),
    ("end of a stack", ConfigurationError), ("last queued", ResolutionError),
])
def test_a_failed_spectrum_ends_the_branch_where_the_oracle_does(monkeypatch, grid256, where,
                                                                 error):
    # the D = 0.005 branch takes 38 points, its spectra in stacks of
    # stack_rows; the last stack is taken after its certificate fails at point 39
    bp = mm.critical_kappas(0.005, 1)[0]
    kwargs = dict(step=0.05, max_points=120, kappa_range=(0.0, bp.kappa_n + 1.0), grid=grid256)
    intact = mm.continue_branch(bp, **kwargs)
    stack_rows = stability._stack_rows(256)
    assert len(intact.points) == 38 and 4 <= stack_rows < 37
    row = {"first": 0, "mid-stack": stack_rows + stack_rows // 2,
           "end of a stack": stack_rows - 1, "last queued": 37}[where]
    target = intact.points[row].field.values.tobytes()
    stack_spectra = stability._stack_spectra

    def failing_on_target(states, *args):
        results = stack_spectra(states, *args)
        return [error("injected") if state.field.values.tobytes() == target else result
                for state, result in zip(states, results)]

    monkeypatch.setattr(stability, "_stack_spectra", failing_on_target)
    if row == 0:  # the first point's error propagates
        for trace in (mm.continue_branch, per_point_branch):
            with pytest.raises(error, match="injected"):
                trace(bp, **kwargs)
        return
    branch = mm.continue_branch(bp, **kwargs)
    assert len(branch.points) == row
    ends = "resolution" if error is ResolutionError else "failure"
    assert (branch.terminated_by, branch.reason) == (ends, f"{error.__name__}: injected")
    assert_same_branch(branch, per_point_branch(bp, **kwargs))


def test_coarse_grid_is_rejected_before_any_corrector_work(monkeypatch):
    # a mode-m branch needs 8 m + 2 points: mode 8 on 64 points is refused
    def corrector_runs(*args, **kwargs):
        raise AssertionError("the corrector ran")

    monkeypatch.setattr(bifurcation, "_bordered_newton", corrector_runs)
    bp = mm.critical_kappas(0.005, 8)[7]
    with pytest.raises(ConfigurationError):
        mm.continue_branch(bp, grid=mm.make_grid(64))


def test_branch_points_are_certified_steady_states(grid256):
    bp = mm.critical_kappas(0.02, 1)[0]
    branch = mm.continue_branch(bp, step=0.05, max_points=5, grid=grid256)
    for point in branch.points:
        residual = mm.first_variation(point.field, mm.ModelParams(D=bp.D, kappa=point.kappa))
        assert np.sqrt(np.mean(residual.values**2)) < 1e-8
        assert abs(mm.integrate(point.field) - point.kappa) < 1e-6


def test_branch_arclength_steps_bounded(grid256):
    bp = mm.critical_kappas(0.005, 1)[0]
    step = 0.06
    branch = mm.continue_branch(bp, step=step, max_points=40, grid=grid256)
    svals = np.array([p.s for p in branch.points])
    assert np.all(np.diff(svals) > 0)
    assert np.all(np.diff(svals) < 2.0 * step)


def test_branches_of_distinct_modes_stay_apart(grid256):
    d_val = 0.005
    b1 = mm.continue_branch(mm.critical_kappas(d_val, 1)[0], step=0.06, max_points=25, grid=grid256)
    b2 = mm.continue_branch(mm.critical_kappas(d_val, 2)[1], step=0.06, max_points=25, grid=grid256)
    pts1 = np.array([[p.kappa, p.amplitude, p.energy] for p in b1.points])
    pts2 = np.array([[p.kappa, p.amplitude, p.energy] for p in b2.points])
    gaps = np.min(
        np.max(np.abs(pts1[:, None, :] - pts2[None, :, :]), axis=2)
    )
    assert gaps > 1e-3


def test_detect_folds_on_synthetic_parabola():
    # kappa(s) = 1 - (s - 1)^2 folds at s = 1 with kappa_f = 1
    s = np.linspace(0.4, 1.6, 13)
    folds = _detect_folds(s, 1.0 - (s - 1.0) ** 2)
    assert len(folds) == 1
    index, kappa_f = folds[0]
    assert kappa_f == pytest.approx(1.0, abs=1e-12)
    assert abs(s[index] - 1.0) < 0.2


def test_detect_folds_needs_no_folds_for_monotone():
    s = np.linspace(0.1, 1.0, 10)
    assert _detect_folds(s, 1.0 + s) == []


def test_continue_branch_validates_inputs(grid256):
    bp = mm.critical_kappas(0.02, 1)[0]
    with pytest.raises(ConfigurationError):
        mm.continue_branch(bp, step=-0.1, grid=grid256)
    with pytest.raises(ConfigurationError):
        mm.continue_branch(bp, n_modes=1, grid=grid256)


@pytest.mark.parametrize("max_points", [200, 1])
def test_first_point_outside_kappa_range_ends_the_branch(grid256, max_points):
    # the range lies wholly below kappa_1 = 1.790: the first corrected point
    # is outside it, so it is the branch's only point
    bp = mm.critical_kappas(0.02, 1)[0]
    branch = mm.continue_branch(bp, max_points=max_points, kappa_range=(0.0, 1.0), grid=grid256)
    assert len(branch.points) == 1
    assert branch.points[0].kappa > 1.0
    assert branch.terminated_by == "kappa_bound"


def test_sweep_classifies_three_regimes():
    result = mm.sweep([0.02], [1.5, 2.2], trials=2, seed=5, n_points=128, t_end=300.0)
    classes = {(c.D, c.kappa): c.classification for c in result.cells}
    assert classes[(0.02, 1.5)] == "constant-only"
    assert classes[(0.02, 2.2)] == "pattern-only"
    for cell in result.cells:
        assert cell.kappa_c == pytest.approx(1.0 + 4.0 * np.pi**2 * 0.02, rel=1e-12)
    assert set(result.overlays) == {"kappa_c", "d_min", "d_max"}


def test_sweep_deterministic_and_parallel_consistent():
    kwargs = dict(trials=1, seed=9, n_points=128, t_end=200.0)
    serial = mm.sweep([0.02], [2.0], workers=1, **kwargs)
    pooled = mm.sweep([0.02], [2.0], workers=2, **kwargs)
    assert [c.classification for c in serial.cells] == [c.classification for c in pooled.cells]


@pytest.mark.parametrize(
    "d_val, kappa, trials, seed, expected",
    [
        (0.005, 1.15, 1, 13, "bistable"),
        (0.02, 1.15, 3, 0, "constant-only"),
        (0.002, 2.5, 1, 0, "pattern-only"),
    ],
)
def test_stacked_cell_matches_seed_by_seed_oracle(d_val, kappa, trials, seed, expected):
    # a cell relaxes its seeds as one stack; each row is bit-identical to
    # its seed relaxed alone, so the cell reads as if relaxed seed by seed
    cell = mm.sweep([d_val], [kappa], trials=trials, seed=seed, n_points=128).cells[0]
    (child,) = np.random.SeedSequence(seed).spawn(1)
    reference = reference_classify_cell(d_val, kappa, trials, child, 128, 400.0)
    assert cell.classification == expected
    assert (cell.classification, cell.n_outcomes, cell.failures) == (
        reference.classification, reference.n_outcomes, reference.failures
    )


def test_sweep_validates_inputs(monkeypatch):
    with pytest.raises(ConfigurationError):
        mm.sweep([], [1.0])
    with pytest.raises(ConfigurationError):
        mm.sweep([0.01], [-1.0])
    # checked before any cell runs: a negative trial count would classify a
    # cell from the bump seed alone, and workers < 1 would run serially
    monkeypatch.setattr(bifurcation, "_classify_cell", lambda args: pytest.fail("cell ran"))
    with pytest.raises(ConfigurationError, match="trials must be >= 0"):
        mm.sweep([0.02], [1.15], trials=-2, n_points=64, t_end=50)
    for workers in (0, -3):
        with pytest.raises(ConfigurationError, match="workers must be >= 1"):
            mm.sweep([0.02], [1.15], workers=workers, n_points=64, t_end=50)


def test_sweep_takes_the_bounds_of_each_kappa_once(monkeypatch):
    kappas = [1.15, 1.5, 2.2]
    calls = []
    monkeypatch.setattr(bifurcation, "bounds", lambda kappa: calls.append(kappa) or mm.bounds(kappa))
    monkeypatch.setattr(bifurcation, "_classify_cell", lambda args: None)
    overlays = mm.sweep([0.01, 0.02], kappas, trials=0, n_points=64, t_end=50).overlays
    assert calls == kappas
    for name in ("d_min", "d_max"):
        expected = np.array([getattr(mm.bounds(kappa), name) for kappa in kappas])
        assert overlays[name].tobytes() == expected.tobytes()


@pytest.mark.parametrize("t_end", [np.inf, np.nan, -1.0])
def test_sweep_rejects_bad_t_end_before_any_cell(monkeypatch, t_end):
    # checked up front: no cell may read "unknown" from swallowed failures
    monkeypatch.setattr(bifurcation, "_classify_cell", lambda args: pytest.fail("cell ran"))
    with pytest.raises(ConfigurationError, match="t_end must be positive and finite"):
        mm.sweep([0.02], [2.0], trials=1, t_end=t_end)


def test_a_seed_that_fails_its_relaxation_is_counted(monkeypatch):
    # every seed at kappa = 800 starts beyond the exp() guard: each row of the
    # cell's stack ends with the guard's error, which the hand-off raises
    handed = []
    handoff = bifurcation._handoff

    def recording(flow, *args):
        handed.append(flow)
        return handoff(flow, *args)

    monkeypatch.setattr(bifurcation, "_handoff", recording)
    cell = mm.sweep([0.02], [800.0], trials=2).cells[0]
    assert cell.failures == ("AmplitudeOverflowError",) * 3
    assert (cell.n_failed, cell.n_outcomes, cell.classification) == (3, 0, "unknown")
    assert [type(flow) for flow in handed] == [AmplitudeOverflowError] * 3


def test_sweep_counts_failed_seeds(monkeypatch):
    # the bistable cell of criterion 8: random seeds relax to the constant
    # state, the bump seed to the pattern.  If the bump fails, the cell must
    # not read constant-only.  Failures are injected into the hand-off from
    # each relaxed row to Newton, which runs in seed order.
    handoff = bifurcation._handoff

    def failing_on_bump(flow, params, *args):
        if np.ptp(flow[0].values) > 1.0:  # only the bump seed relaxes that far
            raise ConvergenceError("injected failure")
        return handoff(flow, params, *args)

    kwargs = dict(trials=1, seed=13, n_points=128)
    intact = mm.sweep([0.005], [1.15], **kwargs).cells[0]
    assert (intact.classification, intact.failures, intact.n_failed) == ("bistable", (), 0)
    monkeypatch.setattr(bifurcation, "_handoff", failing_on_bump)
    cell = mm.sweep([0.005], [1.15], **kwargs).cells[0]
    assert cell.failures == ("ConvergenceError",)
    assert cell.n_failed == 1
    assert cell.n_outcomes == 1
    assert cell.classification == "unknown"

    def failing_on_every_seed(flow, params, *args):
        if np.ptp(flow[0].values) > 1.0:
            raise ConvergenceError("injected failure")
        raise AmplitudeOverflowError("injected failure")

    monkeypatch.setattr(bifurcation, "_handoff", failing_on_every_seed)
    cell = mm.sweep([0.005], [1.15], **kwargs).cells[0]
    assert cell.failures == ("ConvergenceError", "AmplitudeOverflowError")  # bump first
    assert (cell.n_failed, cell.n_outcomes, cell.classification) == (2, 0, "unknown")
