import dataclasses
import gc
import logging
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import mechmorph as mm
from mechmorph import stability, steady
from mechmorph.errors import ConfigurationError, ResolutionError
from mechmorph.grid import irfft, rfft
from mechmorph.stability import _interlaces, _secular_solve, _zero_counts

from conftest import perturbed_constant
from oracles import (
    count_sign_changes,
    density_form_hessian,
    eager_coefficient_rows,
    overlap_translation,
    scalar_secular_roots,
    unshifted_coupling,
)

MU_1 = 4.0 * np.pi**2


def constant_report(grid, D, kappa):
    state = mm.constant_state(mm.ModelParams(D=D, kappa=kappa), grid)
    return state, mm.nonlocal_spectrum(state)


def truncation(dense):
    """K of a full-basis matrix of 2K + 1 rows."""
    return (dense.shape[0] - 1) // 2


def test_linearization_diagonal_at_constant(grid256):
    D, kappa = 0.01, 1.2
    state = mm.constant_state(mm.ModelParams(D=D, kappa=kappa), grid256)
    dense = mm.assemble_linearization(state)
    mu = np.concatenate([[0.0], np.repeat(MU_1 * np.arange(1, truncation(dense) + 1) ** 2, 2)])
    expected = np.diag(kappa - 1.0 - D * mu)
    expected[0, 0] = -1.0
    assert np.max(np.abs(dense - expected)) < 1e-12


def test_linearization_is_symmetric(unimodal_16):
    dense = mm.assemble_linearization(unimodal_16)
    assert np.max(np.abs(dense - dense.T)) < 1e-10


def test_linearization_is_negative_hessian(unimodal_16):
    # assembled from A, C, M; the energy Hessian from the density formulas
    dense = mm.assemble_linearization(unimodal_16)
    hess = density_form_hessian(unimodal_16.field, unimodal_16.params, truncation(dense))
    assert np.max(np.abs(dense + hess)) < 1e-10


def test_energy_hessian_duality_of_spectra(unimodal_16):
    dense = mm.assemble_linearization(unimodal_16)
    hess = density_form_hessian(unimodal_16.field, unimodal_16.params, truncation(dense))
    lead_l = np.linalg.eigvalsh(dense).max()
    small_h = np.linalg.eigvalsh(hess).min()
    assert abs(lead_l + small_h) < 1e-8


def test_constant_state_spectrum_closed_form(grid256):
    D, kappa = 0.01, 1.2
    _, report = constant_report(grid256, D, kappa)
    expected_nu1 = kappa - 1.0 - D * MU_1
    assert report.nonlocal_eigs[0] == pytest.approx(expected_nu1, abs=1e-12)
    assert report.verdict == "stable"
    assert np.min(np.abs(report.nonlocal_eigs + 1.0)) < 1e-10  # mass mode at -1


def test_constant_state_threshold_flip(grid256):
    D = 0.01
    kappa_c = 1.0 + MU_1 * D
    _, below = constant_report(grid256, D, kappa_c - 1e-3)
    _, above = constant_report(grid256, D, kappa_c + 1e-3)
    assert below.verdict == "stable"
    assert above.verdict == "unstable"


def test_constant_state_marginal_at_threshold(grid256):
    D = 0.01
    _, report = constant_report(grid256, D, 1.0 + MU_1 * D)
    assert report.verdict == "marginal"


def test_local_spectrum_constant_state(grid256):
    D, kappa = 0.008, 1.3
    state = mm.constant_state(mm.ModelParams(D=D, kappa=kappa), grid256)
    local = mm.local_spectrum(state)
    # A(x) = kappa - 1 constant: lambda_0 = kappa - 1, pairs at kappa-1-D mu_k
    assert local.lambdas[0] == pytest.approx(kappa - 1.0, abs=1e-12)
    for k in range(1, (local.lambdas.size - 1) // 2 + 1):
        expected = kappa - 1.0 - D * MU_1 * k**2
        assert local.lambdas[2 * k - 1] == pytest.approx(expected, abs=1e-11)
        assert local.lambdas[2 * k] == pytest.approx(expected, abs=1e-11)
    assert local.zero_counts[0] == 0
    assert list(local.zero_counts[1:5]) == [2, 2, 4, 4]


def test_local_ordering_chain(unimodal_16):
    local = mm.local_spectrum(unimodal_16)
    lam = local.lambdas
    assert lam[0] - lam[1] > 1e-10  # simple leading eigenvalue
    assert np.all(np.diff(lam) <= 1e-12)  # sorted decreasing
    for j in range(3):
        assert lam[2 * j] - lam[2 * j + 1] >= -1e-12


def test_batched_zero_counts_match_scalar_loop():
    rows = np.array([
        [1e-3, -2e-3, 1e-3, -1e-3, 2e-3, -1e-3, 1e-3, -1e-3],  # all below its floor
        [0.0, 0.0, 0.0, 5.0, 1e-12, -1e-12, 0.0, 0.0],  # one significant entry
        [0.0, 1.0, 0.0, -1.0, 0.0, 1.0, 0.0, 0.0],  # exact zeros between the signs
        [-1.0, 1.0, 1.0, 2.0, 1.0, 3.0, 1.0, 1.0],  # second change across the wrap
        [2.0, -0.5, 2.0, -3.0, 0.4, 1.0, -0.2, 1.0],  # floor 0.45 hides two entries
        [2.0, -0.5, 2.0, -3.0, 0.4, 1.0, -0.2, 1.0],  # same row, floor 0
        [0.0] * 8,  # nothing significant at any floor
    ])
    floors = np.array([0.01, 0.0, 0.0, 0.0, 0.45, 0.0, 0.0])
    expected = [count_sign_changes(row, floor) for row, floor in zip(rows, floors)]
    assert expected == [0, 0, 2, 2, 4, 6, 0]
    assert list(_zero_counts(rows, floors)) == expected
    rng = np.random.Generator(np.random.PCG64(5))
    rows = rng.standard_normal((200, 33)) * (rng.random((200, 33)) < 0.7)
    rows *= 10.0 ** rng.integers(-4, 4, size=(200, 1))
    floors = rng.choice([0.0, 1e-3, 0.5, 5.0], size=200)
    expected = [count_sign_changes(row, floor) for row, floor in zip(rows, floors)]
    assert list(_zero_counts(rows, floors)) == expected


@pytest.mark.parametrize("row, expected", [(0, 0), (1, 2), (4, 4)])
def test_oscillation_check_rejects_a_wrong_count(monkeypatch, unimodal_16, row, expected):
    counts = stability._zero_counts

    def one_extra_on_row(functions, floors):
        result = counts(functions, floors)
        result[row] += 1
        return result

    monkeypatch.setattr(stability, "_zero_counts", one_extra_on_row)
    message = f"eigenfunction {row} has {expected + 1} sign changes, expected {expected}"
    with pytest.raises(ResolutionError, match=message):
        mm.local_spectrum(unimodal_16)


def test_zero_counts_cover_the_checked_rows(unimodal_16, twomodal_16):
    # the tunneling pair of the 2-modal state ripples in its flat tails:
    # without the significance floors its row 1 reads 6 sign changes
    for state in (unimodal_16, twomodal_16):
        assert list(mm.local_spectrum(state).zero_counts) == [0, 2, 2, 4, 4]


def test_eigenfunctions_are_a_read_only_orthonormal_array(unimodal_16):
    local = mm.local_spectrum(unimodal_16)
    functions = local.eigenfunctions
    n = unimodal_16.field.grid.n_points
    assert functions.shape == (local.lambdas.size, n)
    gram = functions @ functions.T / n  # grid mean of products
    assert np.max(np.abs(gram - np.eye(local.lambdas.size))) < 1e-12
    with pytest.raises(ValueError):
        functions[0, 0] = 1.0


def test_translation_mode_in_local_spectrum(unimodal_16):
    local = mm.local_spectrum(unimodal_16)
    idx = int(np.argmin(np.abs(local.lambdas)))
    assert abs(local.lambdas[idx]) < 1e-7
    ux = mm.from_spectral(mm.first_derivative(mm.to_spectral(unimodal_16.field))).values
    mode = local.eigenfunctions[idx]
    corr = abs(mode @ ux) / (np.linalg.norm(mode) * np.linalg.norm(ux))
    assert corr > 1.0 - 1e-6


def test_translation_mode_in_nonlocal_spectrum(unimodal_16, twomodal_16):
    for state in (unimodal_16, twomodal_16):
        report = mm.nonlocal_spectrum(state)
        assert report.translation_nu is not None
        assert abs(report.translation_nu) < 1e-7


def test_single_term_secular_equation():
    lam0, beta, m_coef = 2.0, 0.7, 3.0
    local = mm.LocalSpectrum(
        lambdas=np.array([lam0]), n_points=0, zero_counts=np.array([0]),
        vectors=None,
    )
    roots = mm.secular_roots(local, np.array([beta]), m_coef)
    assert roots.size == 1
    assert roots[0] == pytest.approx(lam0 - m_coef * beta**2, abs=1e-10)


def test_secular_requires_positive_m():
    local = mm.LocalSpectrum(
        lambdas=np.array([1.0]), n_points=0, zero_counts=np.array([0]),
        vectors=None,
    )
    with pytest.raises(ConfigurationError):
        mm.secular_roots(local, np.array([1.0]), 0.0)


def test_secular_merge_rule():
    # a double eigenvalue with two couplings merges into one summand and
    # keeps the shared value as an eigenvalue of the full problem
    lam = np.array([1.0, 1.0, -1.0])
    betas = np.array([0.6, 0.8, 0.5])
    local = mm.LocalSpectrum(
        lambdas=lam, n_points=0, zero_counts=np.zeros(3, int),
        vectors=None,
    )
    m_coef = 0.5
    roots = mm.secular_roots(local, betas, m_coef)
    assert roots.size == 3
    assert np.min(np.abs(roots - 1.0)) < 1e-12  # the decoupled combination
    # remaining roots solve 1/M = 1/(1 - nu) + 0.25/(-1 - nu) with merged
    # beta^2 = 1.0; verify by substitution
    others = sorted(r for r in roots if abs(r - 1.0) > 1e-9)
    for nu in others:
        lhs = 1.0 / (1.0 - nu) + 0.25 / (-1.0 - nu)
        assert lhs == pytest.approx(1.0 / m_coef, abs=1e-9)


@pytest.mark.parametrize("kappa", [1.2, 25.0])
def test_constant_state_secular_structure(grid256, kappa):
    # only the constant eigenfunction couples: its bracket root sits at -1
    # and every trigonometric eigenvalue carries over verbatim, also where
    # e^kappa lifts the round-off betas of the cosines far above 1e-9
    state, report = constant_report(grid256, 0.01, kappa)
    solution = _secular_solve(report.local, report.betas, report.M)
    assert solution.roots.size == solution.poles.size == 1  # the bracket below the one pole
    root, upper = solution.roots[0], solution.poles[0]
    assert root == pytest.approx(-1.0, abs=1e-10)
    assert root < upper and upper == pytest.approx(kappa - 1.0, abs=1e-12)
    assert len(solution.verbatim) == report.local.lambdas.size - 1


@pytest.fixture(scope="module")
def quickstart_state(grid256):
    """The README quickstart state: D = 0.01, kappa = 1.5 from 1.5 + 0.01 cos."""
    u0 = mm.Field(grid256, 1.5 + 0.01 * np.cos(2.0 * np.pi * grid256.nodes))
    return mm.relax_to_steady(u0, mm.ModelParams(D=0.01, kappa=1.5))


@pytest.mark.parametrize(
    "name", ["unimodal_16", "twomodal_16", "constant_1.2", "constant_25", "quickstart_state"]
)
def test_secular_roots_equal_scalar_bisection(request, grid256, name):
    # the vectorized solver evaluates every secular value in the scalar
    # order, so the roots agree bit for bit, not to a tolerance
    if name.startswith("constant"):
        kappa = float(name.split("_")[1])
        state = mm.constant_state(mm.ModelParams(D=0.01, kappa=kappa), grid256)
    else:
        state = request.getfixturevalue(name)
    report = mm.nonlocal_spectrum(state)
    roots = mm.secular_roots(report.local, report.betas, report.M)
    assert np.array_equal(roots, scalar_secular_roots(report.local, report.betas, report.M))


def test_interlacing_detects_a_crossing(unimodal_16):
    report = mm.nonlocal_spectrum(unimodal_16)
    lambdas, nus = report.local.lambdas, report.nonlocal_eigs
    assert _interlaces(lambdas, nus)
    i = 3
    scale = max(1.0, np.max(np.abs(lambdas)))
    moved = nus.copy()
    moved[i] = lambdas[i] + 1e-9 * scale  # past its upper local neighbour
    assert not _interlaces(lambdas, moved)
    moved = nus.copy()
    moved[i] = lambdas[i + 1] - 1e-9 * scale  # below its lower one
    assert not _interlaces(lambdas, moved)


@st.composite
def secular_problems(draw):
    """Decreasing lambdas with one exact coincident pair, betas with some
    exact zeros, and M > 0."""
    size = draw(st.integers(2, 12))
    top = draw(st.floats(-5.0, 5.0))
    gaps = draw(st.lists(st.floats(1e-2, 5.0), min_size=size - 1, max_size=size - 1))
    lambdas = top - np.concatenate([[0.0], np.cumsum(gaps)])
    pair = draw(st.integers(0, size - 2))
    lambdas[pair + 1] = lambdas[pair]
    magnitudes = draw(st.lists(st.floats(0.1, 2.0), min_size=size, max_size=size))
    signs = draw(st.lists(st.sampled_from([-1.0, 0.0, 1.0]), min_size=size, max_size=size))
    betas = np.array(magnitudes) * np.array(signs)
    return lambdas, betas, draw(st.floats(1e-2, 10.0))


@given(secular_problems())
def test_secular_roots_match_dense_rank_one_update(problem):
    lambdas, betas, m_coef = problem
    local = mm.LocalSpectrum(
        lambdas=lambdas, n_points=0, zero_counts=np.zeros(lambdas.size, int),
        vectors=None,
    )
    roots = mm.secular_roots(local, betas, m_coef)
    dense = np.linalg.eigvalsh(np.diag(lambdas) - m_coef * np.outer(betas, betas))[::-1]
    assert roots.shape == dense.shape
    assert np.max(np.abs(roots - dense)) <= 1e-9 * max(1.0, np.max(np.abs(lambdas)))
    assert _interlaces(lambdas, roots)


def test_crosscheck_logs_secular_stats(caplog, unimodal_16):
    with caplog.at_level(logging.DEBUG, logger="mechmorph.stability"):
        check = mm.spectrum_crosscheck(unimodal_16)
    records = [r for r in caplog.records if r.name == "mechmorph.stability"]
    assert len(records) == 1
    stats = records[0].secular_stats
    assert isinstance(stats, mm.SecularStats)
    assert "SecularStats(brackets=" in caplog.text
    # every local eigenvalue is either a pole with one root below it, or
    # carried over verbatim
    assert stats.brackets + stats.verbatim == check.report.local.lambdas.size
    assert 0 <= stats.pinned < stats.brackets
    # each sweep halves every open bracket, the widest of which (the lowest,
    # 1-2 spectral radii wide here) needs at most log2(width / 1e-12) halvings
    scale = max(1.0, np.max(np.abs(check.report.local.lambdas)))
    assert 0 < stats.sweeps <= np.ceil(np.log2(4.0 * scale / 1e-12))


def test_crosscheck_constant_exact(grid256):
    state = mm.constant_state(mm.ModelParams(D=0.01, kappa=1.2), grid256)
    check = mm.spectrum_crosscheck(state)
    assert check.max_deviation < 1e-10
    assert check.interlacing_ok


def test_crosscheck_unimodal(unimodal_16):
    check = mm.spectrum_crosscheck(unimodal_16)
    assert check.max_deviation < 1e-6
    assert check.interlacing_ok


def test_crosscheck_two_modal(twomodal_16):
    check = mm.spectrum_crosscheck(twomodal_16)
    assert check.max_deviation < 1e-6
    assert check.interlacing_ok
    report = mm.nonlocal_spectrum(twomodal_16)
    assert report.verdict == "unstable"
    assert report.nonlocal_eigs[0] > 0


def test_crosscheck_refuses_a_secular_spectrum_that_deviates(monkeypatch, unimodal_16):
    solve = stability._secular_solve

    def shifted(*args):
        solution = solve(*args)
        return dataclasses.replace(solution, roots=solution.roots + 1e-3)

    monkeypatch.setattr(stability, "_secular_solve", shifted)
    with pytest.raises(ResolutionError, match="spectrum cross-check deviation") as raised:
        mm.spectrum_crosscheck(unimodal_16)
    direct, secular = raised.value.direct, raised.value.secular
    assert direct.size == secular.size == stability.N_COMPARE
    assert np.array_equal(direct, mm.nonlocal_spectrum(unimodal_16).nonlocal_eigs[: direct.size])
    assert np.max(np.abs(direct - secular)) >= stability.CROSSCHECK_TOL


def test_instability_criterion_from_oscillation(twomodal_16):
    # the profile derivative has >= 3 sign changes, hence instability
    ux = mm.from_spectral(mm.first_derivative(mm.to_spectral(twomodal_16.field))).values
    signs = np.sign(ux[np.abs(ux) > 1e-9 * np.abs(ux).max()])
    changes = int(np.sum(signs != np.roll(signs, 1)))
    assert changes >= 3
    assert mm.nonlocal_spectrum(twomodal_16).verdict == "unstable"


def test_stable_pattern_reports_marginal_with_negative_leading(unimodal_16):
    report = mm.nonlocal_spectrum(unimodal_16)
    assert report.verdict == "marginal"  # translation zero mode
    assert report.leading_nu < -1e-3


def test_betas_of_odd_eigenfunctions_vanish(unimodal_16):
    report = mm.nonlocal_spectrum(unimodal_16)
    # parity: the n_modes sine eigenfunctions decouple exactly
    n_modes = (report.betas.size - 1) // 2
    assert int(np.sum(report.betas == 0.0)) == n_modes
    assert report.M > 0


def named_state(request, name):
    """A test state by fixture name; "modal_family_k2[m]" is the m-modal
    member of that family."""
    if name.startswith("modal_family_k2["):
        return request.getfixturevalue("modal_family_k2")[int(name[-2])]
    return request.getfixturevalue(name)


@pytest.mark.parametrize(
    "name", ["constant", "unimodal_16", "twomodal_16", "modal_family_k2[3]"]
)
def test_split_spectrum_matches_full_basis_matrix(request, grid256, name):
    # the unsplit full-basis assembly is the oracle for the reflection split
    # and, for the multimodal states, for the period classes within it
    if name == "constant":
        state = mm.constant_state(mm.ModelParams(D=0.01, kappa=1.2), grid256)
    else:
        state = named_state(request, name)
    full = np.sort(np.linalg.eigvalsh(mm.assemble_linearization(state)))[::-1]
    split = mm.nonlocal_spectrum(state).nonlocal_eigs
    assert full.shape == split.shape
    assert np.max(np.abs(full - split)) <= 1e-10 * max(1.0, np.max(np.abs(full)))


@pytest.mark.parametrize("name", ["twomodal_16", "modal_family_k2[3]"])
def test_only_class_zero_cosines_couple(request, name):
    # a 1/m-periodic state couples only the eigenfunctions that are even
    # and 1/m-periodic, the cosines of wavenumbers k = 0 mod m
    state = named_state(request, name)
    m = state.modality
    report = mm.nonlocal_spectrum(state)
    rows = report.local.coefficients
    k = np.arange(rows.shape[1])
    # the fixtures peak at x = 0, so cosine rows are real and sine rows imaginary
    cosine = np.abs(rows.real).max(axis=1) > np.abs(rows.imag).max(axis=1)
    class0 = np.abs(rows[:, k % m == 0]).max(axis=1) > np.abs(rows[:, k % m != 0]).max(axis=1)
    coupled = cosine & class0
    small = np.abs(report.betas) <= 1e-13 * np.max(np.abs(report.betas))
    assert np.count_nonzero(~coupled) == 2 * (k.size - 1) - (k.size - 1) // m
    assert np.all(small[~coupled])
    # the coupling of a deep class-0 cosine decays with the coefficients of
    # e^U; in the leading half of the spectrum every one of them couples
    lead = np.arange(small.size) < small.size // 2
    assert not np.any(small[coupled & lead])
    # the unstable leading mode is a coarsening mode that the coupling misses
    scale = max(1.0, np.max(np.abs(report.local.lambdas)))
    gap = np.abs(report.local.lambdas[~coupled] - report.nonlocal_eigs[0])
    assert report.verdict == "unstable" and np.min(gap) <= 1e-10 * scale


@pytest.mark.parametrize(
    "name",
    [
        "constant", "unimodal_15", "unimodal_16", "twomodal_16",
        "modal_family_k2[1]", "modal_family_k2[2]", "modal_family_k2[3]",
    ],
)
def test_rows_built_on_read_equal_the_eager_rows(request, grid256, name):
    # a spectrum keeps the block eigenvectors and builds rows when they are
    # read; the rank scatter of every row at once is the bit-identity
    # reference, and its leading rows give the zero counts
    if name == "constant":
        state = mm.constant_state(mm.ModelParams(D=0.01, kappa=1.2), grid256)
    else:
        state = named_state(request, name)
    local = mm.local_spectrum(state)
    cos_vecs, sin_vecs, order, _ = local.vectors
    eager = eager_coefficient_rows(*local.vectors)
    rows, n = local.coefficients, local.n_points
    assert rows.shape == eager.shape and rows.tobytes() == eager.tobytes()
    assert not rows.flags.writeable
    assert local.eigenfunctions.tobytes() == irfft(eager, n).tobytes()
    n_modes = sin_vecs.shape[0]
    tail, checked = min(n_modes, max(2, n_modes // 4)), order[: stability.N_VERIFY]
    last = np.hstack([cos_vecs[-tail:], sin_vecs[-tail:]])[:, checked]
    floors = 10.0 * np.linalg.norm(last, axis=0)
    functions = irfft(eager[: checked.size], n)
    assert list(local.zero_counts) == [
        count_sign_changes(f, floor) for f, floor in zip(functions, floors)
    ]


@pytest.mark.parametrize("name", ["twomodal_16", "modal_family_k2[2]", "modal_family_k2[3]"])
def test_uncoupled_classes_keep_their_local_eigenvalues(monkeypatch, request, name):
    # the coupling vector is round-off on the classes r != 0, so their local
    # eigenvalues are eigenvalues of L; class 0 is diagonalized with it
    state = named_state(request, name)
    # the blocks, e^U's mean and the class eigenvalues of the spectrum, a stack of one
    seen, parts, class_eigh = {"eigh": []}, stability.linearization_parts, stability._class_eigh

    def spy_parts(exp_u, *args):
        seen["mean"], seen["parts"] = float(exp_u[1][0, 0]), parts(exp_u, *args)
        return seen["parts"]

    def spy_eigh(matrix, classes):
        result = class_eigh(matrix, classes)
        seen["eigh"].append((result[0][0], classes))
        return result

    monkeypatch.setattr(stability, "linearization_parts", spy_parts)
    monkeypatch.setattr(stability, "_class_eigh", spy_eigh)
    report = mm.nonlocal_spectrum(state)
    cos_local, c_vec = seen["parts"][0][0], seen["parts"][1][0]
    m_shifted = state.params.kappa / seen["mean"] ** 2  # as the spectrum forms M, in floats
    (sin_vals, _), (cos_vals, classes) = seen["eigh"]
    assert len(classes) == state.modality // 2 + 1
    coupled = cos_local - m_shifted * np.outer(c_vec, c_vec)
    blocks = [np.linalg.eigvalsh(coupled[np.ix_(idx, idx)]) for idx in classes]
    uncoupled = cos_vals[classes[0].size :]
    scale = max(1.0, np.max(np.abs(report.nonlocal_eigs)))
    assert np.max(np.abs(uncoupled - np.concatenate(blocks[1:]))) <= 1e-14 * scale
    expected = np.sort(np.concatenate([blocks[0], uncoupled, sin_vals]))[::-1]
    assert np.array_equal(report.nonlocal_eigs, expected)
    # the coupling moves the class-0 eigenvalues (the mass mode the most)
    assert np.max(np.abs(blocks[0] - cos_vals[: classes[0].size])) > 1e-3


def test_spectrum_keeps_no_coefficient_rows(modal_family_k2):
    # n = 2048, m = 1 at K = 512: the complex rows of all 2K + 1 local
    # eigenvectors would take 8.4 MB; the report keeps the real block
    # eigenvectors, and the spectrum builds only the checked rows
    state = modal_family_k2[1]
    report = mm.nonlocal_spectrum(state)  # one-time costs before measuring
    n_modes = (report.local.lambdas.size - 1) // 2
    assert (n_modes, state.modality) == (512, 1)
    rows = (2 * n_modes + 1) * (n_modes + 1) * np.dtype(complex).itemsize
    del report
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        report = mm.nonlocal_spectrum(state)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.verdict == "marginal"
    assert kept - base < rows
    assert peak - base < 1.5 * rows


def test_period_needs_every_off_class_coefficient_below_tolerance(twomodal_16):
    coef = np.fft.rfft(twomodal_16.field.values)  # a peak sits at x = 0
    top = np.max(np.abs(coef))
    assert stability._period(coef, 2) == 2
    assert stability._period(coef, 1) == stability._period(coef, 0) == 1
    leaky = coef.copy()
    leaky[5] = 0.5 * stability.SYMMETRY_TOL * top
    assert stability._period(leaky, 2) == 2
    leaky[5] = 2.0 * stability.SYMMETRY_TOL * top
    assert stability._period(leaky, 2) == 1


def shifted_copy(state, shift):
    """The state rolled by 37 nodes, and moved by a further half cell for
    shift="half-cell" (a Fourier shift)."""
    values = np.roll(state.field.values, 37)
    if shift == "half-cell":
        n = values.size
        half_cell = np.exp(-1j * np.pi * np.arange(n // 2 + 1) / n)
        values = np.fft.irfft(np.fft.rfft(values) * half_cell, n)
    return mm.SteadyState(mm.Field(state.field.grid, values), state.params)


def test_shifted_copies_keep_the_spectrum(unimodal_16):
    # a rolled copy and a half-cell Fourier shift of it are recentered before
    # the split; eigenfunctions come back on the shifted state's own grid
    reference = mm.nonlocal_spectrum(unimodal_16)
    for shift in ("rolled", "half-cell"):
        state = shifted_copy(unimodal_16, shift)
        report = mm.nonlocal_spectrum(state)
        lead = report.nonlocal_eigs[:10] - reference.nonlocal_eigs[:10]
        assert np.max(np.abs(lead)) <= 1e-10
        assert report.verdict == reference.verdict
        assert abs(report.translation_nu) <= 1e-12
        betas, _ = unshifted_coupling(state, report.local)
        assert np.max(np.abs(report.betas - betas)) <= 1e-12 * np.max(np.abs(betas))


@pytest.mark.parametrize("name, variant", [
    ("unimodal_16", None), ("twomodal_16", None), ("modal_family_k2[1]", None),
    ("modal_family_k2[2]", None), ("modal_family_k2[3]", None),
    ("unimodal_16", "rolled"), ("unimodal_16", "half-cell"),
    ("twomodal_16", "period 1"), ("modal_family_k2[2]", "period 1"),
    ("modal_family_k2[3]", "period 1"),
])
def test_sturm_translation_matches_the_overlap_oracle(monkeypatch, request, name, variant):
    # Sturm's rule picks U_x by its m/p - 1 zeros in the half period; the sine
    # eigenvector that overlaps U_x most is the oracle.  With the period
    # patched to 1 an m-modal state is solved unsplit (p = 1, m >= 2), where
    # U_x is the m-th sine eigenvector rather than the first of its class
    state = named_state(request, name)
    if variant == "period 1":
        monkeypatch.setattr(stability, "_period", lambda coef, m: np.ones(len(coef), dtype=int))
    elif variant is not None:
        state = shifted_copy(state, variant)
    report = mm.nonlocal_spectrum(state)
    translation, leading = overlap_translation(state, report)
    assert np.float64(report.translation_nu).tobytes() == np.float64(translation).tobytes()
    assert np.float64(report.leading_nu).tobytes() == np.float64(leading).tobytes()
    assert abs(translation) < 1e-7


def test_spectrum_rejects_asymmetric_state(grid256, monkeypatch):
    # the field is far from steady; lift the residual threshold so that it
    # reaches the spectrum's own symmetry check
    monkeypatch.setattr(steady, "RESIDUAL_CERT", math.inf)
    x = grid256.nodes
    values = 1.6 + 0.3 * np.cos(2.0 * np.pi * x) + 0.2 * np.sin(4.0 * np.pi * x)
    state = mm.SteadyState(mm.Field(grid256, values), mm.ModelParams(D=0.01, kappa=1.6))
    with pytest.raises(ResolutionError):
        mm.nonlocal_spectrum(state)


def test_coupling_data_match_unshifted_formula(unimodal_16):
    # betas and M come from the shifted assembly; the unshifted integrals
    # over the local eigenfunctions are the reference
    report = mm.nonlocal_spectrum(unimodal_16)
    betas, m_coef = unshifted_coupling(unimodal_16, report.local)
    assert np.max(np.abs(report.betas - betas)) <= 1e-12 * np.max(np.abs(betas))
    assert report.M == pytest.approx(m_coef, rel=1e-12)


def test_spectrum_rejects_unrepresentable_coupling(grid256):
    # M = kappa e^(-2 kappa) underflows the normal double range at kappa = 400
    state = mm.constant_state(mm.ModelParams(D=0.01, kappa=400.0), grid256)
    with pytest.raises(ConfigurationError):
        mm.nonlocal_spectrum(state)


def test_spectrum_transforms_the_state_once(monkeypatch, grid512):
    # on more than 256 points the truncation reads the bandwidth from the
    # rfft that also recenters the state
    params = mm.ModelParams(D=0.01, kappa=1.5)
    state = mm.relax_to_steady(perturbed_constant(grid512, 1.5), params, t_end=400.0)
    # K from the state's own transform
    n_modes = stability._default_modes(stability.rfft(state.field.values), 512)
    explicit = mm.nonlocal_spectrum(state)
    calls = []
    rfft = stability.rfft

    def counting(values, *args):
        calls.append(values)
        return rfft(values, *args)

    monkeypatch.setattr(stability, "rfft", counting)
    report = mm.nonlocal_spectrum(state)
    assert len(calls) == 1  # of the stack of one: the state's values as its one row
    assert calls[0].shape == (1, 512) and calls[0].tobytes() == state.field.values.tobytes()
    assert report.local.lambdas.size == 2 * n_modes + 1
    assert report.nonlocal_eigs.tobytes() == explicit.nonlocal_eigs.tobytes()
    assert report.local.lambdas.tobytes() == explicit.local.lambdas.tobytes()


def local_bytes(local):
    """Every field of a LocalSpectrum as bytes."""
    arrays = (local.lambdas, local.zero_counts, *local.vectors)
    return [(a.dtype.str, a.shape, a.tobytes()) for a in arrays], local.n_points


def report_bytes(result):
    """Every field of an EigenReport as bytes, or an error's class and message."""
    if isinstance(result, Exception):
        return type(result).__name__, str(result)
    scalars = (result.M, result.leading_nu, result.translation_nu)
    return (local_bytes(result.local), result.betas.tobytes(), result.nonlocal_eigs.tobytes(),
            result.verdict, [None if x is None else np.float64(x).tobytes() for x in scalars])


def alone(spectrum, state):
    try:
        return spectrum(state)
    except mm.MechmorphError as exc:
        return exc


@pytest.fixture(scope="module")
def stack_pool(grid256, grid512):
    """States of every stack key: the n = 512, D = 0.005 branch (K runs from
    64 to 128 along it), mode-2 and mode-3 points (period classes), two
    constant states (the second's M underflows) and one reflection-asymmetric
    state, whose certificate is waived to reach the spectrum's check."""
    bps = mm.critical_kappas(0.005, 3)
    branches = [mm.continue_branch(bps[0], kappa_range=(0.0, bps[0].kappa_n + 1.0), grid=grid512)]
    branches += [mm.continue_branch(bp, max_points=4, grid=grid256) for bp in bps[1:]]
    states = [mm.SteadyState(p.field, mm.ModelParams(D=0.005, kappa=p.kappa))
              for branch in branches for p in branch.points]
    states += [mm.constant_state(mm.ModelParams(D=0.01, kappa=kappa), grid256)
               for kappa in (1.2, 400.0)]
    x = grid256.nodes
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(steady, "RESIDUAL_CERT", math.inf)
        values = 1.6 + 0.3 * np.cos(2.0 * np.pi * x) + 0.2 * np.sin(4.0 * np.pi * x)
        states.append(mm.SteadyState(mm.Field(grid256, values), mm.ModelParams(D=0.01, kappa=1.6)))
    return states, [report_bytes(alone(mm.nonlocal_spectrum, state)) for state in states]


def test_stack_pool_covers_every_kind_of_row(stack_pool):
    states, singles = stack_pool
    sizes = [s.field.grid.n_points for s in states]
    keys = {(n, stability._default_modes(rfft(s.field.values), n), s.modality)
            for n, s in zip(sizes, states)}
    assert {k for n, k, m in keys if n == 512} >= {64, 128}
    assert {m for _, _, m in keys} == {0, 1, 2, 3}
    errors = [single for single in singles if isinstance(single[0], str)]
    assert errors == [
        ("ConfigurationError", "state too large to represent the coupling constant M"),
        ("ResolutionError", "steady state is not reflection-symmetric about a peak"),
    ]


@given(picks=st.lists(st.integers(0, 10**6), min_size=1, max_size=24))
def test_a_stack_gives_each_state_its_spectrum_alone(stack_pool, picks):
    # rows of mixed grids, truncations, periods and modalities, repeats and
    # failing rows, in any order: each is byte for byte the state's own
    states, singles = stack_pool
    picks = [i % len(states) for i in picks]
    for i, result in zip(picks, stability._spectra([states[i] for i in picks])):
        assert report_bytes(result) == singles[i]


def test_the_whole_pool_as_one_stack(stack_pool):
    # the local spectrum alone too; an M out of range leaves it to local_spectrum
    states, singles = stack_pool
    for index in (range(len(states)), reversed(range(len(states)))):
        index = list(index)
        for i, result in zip(index, stability._spectra([states[i] for i in index])):
            assert report_bytes(result) == singles[i]
            if hasattr(result, "local"):
                assert local_bytes(result.local) == local_bytes(mm.local_spectrum(states[i]))


def test_local_spectrum_does_not_need_the_coupling_constant(grid256):
    # M = kappa e^(-2 kappa) underflows at kappa = 400; the local problem is fine
    state = mm.constant_state(mm.ModelParams(D=0.01, kappa=400.0), grid256)
    local = mm.local_spectrum(state)
    assert local.lambdas.size == 2 * (256 // 4) + 1 and local.lambdas[0] == pytest.approx(399.0)
