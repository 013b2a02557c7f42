"""The four benchmark workloads.

Each workload builds its inputs from the seed in ``setup`` and then runs
three stages.  A stage is a fixed list of top-level calls into the public
``mechmorph`` API; every call is checked, so each timed stage is also a
correctness run.  A check returns a list of failure messages (empty when
the output is right).

The library is reached through attribute lookups on the package at call
time (``mm.relax_to_steady(...)``), so the wrappers that tracing installs
are the ones that run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import mechmorph as mm

# energy of the README quickstart state (D=0.01, kappa=1.5, n=256); it does
# not depend on the noise in the start, which only picks the translation
QUICKSTART_ENERGY = -1.2219597647608902
FOLD_KAPPA = 1.06356  # subcritical fold of the D=0.005 mode-1 branch

# reference-kernel mixes (probe.py): flow steps, dense spectra, or both
LOOP, DENSE, BOTH = ("loop",), ("dense",), ("loop", "dense")


@dataclass
class Tally:
    """Top-level calls attempted and the messages of those that failed."""

    attempted: int = 0
    failures: list = field(default_factory=list)

    def call(self, label: str, fn: Callable, *args, check=None, **kwargs):
        """Run one top-level call; a raise or a failed check counts against it."""
        self.attempted += 1
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # the benchmark must go on and report it
            self.failures.append(f"{label}: raised {type(exc).__name__}: {exc}")
            return None
        problems = check(result) if check is not None else []
        if problems:
            self.failures.append(f"{label}: " + "; ".join(problems))
        return result


@dataclass(frozen=True)
class Workload:
    name: str
    uses_seed: bool
    setup: Callable[[int], dict]
    # (name, function, reference kernels whose mix matches its work; probe.py)
    stages: tuple[tuple[str, Callable[[dict, Tally], None], tuple[str, ...]], ...]
    # named figures derived from the stage medians, for the run's detail line
    derived: Callable[[dict, dict], dict] = lambda ctx, stage_s: {}


def even_noise(rng: np.random.Generator, n: int) -> np.ndarray:
    """Zero-mean noise, even about x = 0, scaled to max |.| = 1."""
    raw = rng.standard_normal(n)
    even = 0.5 * (raw + raw[(-np.arange(n)) % n])
    even -= even.mean()
    return even / np.max(np.abs(even))


def _warm_up(grid, params) -> None:
    """Pay one-time lazy costs (FFT plans, LAPACK buffers) before timing."""
    start = params.kappa + 0.01 * np.cos(2.0 * np.pi * grid.nodes)
    mm.simulate(mm.Field(grid, start), params, t_end=0.1)
    mm.nonlocal_spectrum(mm.constant_state(params, grid))


def _state_checks(state, modality: int, params) -> list[str]:
    problems = []
    if state.modality != modality:
        problems.append(f"modality {state.modality} != {modality}")
    if not state.residual_norm < 1e-8:
        problems.append(f"residual {state.residual_norm:.3e} not certified")
    mass = float(np.mean(state.field.values))
    if abs(mass - params.kappa) >= 1e-6:
        problems.append(f"mass {mass!r} != kappa {params.kappa!r}")
    return problems


def _crosscheck_checks(check) -> list[str]:
    problems = []
    if not check.max_deviation < 1e-6:
        problems.append(f"crosscheck deviation {check.max_deviation:.3e}")
    if not check.interlacing_ok:
        problems.append("secular brackets do not interlace")
    return problems


# --- quickstart --------------------------------------------------------------


def _quickstart_setup(seed: int) -> dict:
    grid = mm.make_grid(256)
    params = mm.ModelParams(D=0.01, kappa=1.5)
    rng = np.random.Generator(np.random.PCG64(seed))
    start = 1.5 + 0.01 * np.cos(2.0 * np.pi * grid.nodes)
    u0 = mm.Field(grid, start * (1.0 + 1e-3 * even_noise(rng, grid.n_points)))
    _warm_up(grid, params)
    return {"params": params, "u0": u0, "state": None}


def _quickstart_relax(ctx: dict, tally: Tally) -> None:
    params = ctx["params"]

    def check(state):
        problems = _state_checks(state, 1, params)
        if abs(state.energy - QUICKSTART_ENERGY) > 1e-9 * abs(QUICKSTART_ENERGY):
            problems.append(f"energy {state.energy!r} != {QUICKSTART_ENERGY!r}")
        return problems

    ctx["state"] = tally.call("relax_to_steady", mm.relax_to_steady, ctx["u0"], params, check=check)


def _quickstart_spectrum(ctx: dict, tally: Tally) -> None:
    state = ctx["state"]
    if state is None:  # the relax stage failed and was counted
        return

    def check_report(report):
        return [] if report.leading_nu < 0.0 else [f"leading nu {report.leading_nu:.3e} >= 0"]

    tally.call("nonlocal_spectrum", mm.nonlocal_spectrum, state, check=check_report)
    tally.call("spectrum_crosscheck", mm.spectrum_crosscheck, state, check=_crosscheck_checks)


def _quickstart_trajectory(ctx: dict, tally: Tally) -> None:
    u0, params = ctx["u0"], ctx["params"]
    m0 = float(np.mean(u0.values))

    def check(summary):
        problems = []
        if summary.step_count != 20_000:
            problems.append(f"{summary.step_count} steps, expected 20000")
        exact = params.kappa + (m0 - params.kappa) * np.exp(-summary.times)
        mass_err = float(np.max(np.abs(summary.masses - exact)))
        if mass_err > 1e-12:
            problems.append(f"mass-law error {mass_err:.3e}")
        scale = max(1.0, float(np.max(np.abs(summary.energies))))
        if summary.max_energy_increment > 1e-12 * scale:
            problems.append(f"energy rose by {summary.max_energy_increment:.3e}")
        return problems

    tally.call(
        "simulate", mm.simulate, u0, params, t_end=20.0, dt=1e-3, steady_tol=0.0, check=check
    )


# --- phase_map ---------------------------------------------------------------

# (D, kappa, trials, sweep seed or None for the run's seed).  The bistable
# cell's random trial relaxes to the constant state at a rate near zero
# (kappa is 0.047 below kappa_1), so its cost grows with the log of the
# noise's cos(2 pi x) content and doubles between seeds (75k-151k steps on
# seeds 0-9).  No median absorbs that, so the cell always uses the seed of
# acceptance criterion 8, 13.  The constant-only cell averages three trials
# of 10k-15k steps each, which keeps its cost within 8% between seeds.
PHASE_CELLS = {
    "bistable": (0.005, 1.15, 1, 13),
    "constant": (0.02, 1.15, 3, None),
    "pattern": (0.002, 2.5, 1, None),
}
EXPECTED_CLASS = {"bistable": "bistable", "constant": "constant-only", "pattern": "pattern-only"}


def _phase_setup(seed: int) -> dict:
    d_val, kappa, _, _ = PHASE_CELLS["bistable"]
    _warm_up(mm.make_grid(128), mm.ModelParams(D=d_val, kappa=kappa))
    return {"seed": seed}


def _phase_stage(cell: str):
    d_val, kappa, trials, fixed_seed = PHASE_CELLS[cell]

    def run(ctx: dict, tally: Tally) -> None:
        def check(result):
            got = [c.classification for c in result.cells]
            return [] if got == [EXPECTED_CLASS[cell]] else [f"classified {got}"]

        seed = ctx["seed"] if fixed_seed is None else fixed_seed
        tally.call(
            f"sweep({d_val}, {kappa}, seed={seed})", mm.sweep, [d_val], [kappa],
            trials=trials, seed=seed, n_points=128, workers=1, check=check,
        )

    return run


# --- branch ------------------------------------------------------------------


def _branch_setup(seed: int) -> dict:
    # deterministic: continuation takes no random input, the seed is unused
    grids = {n: mm.make_grid(n) for n in (256, 512)}
    _warm_up(grids[256], mm.ModelParams(D=0.005, kappa=1.2))
    return {"grids": grids, "points": {}}


def _continue(ctx, tally, D, mode, n, step=0.05, max_points=120, kappa_margin=1.0, check=None):
    bp = mm.critical_kappas(D, mode)[mode - 1]
    label = f"continue_branch(D={D}, mode={mode}, n={n}, step={step})"
    branch = tally.call(
        label, mm.continue_branch, bp,
        step=step, max_points=max_points, kappa_range=(0.0, bp.kappa_n + kappa_margin),
        grid=ctx["grids"][n], check=check,
    )
    ctx["points"][label] = len(branch.points) if branch is not None else 0


def _has_fold_near(kappa_f: float | None):
    def check(branch):
        problems = [] if len(branch.points) >= 10 else [f"only {len(branch.points)} points"]
        if len(branch.folds) != 1:
            return problems + [f"folds {branch.folds}, expected one"]
        index, kappa = branch.folds[0]
        if kappa_f is not None and abs(kappa - kappa_f) > 1e-4:
            problems.append(f"fold at kappa {kappa!r}, expected {kappa_f}")
        before, after = branch.points[index - 1], branch.points[min(index + 1, len(branch.points) - 1)]
        if before.stable == after.stable:
            problems.append("no exchange of stability across the fold")
        return problems

    return check


def _no_fold(branch) -> list[str]:
    problems = [] if len(branch.points) >= 10 else [f"only {len(branch.points)} points"]
    return problems + ([f"unexpected folds {branch.folds}"] if branch.folds else [])


def _branch_folds(ctx: dict, tally: Tally) -> None:
    _continue(ctx, tally, 0.005, 1, 256, check=_has_fold_near(FOLD_KAPPA))
    _continue(ctx, tally, 0.01, 1, 256, check=_has_fold_near(None))
    # the call of acceptance criterion 8
    _continue(ctx, tally, 0.005, 1, 256, step=0.06, max_points=60, kappa_margin=0.02,
              check=_has_fold_near(FOLD_KAPPA))


def _branch_smooth(ctx: dict, tally: Tally) -> None:
    _continue(ctx, tally, 0.02, 1, 256, check=_no_fold)
    _continue(ctx, tally, 0.005, 2, 256, check=_no_fold)


def _branch_fine(ctx: dict, tally: Tally) -> None:
    _continue(ctx, tally, 0.005, 1, 512, check=_has_fold_near(FOLD_KAPPA))


# --- fine_spectra ------------------------------------------------------------

FINE_STATES = ((1024, 1), (2048, 1), (1024, 2), (2048, 2), (1024, 3))


def _fine_setup(seed: int) -> dict:
    rng = np.random.Generator(np.random.PCG64(seed))
    states = {}
    for n, m in FINE_STATES:
        grid = mm.make_grid(n)
        params = mm.ModelParams(D=2e-3 * m * m, kappa=2.0)
        start = 2.0 + 0.1 * np.cos(2.0 * np.pi * grid.nodes)
        u0 = mm.Field(grid, start * (1.0 + 1e-3 * even_noise(rng, n)))
        relaxed = mm.relax_to_steady(u0, params, dt=0.05, t_end=300.0)
        states[n, m] = mm.rescale_modal(relaxed, m)
    _warm_up(grid, params)
    return {"states": states}


def _fine_stage(m: int):
    def run(ctx: dict, tally: Tally) -> None:
        for (n, modes), state in ctx["states"].items():
            if modes != m:
                continue

            def check_report(report, state=state):
                problems = _state_checks(state, m, state.params)
                if m >= 2 and report.verdict != "unstable":
                    problems.append(f"verdict {report.verdict}, expected unstable")
                return problems

            tally.call(f"nonlocal_spectrum(n={n}, m={m})", mm.nonlocal_spectrum, state,
                       check=check_report)
            tally.call(f"spectrum_crosscheck(n={n}, m={m})", mm.spectrum_crosscheck, state,
                       check=_crosscheck_checks)

    return run


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="quickstart",
            uses_seed=True,
            setup=_quickstart_setup,
            stages=(
                ("relax", _quickstart_relax, LOOP),
                ("spectrum", _quickstart_spectrum, BOTH),
                ("trajectory", _quickstart_trajectory, LOOP),
            ),
            derived=lambda ctx, st: {
                "steady_s": st["relax"],
                "spectrum_s": st["spectrum"],
                "trajectory_steps_per_s": 20_000 / st["trajectory"],
            },
        ),
        Workload(
            name="phase_map",
            uses_seed=True,
            setup=_phase_setup,
            stages=tuple((cell, _phase_stage(cell), LOOP) for cell in PHASE_CELLS),
        ),
        Workload(
            name="branch",
            uses_seed=False,
            setup=_branch_setup,
            stages=(
                ("folds", _branch_folds, BOTH),
                ("smooth", _branch_smooth, BOTH),
                ("n512", _branch_fine, BOTH),
            ),
            derived=lambda ctx, st: {
                "branch_points_per_s": sum(ctx["points"].values()) / sum(st.values())
            },
        ),
        Workload(
            name="fine_spectra",
            uses_seed=True,
            setup=_fine_setup,
            stages=tuple((f"m{m}", _fine_stage(m), DENSE) for m in (1, 2, 3)),
            derived=lambda ctx, st: {"spectrum_s": sum(st.values())},
        ),
    )
}
