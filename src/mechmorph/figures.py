"""Named data presets: each emits the CSV set needed to re-plot one of the
standard result figures with any external plotter.  Plotting itself is out
of scope for this package.

Grids are chosen per diffusivity so the sharpest profile stays resolved;
the kappa and D lists of the profile presets are package defaults (the
figure captions fix only D = 1e-3 and kappa = 3 respectively).
"""

from __future__ import annotations

import os
from dataclasses import replace
from types import SimpleNamespace

import numpy as np

from .bifurcation import continue_branch, critical_kappas, sweep
from .dynamics import simulate
from .errors import ConfigurationError
from .grid import Field, make_grid
from .io import (
    ensure_dir,
    write_branch_csv,
    write_overlays_csv,
    write_profiles_csv,
    write_sweep_csv,
    write_trajectory_csv,
)
from .model import ModelParams
from .steady import relax_to_steady

__all__ = ["FIGURE_KINDS", "emit_figure_data", "suggest_grid"]

PROFILE_KAPPAS = (1.0, 1.5, 2.0, 2.5, 3.0)  # at D = 1e-3
PROFILE_DS = (1e-3, 3e-4, 1e-4)  # at kappa = 3.0
SNAPSHOT_TIMES = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0)


def suggest_grid(D: float) -> int:
    """Power-of-two grid that resolves the sharpest structure at this D."""
    if D >= 5e-3:
        return 256
    if D >= 5e-4:
        return 512
    if D >= 5e-5:
        return 1024
    return 2048


def _fig1_left(out: str) -> list[str]:
    params = ModelParams(D=0.01, kappa=1.5)
    grid = make_grid(256)
    u = Field(grid, params.kappa + 0.01 * np.cos(2.0 * np.pi * grid.nodes))
    profiles = {"t_0": u.values}
    pieces = []
    t_prev = 0.0
    for t in SNAPSHOT_TIMES:
        piece = simulate(u, params, t_end=t - t_prev, dt=1e-3, record_every=100,
                         steady_tol=0.0)
        pieces.append(replace(piece, times=t_prev + piece.times))
        u = piece.final_state
        profiles[f"t_{t:g}"] = u.values
        t_prev = t
    # each piece after the first starts with the previous piece's last record
    starts = [0] + [1] * (len(pieces) - 1)
    trajectory = SimpleNamespace(**{
        name: np.concatenate([getattr(p, name)[i:] for p, i in zip(pieces, starts)])
        for name in ("times", "masses", "energies", "max_values", "min_values")
    })
    traj_path = os.path.join(out, "fig1_left_trajectory.csv")
    write_trajectory_csv(traj_path, trajectory)
    prof_path = os.path.join(out, "fig1_left_profiles.csv")
    write_profiles_csv(prof_path, grid, profiles)
    return [traj_path, prof_path]


def _steady_profiles(out, name, cases) -> list[str]:
    # one shared grid per file, fine enough for the sharpest profile
    grid = make_grid(max(suggest_grid(d_val) for _, d_val, _ in cases))
    profiles = {}
    for label, d_val, kappa in cases:
        params = ModelParams(D=d_val, kappa=kappa)
        u0 = Field(grid, kappa * (1.0 + 0.01 * np.cos(2.0 * np.pi * grid.nodes)))
        state = relax_to_steady(u0, params, t_end=600.0)
        profiles[label] = state.field.values
    path = os.path.join(out, name)
    write_profiles_csv(path, grid, profiles)
    return [path]


def _fig1_middle(out: str) -> list[str]:
    cases = [(f"kappa_{k:g}", 1e-3, k) for k in PROFILE_KAPPAS]
    return _steady_profiles(out, "fig1_middle_profiles.csv", cases)


def _fig1_right(out: str) -> list[str]:
    cases = [(f"D_{d:g}", d, 3.0) for d in sorted(PROFILE_DS)]
    return _steady_profiles(out, "fig1_right_profiles.csv", cases)


def _fig2_top(out: str, workers: int = 1, seed: int = 0) -> list[str]:
    d_values = np.geomspace(2e-3, 6e-2, 6)
    kappa_values = np.linspace(0.75, 2.5, 8)
    result = sweep(d_values, kappa_values, trials=3, seed=seed, workers=workers)
    sweep_path = os.path.join(out, "fig2_top_sweep.csv")
    overlay_path = os.path.join(out, "fig2_top_overlays.csv")
    write_sweep_csv(sweep_path, result)
    write_overlays_csv(overlay_path, result)
    return [sweep_path, overlay_path]


def _fig2_bottom(out: str, D: float, tag: str) -> list[str]:
    bp = critical_kappas(D, 1)[0]
    branch = continue_branch(
        bp, step=0.05, max_points=120, kappa_range=(0.0, bp.kappa_n + 1.0)
    )
    path = os.path.join(out, f"fig2_bottom_{tag}_branch.csv")
    write_branch_csv(path, branch)
    return [path]


# each preset writes its CSV set into a directory: (out, workers, seed) -> paths
_PRESETS = {
    "fig1-left": lambda out, workers, seed: _fig1_left(out),
    "fig1-middle": lambda out, workers, seed: _fig1_middle(out),
    "fig1-right": lambda out, workers, seed: _fig1_right(out),
    "fig2-top": _fig2_top,
    "fig2-bottom-left": lambda out, workers, seed: _fig2_bottom(out, D=0.005, tag="left"),
    "fig2-bottom-right": lambda out, workers, seed: _fig2_bottom(out, D=0.02, tag="right"),
}
FIGURE_KINDS = tuple(_PRESETS)


def emit_figure_data(kind: str, out_dir: str, workers: int = 1, seed: int = 0) -> list[str]:
    """Write the CSV set for one figure preset; returns the file paths."""
    if kind not in FIGURE_KINDS:
        raise ConfigurationError(f"unknown figure kind {kind!r}; choose from {FIGURE_KINDS}")
    return _PRESETS[kind](ensure_dir(out_dir), workers, seed)
