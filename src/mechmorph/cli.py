"""Command-line front end.

Subcommands: simulate, steady, spectrum, branch, sweep, bounds, figure.
Options resolve with the precedence flag > config file > built-in default;
the config file is INI-style with one section per command plus [common].
Each command takes a flag only for the options it reads; a [common] key
that it does not read is skipped.  Every run writes its artifacts plus a
manifest.json echoing the resolved configuration of the options it read,
so identical config + seed reproduces the output byte for byte.  Random
perturbations use the seedable PCG64 generator and are even-symmetrized
after sampling.

Exit codes: 0 success, 2 configuration error, 3 solver failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import sys

import numpy as np

from . import __version__
from ._operators import bump_seed, noisy_constant
from .bifurcation import _bifurcation_point, continue_branch, sweep
from .dynamics import simulate
from .errors import ConfigurationError, MechmorphError
from .figures import FIGURE_KINDS, emit_figure_data
from .energy import bounds
from .grid import Field, make_grid
from .io import (
    bounds_record,
    dump_json,
    ensure_dir,
    spectrum_record,
    steady_record,
    write_branch_csv,
    write_json,
    write_overlays_csv,
    write_state_csv,
    write_sweep_csv,
    write_trajectory_csv,
)
from .model import ModelParams
from .stability import spectrum_crosscheck
from .steady import relax_to_steady

# built-in defaults; a config file and then flags override these.  Each key
# is one option: its flag, its config key and, by its default's type, its cast.
DEFAULTS = {
    "common": {"D": 0.01, "kappa": 1.5, "grid": 256, "seed": 0, "out": "mechmorph-out"},
    "simulate": {"t_end": 200.0, "dt": 1e-3, "record_every": 100, "perturb": 0.01,
                 "steady_tol": 1e-9, "init": "cosine"},
    "steady": {"t_end": 500.0, "dt": 1e-3, "init": "cosine", "perturb": 0.01},
    "spectrum": {"t_end": 500.0, "dt": 1e-3, "init": "cosine", "perturb": 0.01},
    "branch": {"n": 1, "step": 0.05, "max_points": 120, "kappa_min": 0.0,
               "kappa_max": 0.0},
    "sweep": {"D_values": "0.005,0.02", "kappa_values": "1.0,1.5,2.0", "trials": 3,
              "t_end": 400.0, "workers": 1},
    "bounds": {},
    "figure": {"kind": "fig1-left", "workers": 1},
}

# the common options each command reads besides --out; it takes no flag for
# the others and neither uses nor records their [common] config keys
COMMON_READ = {
    "simulate": ("D", "kappa", "grid", "seed"),
    "steady": ("D", "kappa", "grid", "seed"),
    "spectrum": ("D", "kappa", "grid", "seed"),
    "branch": ("D", "grid"),
    "sweep": ("seed",),
    "bounds": ("kappa",),
    "figure": ("seed",),
}

_CASTS = {key: type(value) for options in DEFAULTS.values() for key, value in options.items()}
# configparser lowercases option names; this maps them back
_CONFIG_KEYS = {key.lower(): key for key in _CASTS}

# simulate takes fixed steps; steady, spectrum and sweep relax adaptively
_TIME_HELP = {
    "simulate": {"dt": "fixed time step", "t_end": "final time"},
    "relax": {
        "dt": "first and smallest relaxation step; each accepted step doubles it, "
              "up to 0.5, while the energy falls",
        "t_end": "relaxation budget: at most t_end/dt steps, rounded up, accepted or rejected",
    },
}


def _options(command: str) -> dict:
    """Defaults of the options a command reads: the common ones, then its own."""
    common = DEFAULTS["common"]
    read = {key: common[key] for key in common if key == "out" or key in COMMON_READ[command]}
    return {**read, **DEFAULTS[command]}


def _resolve(command: str, args: argparse.Namespace) -> dict:
    """Merge defaults, config file values and flags into one plain dict."""
    resolved = _options(command)
    config_path = getattr(args, "config", None)
    if config_path:
        parser = configparser.ConfigParser()
        read = parser.read(config_path)
        if not read:
            raise ConfigurationError(f"config file not found: {config_path}")
        for section in ("common", command):
            if parser.has_section(section):
                for name, raw in parser.items(section):
                    key = _CONFIG_KEYS.get(name)
                    if key is None:
                        raise ConfigurationError(f"unknown config key {name!r} in [{section}]")
                    if key not in resolved:
                        if section == "common":
                            continue
                        raise ConfigurationError(f"{command} does not read config key {key!r}")
                    try:
                        resolved[key] = _CASTS[key](raw)
                    except ValueError as exc:
                        raise ConfigurationError(f"config key {key!r} in [{section}]: {exc}") from exc
    for key in resolved:
        flag = getattr(args, key, None)
        if flag is not None:
            resolved[key] = flag
    _validate(resolved)
    return resolved


def _validate(cfg: dict) -> None:
    for key, value in cfg.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigurationError(f"option {key} must be finite, got {value}")
    for key in ("D", "kappa", "t_end", "dt", "step"):
        if key in cfg and not cfg[key] > 0:
            raise ConfigurationError(f"option {key} must be positive, got {cfg[key]}")
    if "perturb" in cfg and cfg["perturb"] < 0:
        raise ConfigurationError(f"option perturb must be >= 0, got {cfg['perturb']}")
    if "grid" in cfg:
        make_grid(cfg["grid"])  # validates power of two >= 8
    for key in ("record_every", "max_points", "n"):
        if key in cfg and cfg[key] < 1:
            raise ConfigurationError(f"option {key} must be >= 1, got {cfg[key]}")
    for key in ("trials", "workers"):
        if key in cfg and cfg[key] < 0:
            raise ConfigurationError(f"option {key} must be >= 0, got {cfg[key]}")
    if "seed" in cfg and cfg["seed"] < 0:
        raise ConfigurationError(f"seed must be a non-negative integer, got {cfg['seed']}")


def _start(cfg: dict) -> tuple[Field, ModelParams]:
    """The configured initial field and the model parameters."""
    grid, kappa = make_grid(cfg["grid"]), cfg["kappa"]
    if cfg["init"] == "cosine":
        vals = kappa * (1.0 + cfg["perturb"] * np.cos(2.0 * np.pi * grid.nodes))
    elif cfg["init"] == "random":
        rng = np.random.Generator(np.random.PCG64(cfg["seed"]))
        vals = noisy_constant(rng, kappa, cfg["perturb"], grid.n_points)
    elif cfg["init"] == "bump":
        vals = bump_seed(kappa, grid.nodes)
    else:
        raise ConfigurationError(f"unknown init profile {cfg['init']!r}")
    return Field(grid, vals), ModelParams(D=cfg["D"], kappa=kappa)


def _write_manifest(out: str, command: str, cfg: dict) -> None:
    manifest = {"command": command, "version": __version__, "config": cfg}
    write_json(os.path.join(ensure_dir(out), "manifest.json"), manifest)


def _parse_list(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigurationError(f"expected a comma-separated list of reals, got {text!r}") from exc


def _workers(cfg) -> int:
    """The configured worker count; 0 means one per CPU this process may
    run on (its affinity mask, where the platform has one)."""
    if cfg["workers"]:
        return cfg["workers"]
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _cmd_simulate(cfg):
    """integrate the evolution equation"""
    summary = simulate(
        *_start(cfg), t_end=cfg["t_end"], dt=cfg["dt"],
        record_every=cfg["record_every"], steady_tol=cfg["steady_tol"],
    )
    out = ensure_dir(cfg["out"])
    write_trajectory_csv(os.path.join(out, "trajectory.csv"), summary)
    write_state_csv(os.path.join(out, "final_state.csv"), summary.final_state)
    return {"converged": summary.converged, "steps": summary.step_count}


def _steady_state_for(cfg):
    return relax_to_steady(*_start(cfg), dt=cfg["dt"], t_end=cfg["t_end"])


def _cmd_steady(cfg):
    """relax and polish a stationary solution"""
    state = _steady_state_for(cfg)
    out = ensure_dir(cfg["out"])
    write_json(os.path.join(out, "steady.json"), steady_record(state))
    return {"modality": state.modality, "residual_norm": state.residual_norm}


def _cmd_spectrum(cfg):
    """stability spectrum with cross-check"""
    state = _steady_state_for(cfg)
    check = spectrum_crosscheck(state)
    out = ensure_dir(cfg["out"])
    write_json(
        os.path.join(out, "spectrum.json"),
        spectrum_record(check.report, check.max_deviation),
    )
    return {"verdict": check.report.verdict, "crosscheck_error": check.max_deviation}


def _cmd_branch(cfg):
    """pseudo-arclength branch continuation"""
    bp = _bifurcation_point(cfg["D"], cfg["n"])  # mode n alone, before its grid check
    # kappa_max 0 leaves the range open above
    kappa_range = (cfg["kappa_min"], cfg["kappa_max"] or math.inf)
    branch = continue_branch(
        bp, step=cfg["step"], max_points=cfg["max_points"], kappa_range=kappa_range,
        grid=make_grid(cfg["grid"]),
    )
    out = ensure_dir(cfg["out"])
    write_branch_csv(os.path.join(out, "branch.csv"), branch)
    return {
        "points": len(branch.points),
        "folds": [kf for _, kf in branch.folds],
        "terminated_by": branch.terminated_by,
        "reason": branch.reason,
    }


def _cmd_sweep(cfg):
    """classify (D, kappa) cells by relaxation"""
    result = sweep(
        _parse_list(cfg["D_values"]), _parse_list(cfg["kappa_values"]),
        trials=cfg["trials"], seed=cfg["seed"], t_end=cfg["t_end"], workers=_workers(cfg),
    )
    out = ensure_dir(cfg["out"])
    write_sweep_csv(os.path.join(out, "sweep.csv"), result)
    write_overlays_csv(os.path.join(out, "overlays.csv"), result)
    return {"cells": len(result.cells)}


def _cmd_bounds(cfg):
    """variational diffusivity bounds"""
    report = bounds(cfg["kappa"])
    out = ensure_dir(cfg["out"])
    write_json(os.path.join(out, "bounds.json"), bounds_record(report))
    return bounds_record(report)


def _cmd_figure(cfg):
    """emit the data set for a named figure"""
    files = emit_figure_data(cfg["kind"], cfg["out"], workers=_workers(cfg), seed=cfg["seed"])
    return {"files": [os.path.basename(f) for f in files]}


# each command's docstring is its line in --help
COMMANDS = {
    "simulate": _cmd_simulate,
    "steady": _cmd_steady,
    "spectrum": _cmd_spectrum,
    "branch": _cmd_branch,
    "sweep": _cmd_sweep,
    "bounds": _cmd_bounds,
    "figure": _cmd_figure,
}


def _report(error: str, message: str, code: int) -> int:
    """Write the error JSON to stderr; returns the exit code."""
    sys.stderr.write(dump_json({"error": error, "message": message}) + "\n")
    return code


class _Parser(argparse.ArgumentParser):
    """A rejected command line is a configuration error (subparsers share the class)."""

    def error(self, message):
        raise SystemExit(_report("configuration", message, 2))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mechmorph",
        description="Nonlocal mechanochemical pattern formation toolkit",
    )
    parser.add_argument("--version", action="version", version=f"mechmorph {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    choices = {"init": ["cosine", "random", "bump"], "kind": list(FIGURE_KINDS)}
    for name, command in COMMANDS.items():
        # no prefix matching, so that --D is never read as --D-values
        p = sub.add_parser(name, help=command.__doc__, allow_abbrev=False)
        helps = _TIME_HELP["simulate" if name == "simulate" else "relax"]
        # one flag per option the command reads, typed as the config file
        # casts it; --config names the file and is not an option itself
        for key in (*_options(name), "config"):
            flag = "--" + key.replace("_", "-")
            if key in choices:
                p.add_argument(flag, choices=choices[key])
            else:
                p.add_argument(flag, type=_CASTS.get(key, str), dest=key, help=helps.get(key))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve(args.command, args)
        # each command creates --out when it writes, so a refused run leaves none
        result = COMMANDS[args.command](cfg)
        _write_manifest(cfg["out"], args.command, cfg)
    except ConfigurationError as exc:
        return _report("configuration", str(exc), 2)
    except MechmorphError as exc:
        return _report(type(exc).__name__, str(exc), 3)
    except OSError as exc:
        return _report("io", str(exc), 4)
    summary = {"command": args.command, "out": cfg["out"]}
    summary.update(result)
    sys.stdout.write(dump_json(summary) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
