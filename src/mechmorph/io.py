"""CSV and JSON artifact writers.

Every number is serialized with 17 significant digits, which round-trips
IEEE doubles exactly, so identical runs produce byte-identical files.
"""

from __future__ import annotations

import os

import numpy as np

__all__ = [
    "fmt",
    "dump_json",
    "write_json",
    "write_trajectory_csv",
    "write_state_csv",
    "write_branch_csv",
    "write_sweep_csv",
    "steady_record",
    "spectrum_record",
    "bounds_record",
]


def fmt(x) -> str:
    """17-significant-digit decimal form of a float (round-trip exact)."""
    return format(float(x), ".17g")


def dump_json(obj, indent: int = 0) -> str:
    """Minimal JSON serializer with 17-significant-digit floats.

    Handles the flat structures this package emits: dicts with string
    keys, lists/arrays, numbers, booleans, strings and None.
    """
    pad = " " * indent
    if isinstance(obj, dict):
        items = ",\n".join(
            f'{pad}  "{k}": {dump_json(v, indent + 2).lstrip()}' for k, v in obj.items()
        )
        return f"{pad}{{\n{items}\n{pad}}}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        inner = ", ".join(dump_json(v).lstrip() for v in obj)
        return f"{pad}[{inner}]"
    if isinstance(obj, str):
        escaped = obj.replace("\\", "\\\\").replace('"', '\\"')
        return f'{pad}"{escaped}"'
    if isinstance(obj, (bool, np.bool_)):
        return pad + ("true" if obj else "false")
    if obj is None:
        return pad + "null"
    if isinstance(obj, (int, np.integer)):
        return pad + str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return pad + fmt(obj)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def write_json(path, obj) -> None:
    with open(path, "w") as fh:
        fh.write(dump_json(obj) + "\n")


def _write_rows(path, header, rows) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def write_trajectory_csv(path, summary) -> None:
    """Columns t, mass, energy, max_u, min_u at the recorded times."""
    rows = (
        [fmt(t), fmt(m), fmt(e), fmt(hi), fmt(lo)]
        for t, m, e, hi, lo in zip(
            summary.times, summary.masses, summary.energies,
            summary.max_values, summary.min_values,
        )
    )
    _write_rows(path, ["t", "mass", "energy", "max_u", "min_u"], rows)


def write_state_csv(path, field) -> None:
    """Single column ``u`` with one row per grid node."""
    _write_rows(path, ["u"], ([fmt(v)] for v in field.values))


def write_profiles_csv(path, grid, columns: dict) -> None:
    """Column ``x`` plus one named profile column per entry of ``columns``."""
    names = list(columns)
    rows = (
        [fmt(grid.nodes[j])] + [fmt(columns[name][j]) for name in names]
        for j in range(grid.n_points)
    )
    _write_rows(path, ["x"] + names, rows)


def write_branch_csv(path, branch) -> None:
    """Columns s, kappa, amplitude, energy, leading_nu, stable, is_fold."""
    fold_indices = {i for i, _ in branch.folds}
    rows = (
        [
            fmt(p.s), fmt(p.kappa), fmt(p.amplitude), fmt(p.energy),
            fmt(p.leading_nu), str(int(p.stable)), str(int(i in fold_indices)),
        ]
        for i, p in enumerate(branch.points)
    )
    _write_rows(path, ["s", "kappa", "amplitude", "energy", "leading_nu", "stable", "is_fold"], rows)


def write_sweep_csv(path, result) -> None:
    """Columns D, kappa, class, n_outcomes, n_failed."""
    rows = (
        [fmt(c.D), fmt(c.kappa), c.classification, str(c.n_outcomes), str(c.n_failed)]
        for c in result.cells
    )
    _write_rows(path, ["D", "kappa", "class", "n_outcomes", "n_failed"], rows)


def write_overlays_csv(path, result) -> None:
    """Analytic overlay curves for a sweep: the constant-state threshold
    kappa_c(D) and the d_min/d_max bounds per kappa."""
    with open(path, "w") as fh:
        fh.write("D,kappa_c\n")
        for d_val, kc in zip(result.d_values, result.overlays["kappa_c"]):
            fh.write(f"{fmt(d_val)},{fmt(kc)}\n")
        fh.write("kappa,d_min,d_max\n")
        for k, dmin, dmax in zip(
            result.kappa_values, result.overlays["d_min"], result.overlays["d_max"]
        ):
            fh.write(f"{fmt(k)},{fmt(dmin)},{fmt(dmax)}\n")


def steady_record(state) -> dict:
    return {
        "D": state.params.D,
        "kappa": state.params.kappa,
        "modality": state.modality,
        "energy": state.energy,
        "residual_norm": state.residual_norm,
        "n_points": state.field.grid.n_points,
        "values": list(state.field.values),
    }


def spectrum_record(report, crosscheck_error: float) -> dict:
    return {
        "lambdas": list(report.local.lambdas),
        "betas": list(report.betas),
        "M": report.M,
        "nonlocal": list(report.nonlocal_eigs),
        "verdict": report.verdict,
        "leading_nu": report.leading_nu,
        "translation_nu": report.translation_nu,
        "crosscheck_error": crosscheck_error,
    }


def bounds_record(report) -> dict:
    return {
        "kappa": report.kappa,
        "d1": report.d1,
        "d2": report.d2,
        "d_min": report.d_min,
        "d_max": report.d_max,
        "argmax_n": report.argmax_n,
    }


def ensure_dir(path) -> str:
    os.makedirs(path, exist_ok=True)
    return path
