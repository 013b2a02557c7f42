"""Span tracing of the mechmorph layers, installed from outside the library.

``Tracer.installed()`` replaces, for the duration of a ``with`` block,

* every module-level function as each mechmorph module binds it (so
  ``mechmorph.steady.linearization_dense`` and
  ``mechmorph.bifurcation.linearization_dense`` are two wrappers around one
  function, and the span records which binding was called), and
* ``numpy.linalg.eigh``/``solve`` and ``numpy.fft.rfft``/``irfft``,

with wrappers that append one span each: name, binding, start, end, parent
and whether it raised.  Spans stay in flat arrays in memory and are written
out by ``save`` when the run ends.  No library source is edited.

A span's name is ``<layer>.<function>``, where the layer is the module that
defines the function (``_operators`` is called ``operators``; the numpy
kernels form the ``linalg`` layer).  Its binding is the module whose
namespace the call went through (``api`` for the package namespace that
the benchmark calls).
"""

from __future__ import annotations

import functools
import importlib
import types
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

MODULES = ("dynamics", "_operators", "grid", "steady", "energy", "stability", "bifurcation")
LAYERS = ("dynamics", "operators", "grid", "steady", "energy", "stability", "bifurcation", "linalg")
NUMPY_KERNELS = (("numpy.linalg", "eigh"), ("numpy.linalg", "solve"),
                 ("numpy.fft", "rfft"), ("numpy.fft", "irfft"))


def _layer(module_name: str) -> str:
    if not module_name.startswith("mechmorph"):
        return "linalg"
    tail = module_name.rpartition(".")[2]
    return "api" if tail == "mechmorph" else tail.lstrip("_")


def _steps(tracer, args, result):
    tracer.counters["dynamics.steps"] += result.step_count


def _eigenfunctions(tracer, args, result):
    tracer.counters["stability.eigenfunctions"] += len(result.eigenfunctions)


def _points(tracer, args, result):
    tracer.counters["bifurcation.points"] += len(result.points)


def _eigh_k3(tracer, args, result):
    tracer.counters["linalg.eigh_k3"] += int(np.shape(args[0])[0]) ** 3


# counts that need a call's arguments or result, keyed by span name
RESULT_HOOKS = {
    "dynamics.simulate": _steps,
    "stability.local_spectrum": _eigenfunctions,
    "bifurcation.continue_branch": _points,
    "linalg.eigh": _eigh_k3,
}
COUNTERS = ("dynamics.steps", "stability.eigenfunctions", "bifurcation.points", "linalg.eigh_k3")


class Tracer:
    """In-memory span recorder; ``reset`` starts a new pass."""

    def __init__(self):
        self.keys: list[tuple[str, str]] = []  # key id -> (span name, binding)
        self._key_ids: dict[tuple[str, str], int] = {}
        self.reset()

    def reset(self) -> None:
        self.key = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised = bytearray()
        self._stack = [-1]
        self.counters = dict.fromkeys(COUNTERS, 0)

    def _wrap(self, fn, name: str, binding: str):
        key = (name, binding)
        key_id = self._key_ids.setdefault(key, len(self.keys))
        if key_id == len(self.keys):
            self.keys.append(key)
        hook = RESULT_HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.start)
            self.key.append(key_id)
            self.parent.append(self._stack[-1])
            self.raised.append(0)
            self.end.append(0.0)
            self._stack.append(index)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.raised[index] = 1
                raise
            finally:
                self.end[index] = perf_counter()
                self._stack.pop()
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every traced function for the duration of the block."""
        originals = []
        modules = [importlib.import_module("mechmorph")]
        modules += [importlib.import_module(f"mechmorph.{m}") for m in MODULES]
        for module in modules:
            binding = _layer(module.__name__)
            for attr, obj in list(vars(module).items()):
                if isinstance(obj, types.FunctionType) and obj.__module__.startswith("mechmorph"):
                    name = f"{_layer(obj.__module__)}.{obj.__name__}"
                    originals.append((module, attr, obj))
                    setattr(module, attr, self._wrap(obj, name, binding))
        for module_name, attr in NUMPY_KERNELS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            originals.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, f"linalg.{attr}", "numpy"))
        try:
            yield self
        finally:
            for module, attr, obj in reversed(originals):
                setattr(module, attr, obj)


class Spans:
    """The spans of one pass as numpy arrays, with the per-layer metrics."""

    def __init__(self, tracer: Tracer):
        self.keys = list(tracer.keys)
        self.key = np.frombuffer(tracer.key, dtype=np.int32).copy()
        self.parent = np.frombuffer(tracer.parent, dtype=np.int32).copy()
        self.start = np.frombuffer(tracer.start, dtype=np.float64).copy()
        self.end = np.frombuffer(tracer.end, dtype=np.float64).copy()
        self.raised = np.frombuffer(bytes(tracer.raised), dtype=np.uint8).astype(bool)
        self.counters = dict(tracer.counters)
        self.duration = self.end - self.start
        has_parent = self.parent >= 0
        child_time = np.bincount(self.parent[has_parent], weights=self.duration[has_parent],
                                 minlength=self.key.size)
        self.self_time = self.duration - child_time

    def _mask(self, name: str, binding: str | None = None) -> np.ndarray:
        ids = [i for i, (n, b) in enumerate(self.keys) if n == name and binding in (None, b)]
        return np.isin(self.key, ids)

    def count(self, name: str, binding: str | None = None) -> int:
        return int(self._mask(name, binding).sum())

    def total(self, name: str, binding: str | None = None) -> float:
        return float(self.duration[self._mask(name, binding)].sum())

    def inside(self, ancestor: str) -> np.ndarray:
        """Mask of the spans that have a span called ``ancestor`` above them."""
        target = self._mask(ancestor).tolist()
        out = [False] * self.key.size
        for i, p in enumerate(self.parent.tolist()):  # parents precede children
            if p >= 0 and (target[p] or out[p]):
                out[i] = True
        return np.asarray(out, dtype=bool)

    def layer_self_times(self) -> dict[str, float]:
        layer_of_key = np.array([name.partition(".")[0] for name, _ in self.keys])
        layers = layer_of_key[self.key]
        return {layer: float(self.self_time[layers == layer].sum()) for layer in LAYERS}

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of this pass, as defined in perfbench/README.md."""
        c = self.counters
        steps = c["dynamics.steps"]
        in_sim = self.inside("dynamics.simulate")

        def per_step(value):
            return value / steps if steps else 0.0

        def named(names):
            chosen = np.zeros(self.key.size, dtype=bool)
            for name in names:
                chosen |= self._mask(name)
            return chosen

        fft = named(("linalg.rfft", "linalg.irfft"))
        kernels = named(("operators.density", "operators.log_mean_exp"))
        sim_self = float(self.self_time[self._mask("dynamics.simulate")].sum())
        crosscheck = self._mask("stability.spectrum_crosscheck")
        crosscheck_ids = np.flatnonzero(crosscheck)
        spectra_in_crosscheck = self._mask("stability.nonlocal_spectrum") & np.isin(
            self.parent, crosscheck_ids
        )
        corrector_iters = self.count("operators.linearization_dense", "bifurcation")
        points = c["bifurcation.points"]
        relax = self._mask("steady.relax_to_steady", "bifurcation")

        out = {
            "dynamics.steps": steps,
            "dynamics.simulate_s": self.total("dynamics.simulate"),
            "dynamics.step_us": 1e6 * per_step(sim_self),
            "dynamics.kernel_calls_per_step": per_step(int((kernels & in_sim).sum())),
            "dynamics.fft_per_step": per_step(int((fft & in_sim).sum())),
            "operators.exp_s": float(self.duration[kernels].sum()),
            "grid.fft_calls": int(fft.sum()),
            "bifurcation.relax_calls": int(relax.sum()),
            "bifurcation.relax_s": float(self.duration[relax].sum()),
            "bifurcation.relax_failed": int((relax & self.raised).sum()),
            "energy.bounds_s": self.total("energy.bounds"),
            "steady.newton_calls": self.count("steady.newton_steady"),
            "steady.newton_s": self.total("steady.newton_steady"),
            "steady.newton_iters": self.count("operators.linearization_dense", "steady"),
            "steady.residual_evals": self.count("operators.evolution_rhs", "steady"),
            "operators.rhs_calls": self.count("operators.evolution_rhs"),
            "operators.rhs_s": self.total("operators.evolution_rhs"),
            "operators.trig_basis_calls": self.count("operators.trig_basis"),
            "operators.trig_basis_s": self.total("operators.trig_basis"),
            "operators.assembly_calls": self.count("operators.linearization_dense")
            + self.count("operators.hessian_dense"),
            "operators.assembly_s": self.total("operators.linearization_dense")
            + self.total("operators.hessian_dense"),
            "linalg.eigh_calls": self.count("linalg.eigh"),
            "linalg.eigh_s": self.total("linalg.eigh"),
            "linalg.eigh_k3": c["linalg.eigh_k3"],
            "stability.spectra": self.count("stability.nonlocal_spectrum"),
            "stability.local_spectrum_s": self.total("stability.local_spectrum"),
            "stability.nonlocal_spectrum_s": self.total("stability.nonlocal_spectrum"),
            "stability.secular_s": float(self.duration[crosscheck].sum()
                                         - self.duration[spectra_in_crosscheck].sum()),
            "stability.eigenfunctions": c["stability.eigenfunctions"],
            "bifurcation.points": points,
            "bifurcation.corrector_iters": corrector_iters,
            "bifurcation.iters_per_point": corrector_iters / points if points else 0.0,
            "bifurcation.point_spectrum_s": self.total("stability.nonlocal_spectrum", "bifurcation"),
            "linalg.solve_calls": self.count("linalg.solve"),
            "linalg.solve_s": self.total("linalg.solve"),
            "steady.count_modes_s": self.total("steady.count_modes"),
            "energy.energy_s": self.total("energy.energy"),
            "trace.spans": int(self.key.size),
        }
        for layer, seconds in self.layer_self_times().items():
            out[f"{layer}.self_s"] = seconds
        return out


def save(path, passes: list[Spans]) -> None:
    """Write the spans of every traced pass to one compressed ``.npz`` file."""
    keys = passes[-1].keys  # key ids only grow, so the last table covers all
    np.savez_compressed(
        path,
        names=np.array([name for name, _ in keys]),
        bindings=np.array([binding for _, binding in keys]),
        pass_index=np.concatenate([np.full(p.key.size, i, np.int32) for i, p in enumerate(passes)]),
        key=np.concatenate([p.key for p in passes]),
        parent=np.concatenate([p.parent for p in passes]),
        start=np.concatenate([p.start for p in passes]),
        end=np.concatenate([p.end for p in passes]),
        raised=np.concatenate([p.raised for p in passes]),
    )
