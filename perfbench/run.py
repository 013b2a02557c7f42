"""Benchmark of the mechmorph library; one workload per process.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout: the library is imported from
``src/`` next to this directory, in-process, with BLAS pinned to one
thread.  The run sets up the workload five times (``setup_s`` is the
median), then measures its three stages for ``--seconds`` seconds.  Every
time is rescaled to a reference machine speed, which removes most of the
noise that other tenants of a shared machine cause (see ``probe.py``).

Untraced (``--trace 0``): every stage runs once, then each stage runs again
while its median time still fits in the budget.  The end-to-end metrics
are the median time of each stage, their sum (``wall_s``), the set-up time
and the peak resident memory.

Traced (``--trace 1``): untraced and traced passes over all stages
alternate, at least one of each.  The per-layer metrics are the medians
over the traced passes; their counts must repeat exactly from pass to
pass.  ``trace.overhead_frac`` is the traced over the untraced pass time,
minus one.  The spans are written to ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Every top-level
library call is checked; ``failed`` counts the calls that raised or whose
output failed a check.  See ``perfbench/README.md`` for the workloads and
the metric definitions.
"""

import os

# One BLAS thread, set before numpy loads OpenBLAS: on a 2-CPU machine a
# 129x129 eigh slows from 2.4 ms to 231 ms under default threading while
# another process loads both CPUs.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

from probe import Probe, slowdown  # noqa: E402
from tracing import Spans, Tracer, save  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT = BENCH_DIR / "out"
SETUP_REPEATS = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "platform": platform.platform(),
    }


def unit_of(name: str) -> str:
    if name.endswith("_us"):
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_per_step"):
        return "1/step"
    if name.endswith("_per_point"):
        return "1/point"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("_mb"):
        return "MB"
    return "count"


class Clock:
    """Times samples of work and rescales each to the reference speed.

    Probe kernels run just before and just after every sample and, when
    ``during`` is set, every ``probe.INTERVAL_S`` seconds inside it; the
    sample, less the probe time, is divided by the mean slowdown of the
    kernels its stage names (see ``probe.py``).  Traced passes are timed
    without samples inside, which would land in the spans.
    """

    def __init__(self, probe, during: bool):
        self.probe = probe
        self.during = during
        probe.sample()
        self.before, _ = probe.take()

    def time(self, kinds, fn, *args):
        """Return (raw seconds, seconds at reference speed, result of fn)."""
        start = perf_counter()
        with self.probe.sampling() if self.during else nullcontext():
            result = fn(*args)
        elapsed = perf_counter() - start
        inside, spent = self.probe.take()
        self.probe.sample()
        after, _ = self.probe.take()
        samples = {k: self.before[k] + inside[k] + after[k] for k in Probe.KINDS}
        self.before = after
        raw = elapsed - spent
        return raw, raw / slowdown(samples, kinds), result


def run_pass(workload, ctx, tally) -> None:
    for _, stage, _ in workload.stages:
        stage(ctx, tally)


def measure_untraced(workload, ctx, tally, clock, seconds: float):
    """Stage times: one full pass, then every stage whose median still fits.

    Returns the raw and the rescaled samples of each stage.
    """
    raw = {name: [] for name, _, _ in workload.stages}
    scaled = {name: [] for name, _, _ in workload.stages}
    start = perf_counter()
    while True:
        ran = False
        for name, stage, kinds in workload.stages:
            done = raw[name]
            if done and perf_counter() - start + statistics.median(done) > seconds:
                continue
            raw_s, scaled_s, _ = clock.time(kinds, stage, ctx, tally)
            done.append(raw_s)
            scaled[name].append(scaled_s)
            ran = True
        if not ran:
            return raw, scaled


def measure_traced(workload, ctx, tally, clock, seconds: float):
    """Alternate untraced and traced passes, at least one of each.

    Returns the (raw, rescaled) times of both kinds of pass and the spans
    of every traced pass.
    """
    tracer = Tracer()

    def traced_pass():
        tracer.reset()
        with tracer.installed():
            run_pass(workload, ctx, tally)
        return Spans(tracer)

    untraced, traced, spans = [], [], []
    start = perf_counter()
    while not traced or perf_counter() - start + untraced[-1][0] + traced[-1][0] <= seconds:
        raw, scaled, _ = clock.time(Probe.KINDS, run_pass, workload, ctx, tally)
        untraced.append((raw, scaled))
        raw, scaled, pass_spans = clock.time(Probe.KINDS, traced_pass)
        traced.append((raw, scaled))
        spans.append(pass_spans)
    return untraced, traced, spans


def layer_metrics(untraced, traced, spans, tally) -> dict[str, float]:
    """Per-layer metrics: medians over the traced passes, times rescaled."""
    per_pass = []
    for (raw, scaled), pass_spans in zip(traced, spans):
        metrics = pass_spans.metrics()
        for name in metrics:
            if unit_of(name) in ("s", "us"):
                metrics[name] *= scaled / raw
        per_pass.append(metrics)
    out = {}
    for name in per_pass[0]:
        values = [m[name] for m in per_pass]
        if isinstance(values[0], int):
            tally.attempted += 1  # the repeat check counts as one checked operation
            if len(set(values)) != 1:
                tally.failures.append(f"count {name} differs between traced passes: {values}")
            out[name] = values[0]
        else:
            out[name] = statistics.median(values)
    untraced_s = statistics.median(scaled for _, scaled in untraced)
    out["trace.overhead_frac"] = statistics.median(scaled for _, scaled in traced) / untraced_s - 1.0
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mechmorph" / "__init__.py").is_file():
        print(f"error: no library source at {SRC}; run from a mechmorph checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np

    import mechmorph
    from workloads import WORKLOADS, Tally

    if Path(mechmorph.__file__).resolve().parent != (SRC / "mechmorph").resolve():
        print(f"error: imported mechmorph from {mechmorph.__file__}, not {SRC}", file=sys.stderr)
        return 2

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    env = environment(np)
    env.update(workload=workload.name, seed=args.seed, random_input=workload.uses_seed,
               seconds=args.seconds, trace=args.trace)
    print("env " + json.dumps(env), flush=True)

    clock = Clock(Probe(), during=not args.trace)
    setup_raw, setup_scaled = [], []
    for _ in range(SETUP_REPEATS):
        raw, scaled, ctx = clock.time(Probe.KINDS, workload.setup, args.seed)
        setup_raw.append(raw)
        setup_scaled.append(scaled)

    tally = Tally()
    OUT.mkdir(exist_ok=True)
    detail = {"setup_s": setup_scaled, "setup_raw_s": setup_raw}
    if args.trace:
        untraced, traced, spans = measure_traced(workload, ctx, tally, clock, args.seconds)
        metrics = layer_metrics(untraced, traced, spans, tally)
        detail.update(untraced_pass_s=untraced, traced_pass_s=traced)
        save(OUT / f"{workload.name}-seed{args.seed}-spans.npz", spans)
    else:
        raw, scaled = measure_untraced(workload, ctx, tally, clock, args.seconds)
        stage_s = [statistics.median(scaled[name]) for name, _, _ in workload.stages]
        metrics = {"setup_s": statistics.median(setup_scaled), "wall_s": sum(stage_s)}
        for i, seconds in enumerate(stage_s, start=1):
            metrics[f"stage{i}_s"] = seconds
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        detail.update(stages=scaled, stages_raw=raw)
        detail.update(workload.derived(ctx, dict(zip(scaled, stage_s))))

    result = {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }
    for failure in tally.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    record = {"env": env, "detail": detail, "failures": tally.failures, "result": result}
    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    print("detail " + json.dumps(detail), flush=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
