"""iriscc benchmark: one workload, measured for a fixed time.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: ``bulk-baselines``, ``iris-contend``, ``fairness-report``
(see README.md).  The run imports iriscc from the checkout's ``src/``,
generates the workload's scenario files from the seed, measures set-up
in fresh interpreters, then repeats the workload until ``--seconds``
have passed, checking every output against ``reference.json``.

``--trace 0`` reports the end-to-end metrics (``wall_s``, ``setup_s``,
``peak_rss_mb``, ``ok_ratio``) from untraced iterations.  ``--trace 1``
alternates untraced and traced iterations and reports the per-layer
split (see layers.py) plus the tracing overhead.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import calibrate
import workloads
from layers import LAYERS, Tracer
from workloads import ROOT, SRC

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
WORK = ROOT / ".perfbench-work"

SETUP_PROBES = 15       # fresh-interpreter set-up samples per run (after one warm-up)
LOAD_REPEATS = 25       # in-process scenario loads behind scenario.load_s
NON_FINITE = re.compile(rb"\b(nan|inf)\b", re.IGNORECASE)

# Counts that define the simulated behaviour; they must equal the
# reference.  Other counts (heap pushes, fit calls, Jain points) belong
# to the implementation and only have to repeat within a run.
BEHAVIOUR_COUNTS = ("pkts_sent", "pkts_delivered", "drops_overflow", "drops_random",
                    "trace_rows", "controller_calls", "baselines_calls", "fits_adopted")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure_setup(paths: dict[str, Path]) -> list[tuple[float, float]]:
    """(set-up seconds, speed factor) from fresh interpreters; the first
    probe warms the bytecode cache and is dropped."""
    cmd = [sys.executable, "-I", str(HERE / "setup_probe.py"), str(SRC.resolve()),
           *(str(p) for p in paths.values())]
    samples = []
    for _ in range(SETUP_PROBES + 1):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
        seconds, factor = done.stdout.split()
        samples.append((float(seconds), float(factor)))
    return samples[1:]


def measure_load(paths: dict[str, Path]) -> float:
    """Median in-process seconds to load and validate the scenario files,
    scaled to the reference speed."""
    from iriscc.scenario import load_scenario

    before = calibrate.loop_seconds()
    samples = []
    for _ in range(LOAD_REPEATS):
        t0 = time.perf_counter()
        for path in paths.values():
            load_scenario(path)
        samples.append(time.perf_counter() - t0)
    after = calibrate.loop_seconds()
    return statistics.median(samples) * calibrate.REFERENCE_S / ((before + after) / 2.0)


def output_bytes(value) -> bytes:
    return value.read_bytes() if isinstance(value, Path) else value


def check_outputs(outputs: dict, digests: dict[str, str]) -> list[str]:
    """Names of outputs that are missing, extra, non-finite or differ
    from the reference digest."""
    bad = []
    for name in sorted(set(outputs) | set(digests)):
        if name not in outputs or name not in digests:
            bad.append(name)
            continue
        data = output_bytes(outputs[name])
        if NON_FINITE.search(data) or hashlib.sha256(data).hexdigest() != digests[name]:
            bad.append(name)
    return bad


class Runner:
    """Runs and checks iterations of one workload."""

    def __init__(self, workload: str, reference: dict, paths: dict, scenarios: dict, work: Path):
        self.workload = workload
        self.reference = reference
        self.paths = paths
        self.scenarios = scenarios
        self.work = work
        self.iterations = 0
        self.raw_walls: list[float] = []
        self.factor = 1.0  # speed factor of the last iteration
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def _once(self, out: Path) -> dict:
        return workloads.run_workload(self.workload, workloads.make_api(),
                                      self.paths, self.scenarios, out)

    def iterate(self, tracer: Tracer | None = None) -> float | None:
        """One checked iteration; returns its wall seconds scaled to the
        reference speed, or None when it raised."""
        out = self.work / f"it{self.iterations}"
        self.iterations += 1
        expected = self.reference["digests"]
        try:
            before = calibrate.loop_seconds()
            if tracer is None:
                t0 = time.perf_counter()
                outputs = self._once(out)
                wall = time.perf_counter() - t0
            else:
                outputs = tracer.run(self._once, out)
                wall = tracer.wall_s()
            after = calibrate.loop_seconds()
            bad = check_outputs(outputs, expected)
        except Exception:  # a failed iteration is reported, not fatal
            self.errors.append(traceback.format_exc())
            self.attempted += len(expected)
            self.failed += len(expected)
            return None
        finally:
            shutil.rmtree(out, ignore_errors=True)
        self.attempted += len(set(outputs) | set(expected))
        self.failed += len(bad)
        self.errors.extend(f"output {name} differs from the reference" for name in bad)
        self.factor = calibrate.REFERENCE_S / ((before + after) / 2.0)
        if tracer is None:
            self.raw_walls.append(wall)
        return wall * self.factor

    def check_counts(self, counts: dict, expected: dict) -> None:
        for key, value in expected.items():
            if counts.get(key) != value:
                self.errors.append(f"count {key}: {counts.get(key)} != {value}")


def end_to_end(runner: Runner, deadline: float, setup: list[tuple[float, float]]) -> dict:
    walls = []
    warmed = runner.iterate() is not None  # warm-up: checked, not timed
    while warmed:
        wall = runner.iterate()
        if wall is None:
            break
        walls.append(wall)
        if time.perf_counter() >= deadline:
            break
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    ok = (runner.attempted - runner.failed) / runner.attempted
    print(f"# {len(walls)} iterations, wall_s samples: {' '.join(f'{w:.4f}' for w in walls)}")
    print(f"# unscaled wall seconds: {' '.join(f'{w:.4f}' for w in runner.raw_walls[1:])}")
    return {
        "wall_s": (statistics.median(walls) if walls else 0.0, "s"),
        "setup_s": (statistics.median(s * f for s, f in setup), "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        "ok_ratio": (ok, "ratio"),
    }


def per_layer(runner: Runner, deadline: float, paths: dict) -> dict:
    load_s = measure_load(paths)
    # Count pass: traced, plus a heap-push counter that would distort
    # the timings, so its times are not used.
    counter = Tracer(count_heap=True)
    if runner.iterate(counter) is None:
        return {}
    counts = counter.exact_counts()
    runner.check_counts({k: counts[k] for k in BEHAVIOUR_COUNTS},
                        {k: runner.reference["counts"][k] for k in BEHAVIOUR_COUNTS})
    repeat = {k: v for k, v in counts.items() if k != "heap_pushes"}
    walls, tracers = [], []
    while True:
        wall = runner.iterate()
        tracer = Tracer()
        traced_wall = runner.iterate(tracer)
        if wall is None or traced_wall is None:
            break
        walls.append(wall)
        tracer.scale(runner.factor)
        tracers.append(tracer)
        runner.check_counts(tracer.exact_counts(), repeat)
        if time.perf_counter() >= deadline:
            break
    if not tracers:
        return {}

    med = statistics.median
    self_s = {layer: med([t.self_s.get(layer, 0.0) for t in tracers]) for layer in LAYERS}
    traced = med([t.wall_s() for t in tracers])
    untraced = med(walls)
    sent = counts["pkts_sent"]
    fit_calls = counter.calls["regression.fit"]
    print(f"# {len(tracers)} traced iterations; layer shares of traced wall: " + " ".join(
        f"{layer} {100.0 * s / traced:.1f}%" for layer, s in self_s.items()))
    return {
        "scenario.load_s": (load_s, "s"),
        "netsim.self_s": (self_s["netsim"], "s"),
        "netsim.us_per_pkt": (1e6 * self_s["netsim"] / sent if sent else 0.0, "us"),
        "netsim.pkts_per_s": (sent / self_s["netsim"] if self_s["netsim"] else 0.0, "1/s"),
        "netsim.heap_pushes_per_pkt": (counts.get("heap_pushes", 0) / sent if sent else 0.0, "ratio"),
        "netsim.pkts_sent": (sent, "count"),
        "netsim.pkts_delivered": (counts["pkts_delivered"], "count"),
        "netsim.drops_overflow": (counts["drops_overflow"], "count"),
        "netsim.drops_random": (counts["drops_random"], "count"),
        "controller.self_s": (self_s["controller"], "s"),
        "controller.calls": (counts["controller_calls"], "count"),
        "controller.call_us_p50": (med([t.call_us(0.50) for t in tracers]), "us"),
        "controller.call_us_p99": (med([t.call_us(0.99) for t in tracers]), "us"),
        "controller.fits_adopted": (counts["fits_adopted"], "count"),
        "baselines.self_s": (self_s["baselines"], "s"),
        "baselines.calls": (counts["baselines_calls"], "count"),
        "regression.fit_calls": (counts["fit_calls"], "count"),
        "regression.fit_s": (self_s["regression.fit"], "s"),
        "regression.fit_yield": (counts["fits_adopted"] / fit_calls if fit_calls else 0.0, "ratio"),
        "regression.analyze_s": (self_s["regression.analyze"], "s"),
        "trace.write_s": (self_s["trace.write"], "s"),
        "trace.read_s": (self_s["trace.read"], "s"),
        "trace.rows": (counts["trace_rows"], "count"),
        "metrics.self_s": (self_s["metrics"], "s"),
        "metrics.jain_points": (counts["jain_points"], "count"),
        "cli.self_s": (self_s["cli"], "s"),
        "bench.self_s": (self_s["bench"], "s"),
        "traced.wall_s": (traced, "s"),
        "traced.overhead_pct": (100.0 * (traced - untraced) / untraced, "%"),
    }


def pin_to_one_cpu() -> None:
    """Keep the run (and the set-up probes, which inherit it) on one CPU:
    migrating between CPUs is the largest source of run-to-run spread on
    a small shared machine."""
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[-1]})


def main(argv=None) -> int:
    args = parse_args(argv)
    # On SIGTERM, unwind so that probes are killed and work files removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        iriscc_file = workloads.use_checkout_source()
    except (RuntimeError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    variant = workloads.variant_of(args.seed)
    reference = json.loads(REFERENCE.read_text())[args.workload][str(variant)]
    print(f"# python {platform.python_version()} | nproc {len(os.sched_getaffinity(0))} | "
          f"commit {git_commit()} | iriscc {iriscc_file}")
    pin_to_one_cpu()
    calibrate.loop_seconds()  # warm-up
    print(f"# workload {args.workload} seed {args.seed} (variant {variant}) "
          f"seconds {args.seconds:g} trace {args.trace}")

    from iriscc.scenario import load_scenario

    work = WORK / f"{args.workload}-{os.getpid()}"
    try:
        paths = workloads.write_scenarios(args.workload, args.seed, work / "scenarios")
        setup = measure_setup(paths)
        print(f"# setup_s samples (unscaled): {' '.join(f'{s:.5f}' for s, _ in setup)}")
        print(f"# setup speed factors: {' '.join(f'{f:.3f}' for _, f in setup)}")
        scenarios = {name: load_scenario(path) for name, path in paths.items()}
        runner = Runner(args.workload, reference, paths, scenarios, work)
        deadline = time.perf_counter() + args.seconds
        if args.trace:
            metrics = per_layer(runner, deadline, paths)
        else:
            metrics = end_to_end(runner, deadline, setup)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run is still using it

    for error in runner.errors[:20]:
        print(f"# error: {error}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    result = {
        "correct": not runner.errors and bool(metrics),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
