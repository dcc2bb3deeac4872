"""The benchmark's workloads: seeded scenario documents and the code
that runs each workload through iriscc's public entry points.

A seed selects one of ``VARIANTS`` input variants per workload, so every
output has a stored reference digest (see ``reference.json``).  The
variant changes the random-loss draws and shifts flow start times by a
few milliseconds; the shape of each workload, and so the layer it
stresses, stays the same.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

VARIANTS = 8
WORKLOADS = ("bulk-baselines", "iris-contend", "fairness-report")

SWEEP_VALUES = "0,0.002,0.01"
FAIRNESS_DURATION = 60_000.0


def use_checkout_source() -> str:
    """Put the checkout's ``src/`` first on the path and import iriscc
    from it; return the resolved package file.  Raises RuntimeError when
    the package would come from anywhere else."""
    if not (SRC / "iriscc" / "__init__.py").is_file():
        raise RuntimeError(f"no iriscc sources under {SRC}")
    if sys.path[:1] != [str(SRC)]:
        sys.path.insert(0, str(SRC))
    import iriscc

    resolved = Path(iriscc.__file__).resolve()
    if SRC.resolve() not in resolved.parents:
        raise RuntimeError(f"iriscc imported from {resolved}, not from {SRC}")
    return str(resolved)


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def _link(mbps: float, queue: int, seed: int, loss: float = 0.0) -> dict:
    return {
        "bandwidth_mbps": mbps,
        "prop_delay_ms": 25.0,
        "queue_capacity_pkts": queue,
        "random_loss": loss,
        "seed": seed,
    }


def scenario_docs(workload: str, seed: int) -> dict[str, dict]:
    """Scenario JSON documents for one workload, keyed by short name."""
    v = variant_of(seed)
    jitter = 5.0 * v  # ms added to every flow start
    if workload == "bulk-baselines":
        # 100 Mbps, one 50 ms-RTT bandwidth-delay product of buffer.  The
        # sweep sets random_loss; the variant picks the loss draws.
        return {"bulk": {
            "duration_ms": 12_000.0,
            "link": _link(100.0, 520, seed=1 + v),
            "flows": [
                {"controller": "aimd", "start_ms": jitter, "prop_delay_ms": 25.0},
                {"controller": "aimd", "start_ms": jitter, "prop_delay_ms": 50.0},
                {"controller": "vegas", "start_ms": 2000.0 + jitter},
                {"controller": "constant", "start_ms": jitter, "params": {"rate_mbps": 20.0}},
            ],
        }}
    if workload == "iris-contend":
        # Acceptance shapes 03, 04 and 05 at 20 Mbps with default iris
        # parameters (target_mode "min").
        link = _link(20.0, 104, seed=1 + v)
        return {
            "stagger": {"duration_ms": 30_000.0, "link": link, "flows": [
                {"controller": "iris", "start_ms": s + jitter} for s in (0.0, 5000.0, 10_000.0)]},
            "rtt": {"duration_ms": 40_000.0, "link": link, "flows": [
                {"controller": "iris", "start_ms": jitter, "prop_delay_ms": p}
                for p in (25.0, 50.0, 75.0)]},
            "pair": {"duration_ms": 30_000.0, "link": link, "flows": [
                {"controller": "iris", "start_ms": s + jitter} for s in (0.0, 2000.0)]},
        }
    if workload == "fairness-report":
        return {"fairness": {
            "duration_ms": FAIRNESS_DURATION,
            "link": _link(5.0, 52, seed=1 + v),
            "flows": [
                {"controller": "vegas" if i % 2 == 0 else "aimd",
                 "start_ms": 1000.0 * i + jitter,
                 "prop_delay_ms": 25.0 + 10.0 * i}
                for i in range(8)
            ],
        }}
    raise ValueError(f"unknown workload {workload!r}")


def write_scenarios(workload: str, seed: int, directory: Path) -> dict[str, Path]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, doc in scenario_docs(workload, seed).items():
        path = directory / f"{name}.json"
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        paths[name] = path
    return paths


@dataclass
class Api:
    """The iriscc entry points a workload calls.  Built from module
    attributes at call time, so wrappers installed by the tracer are
    picked up."""

    cli_main: Callable
    run_scenario: Callable
    write_trace_csv: Callable
    read_trace_csv: Callable
    analyze_trace: Callable
    fairness_report: Callable
    utilization: Callable
    FlowTrace: type


def make_api() -> Api:
    from iriscc import cli, metrics, netsim, regression, trace

    return Api(
        cli_main=cli.main,
        run_scenario=netsim.run_scenario,
        write_trace_csv=trace.write_trace_csv,
        read_trace_csv=trace.read_trace_csv,
        analyze_trace=regression.analyze_trace,
        fairness_report=metrics.fairness_report,
        utilization=metrics.utilization,
        FlowTrace=trace.FlowTrace,
    )


def _cli(api: Api, argv: list[str]) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = api.cli_main(argv)
    if code != 0:
        raise RuntimeError(f"iriscc {' '.join(argv)} exited with {code}")
    return out.getvalue().encode()


def _bulk_baselines(api: Api, paths: dict, scenarios: dict, out: Path) -> dict:
    table = _cli(api, ["sweep", "--config", str(paths["bulk"]), "--param", "random_loss",
                       "--values", SWEEP_VALUES, "--out", str(out)])
    return {"sweep.stdout": table, "sweep.csv": out / "sweep.csv"}


def _iris_contend(api: Api, paths: dict, scenarios: dict, out: Path) -> dict:
    outputs: dict = {}
    for name, path in paths.items():
        run_dir = out / name
        outputs[f"{name}/run.stdout"] = _cli(
            api, ["run", "--config", str(path), "--out", str(run_dir)])
        outputs[f"{name}/analyze.stdout"] = _cli(
            api, ["analyze", "--trace", str(run_dir / "trace.csv")])
        for file in ("trace.csv", "scenario.json", "summary.txt"):
            outputs[f"{name}/{file}"] = run_dir / file
    return outputs


def _fmt(value: float | None, spec: str = ".6f") -> str:
    return "none" if value is None else format(value, spec)


def _fairness_report(api: Api, paths: dict, scenarios: dict, out: Path) -> dict:
    scenario = scenarios["fairness"]
    traces = api.run_scenario(scenario)
    csv_path = out / "trace.csv"
    api.write_trace_csv(traces, csv_path)
    per_flow = api.read_trace_csv(csv_path)
    kinds = {flow_id: spec.controller for flow_id, spec in enumerate(scenario.flows)}
    read_back = [api.FlowTrace(flow_id=i, kind=kinds[i], rows=rows)
                 for i, rows in sorted(per_flow.items())]
    starts = [spec.start_time for spec in scenario.flows]
    duration = scenario.duration
    capacity = scenario.link.bandwidth_schedule[0][1]
    report = api.fairness_report(read_back, duration, after=starts[-1], starts=starts)
    util = api.utilization(read_back, capacity, starts[-1], duration)
    lines = [
        f"flows={len(read_back)} duration_ms={duration:.3f} capacity={capacity:.6f}pkt/ms",
        f"utilization={util:.6f}",
        f"convergence_ms={_fmt(report.convergence_time, '.3f')}",
        f"stability={_fmt(report.stability)}",
        f"mean_jain={_fmt(report.mean_jain)}",
        "flow kind       tput          k          b       plcc     n",
    ]
    for trace, tput in zip(read_back, report.per_flow_throughput):
        fit = api.analyze_trace((row.send_rate, row.throughput, row.rtt) for row in trace.rows)
        fit_text = ("none" if fit is None
                    else f"{fit.k:>10.6f} {fit.b:>10.6f} {fit.plcc:>10.6f} {fit.n:>5d}")
        lines.append(f"{trace.flow_id:<4d} {trace.kind:<8s} {tput:>8.6f} {fit_text}")
    report_path = out / "report.txt"
    report_path.write_text("\n".join(lines) + "\n")
    return {"trace.csv": csv_path, "report.txt": report_path}


WORKLOAD_STEPS = {
    "bulk-baselines": _bulk_baselines,
    "iris-contend": _iris_contend,
    "fairness-report": _fairness_report,
}


def run_workload(workload: str, api: Api, paths: dict, scenarios: dict, out: Path) -> dict:
    """Run one iteration; return output name -> bytes or file path.

    ``paths`` are the scenario files and ``scenarios`` the same files
    loaded and validated during set-up.
    """
    out.mkdir(parents=True, exist_ok=True)
    return WORKLOAD_STEPS[workload](api, paths, scenarios, out)
