"""Self-tests of the benchmark: the per-layer split charges time to the
layer that spent it, tracing leaves outputs unchanged, and the runner
refuses to run without the program's sources.

Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

import workloads
from layers import PATCHES, Tracer

workloads.use_checkout_source()

from iriscc import cli, controller, metrics, netsim, regression, trace  # noqa: E402
from iriscc.scenario import scenario_from_dict  # noqa: E402

HERE = Path(__file__).resolve().parent
MODULES = {"cli": cli, "controller": controller, "metrics": metrics,
           "netsim": netsim, "regression": regression, "trace": trace}


def _pair_scenario(duration_ms: float = 4000.0):
    return scenario_from_dict({
        "duration_ms": duration_ms,
        "link": {"bandwidth_mbps": 20.0, "prop_delay_ms": 25.0, "queue_capacity_pkts": 104},
        "flows": [{"controller": "iris"}, {"controller": "iris", "start_ms": 500.0},
                  {"controller": "aimd", "start_ms": 1000.0}],
    })


def _body(scenario, out: Path | None = None):
    def run():
        api = workloads.make_api()
        traces = api.run_scenario(scenario)
        api.fairness_report(traces, scenario.duration)
        api.utilization(traces, scenario.link.bandwidth_schedule[0][1], 0.0, scenario.duration)
        if out is not None:
            api.write_trace_csv(traces, out)
    return run


def _traced(scenario, delays=None, repeats: int = 3) -> dict[str, float]:
    """Median self time per layer over ``repeats`` traced runs, plus the
    call counts of the last run."""
    tracers = []
    for _ in range(repeats):
        tracer = Tracer(delays=delays)
        tracer.run(_body(scenario))
        tracers.append(tracer)
    layers = set().union(*(t.self_s for t in tracers))
    result = {layer: statistics.median(t.self_s.get(layer, 0.0) for t in tracers)
              for layer in layers}
    result["calls"] = tracers[-1].calls
    return result


def test_epoch_delay_is_charged_to_the_controller():
    scenario = _pair_scenario(2000.0)
    delay = 5e-3
    base = _traced(scenario)
    slow = _traced(scenario, {"controller.on_epoch": delay})
    calls = slow["calls"]["controller.on_epoch"]
    injected = calls * delay
    assert calls == base["calls"]["controller.on_epoch"] > 50
    assert slow["controller"] - base["controller"] == pytest.approx(injected, rel=0.2, abs=0.005)
    assert abs(slow["netsim"] - base["netsim"]) < 0.2 * injected
    assert abs(slow["metrics"] - base["metrics"]) < 0.2 * injected
    assert abs(slow.get("baselines", 0.0) - base.get("baselines", 0.0)) < 0.2 * injected


def test_metrics_delay_is_charged_to_metrics():
    scenario = _pair_scenario(2000.0)
    delay = 0.3
    base = _traced(scenario)
    slow = _traced(scenario, {"metrics.utilization": delay})
    assert slow["calls"]["metrics.utilization"] == 1
    assert slow["metrics"] - base["metrics"] == pytest.approx(delay, rel=0.2, abs=0.005)
    assert abs(slow["netsim"] - base["netsim"]) < 0.2 * delay
    assert abs(slow["controller"] - base["controller"]) < 0.2 * delay


def test_self_times_add_up_to_the_root_span_and_outputs_are_unchanged(tmp_path):
    scenario = _pair_scenario(2000.0)
    _body(scenario, tmp_path / "plain.csv")()
    tracer = Tracer(count_heap=True)
    tracer.run(_body(scenario, tmp_path / "traced.csv"))
    assert (tmp_path / "plain.csv").read_bytes() == (tmp_path / "traced.csv").read_bytes()
    assert sum(tracer.self_s.values()) == pytest.approx(tracer.wall_s(), rel=1e-9)
    counts = tracer.exact_counts()
    resolved = counts["pkts_delivered"] + counts["drops_overflow"] + counts["drops_random"]
    assert 0 < resolved <= counts["pkts_sent"]
    assert counts["heap_pushes"] > counts["pkts_sent"]
    assert counts["controller_calls"] > 0 and counts["baselines_calls"] > 0


def test_wrappers_are_removed_after_a_traced_run():
    before = {(mod, attr): getattr(MODULES[mod], attr) for mod, attr, _ in PATCHES
              if hasattr(MODULES[mod], attr)}
    before[("netsim", "build_controller")] = netsim.build_controller
    before[("netsim", "heapq")] = netsim.heapq
    Tracer(count_heap=True).run(_body(_pair_scenario(500.0)))
    for (mod, attr), value in before.items():
        assert getattr(MODULES[mod], attr) is value


def test_inputs_depend_only_on_the_seed():
    for workload in workloads.WORKLOADS:
        assert workloads.scenario_docs(workload, 3) == workloads.scenario_docs(workload, 3)
        assert workloads.scenario_docs(workload, 3) != workloads.scenario_docs(workload, 4)
        assert workloads.scenario_docs(workload, 3) == workloads.scenario_docs(
            workload, 3 + workloads.VARIANTS)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "bulk-baselines",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
