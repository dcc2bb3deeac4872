"""Command-line front end.

Three subcommands::

    iriscc run     --config scenario.json --out DIR [--seed N]
    iriscc analyze --trace trace.csv
    iriscc sweep   --config scenario.json --param NAME --values 0,0.01,0.02 [--out DIR]

``run`` simulates one scenario and writes ``trace.csv`` (schema in
:mod:`iriscc.trace`) plus a plain-text summary; equal configs and seeds
produce byte-identical outputs.  ``analyze`` fits the delay-response
model to a trace and reports slope, intercept and correlation; it pools
every flow's consecutive-row samples into one fit, with the trace's
``throughput`` column as the receive rate.
``sweep`` re-runs a scenario while varying one whitelisted parameter
and tabulates the results in the order the values were given.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import metrics
from .netsim import run_scenario
from .regression import delta_samples, fit_k_b
from .scenario import Scenario, ScenarioError, dump_scenario, load_scenario
from .trace import FlowTrace, read_trace_csv, write_trace_csv
from .units import mbps_to_pkts_per_ms, pkts_per_ms_to_mbps

SWEEP_PARAMS = ("random_loss", "prop_delay", "flow_count", "bandwidth")
_DEFAULT_STAGGER = 5000.0  # ms between replicated flows in a flow_count sweep


def _summarize(scenario: Scenario, traces: list[FlowTrace]) -> str:
    capacity = scenario.link.mean_capacity(0.0, scenario.duration)
    lines = []
    link = scenario.link
    lines.append(
        f"duration_ms={scenario.duration:.3f} capacity_start={link.bandwidth_schedule[0][1]:.6f}pkt/ms "
        f"prop_delay_ms={link.prop_delay:.3f} queue={link.queue_capacity} "
        f"random_loss={link.random_loss:.4f} seed={link.seed}"
    )
    lines.append("flow kind     mean_tput  tput_mbps   mean_rtt      sent delivered     drops")
    for trace in traces:
        tput = metrics.mean_throughput(trace, 0.0, scenario.duration)
        rtt = metrics.mean_rtt(trace, 0.0, scenario.duration)
        totals = trace.totals
        drops = totals.dropped_overflow + totals.dropped_random
        lines.append(
            f"{trace.flow_id:<4d} {trace.kind:<8s} {tput:>9.6f} {pkts_per_ms_to_mbps(tput, link.packet_bytes):>10.4f} "
            f"{(rtt if rtt is not None else float('nan')):>10.4f} {totals.sent:>9d} {totals.delivered:>9d} {drops:>9d}"
        )
    util = metrics.utilization(traces, capacity, 0.0, scenario.duration) if scenario.duration > 0 else 0.0
    lines.append(f"utilization={util:.4f} vs mean capacity {capacity:.6f} pkt/ms")
    return "\n".join(lines) + "\n"


def _cmd_run(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.config)
    if args.seed is not None:
        scenario = scenario._replace(link=scenario.link._replace(seed=args.seed))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    traces = run_scenario(scenario)
    write_trace_csv(traces, out_dir / "trace.csv")
    dump_scenario(scenario, out_dir / "scenario.json")
    summary = _summarize(scenario, traces)
    (out_dir / "summary.txt").write_text(summary)
    sys.stdout.write(summary)
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    per_flow = read_trace_csv(args.trace)
    per_flow_samples = [delta_samples((row.send_rate, row.throughput, row.rtt) for row in rows)
                        for rows in per_flow.values()]
    fit = fit_k_b([x for xs, _ in per_flow_samples for x in xs],
                  [y for _, ys in per_flow_samples for y in ys])
    if fit is None:
        print("error: trace is unfittable (needs >= 3 rows with varying rates and RTTs)",
              file=sys.stderr)
        return 1
    print(f"n_samples: {fit.n}")
    print(f"k: {fit.k:.6f} ms per (pkt/ms)")
    print(f"b: {fit.b:.6f} ms")
    print(f"plcc: {fit.plcc:.6f}")
    return 0


def _apply_sweep(scenario: Scenario, param: str, value: float) -> Scenario:
    link = scenario.link
    if param == "random_loss":
        return scenario._replace(link=link._replace(random_loss=value))
    if param == "prop_delay":
        return scenario._replace(link=link._replace(prop_delay=value))
    if param == "bandwidth":
        schedule = ((0.0, mbps_to_pkts_per_ms(value, link.packet_bytes)),)
        return scenario._replace(link=link._replace(bandwidth_schedule=schedule))
    if param == "flow_count":
        if not (value >= 1 and value.is_integer()):
            raise ScenarioError("sweep.values", f"flow_count needs positive integers, got {value}")
        count = int(value)
        template = scenario.flows[0]
        if len(scenario.flows) >= 2:
            stagger = scenario.flows[1].start_time - scenario.flows[0].start_time
        else:
            stagger = _DEFAULT_STAGGER
        flows = tuple(
            template._replace(start_time=template.start_time + i * stagger)
            for i in range(count)
        )
        return scenario._replace(flows=flows)
    raise ScenarioError("sweep.param", f"unknown parameter {param!r}")


def _cmd_sweep(args: argparse.Namespace) -> int:
    base = load_scenario(args.config)
    header = (f"{args.param:>12s} {'agg_tput':>10s} {'agg_mbps':>10s} {'mean_rtt':>10s} "
              f"{'utilization':>11s} {'drops':>8s}")
    lines = [header]
    rows_csv = ["value,agg_tput_pkts_per_ms,agg_tput_mbps,mean_rtt_ms,utilization,drops"]
    for value in args.values:
        scenario = _apply_sweep(base, args.param, value)
        traces = run_scenario(scenario)
        t0, t1 = scenario.duration / 2.0, scenario.duration
        agg = sum(metrics.mean_throughput(trace, t0, t1) for trace in traces)
        rtts = [metrics.mean_rtt(trace, t0, t1) for trace in traces]
        rtts = [r for r in rtts if r is not None]
        rtt = sum(rtts) / len(rtts) if rtts else float("nan")
        capacity = scenario.link.mean_capacity(t0, t1)
        util = agg / capacity
        drops = sum(t.totals.dropped_overflow + t.totals.dropped_random for t in traces)
        mbps = pkts_per_ms_to_mbps(agg, scenario.link.packet_bytes)
        lines.append(f"{value:>12g} {agg:>10.6f} {mbps:>10.4f} {rtt:>10.4f} {util:>11.4f} {drops:>8d}")
        rows_csv.append(f"{value!r},{agg:.6f},{mbps:.4f},{rtt:.4f},{util:.4f},{drops}")
    table = "\n".join(lines) + "\n"
    sys.stdout.write(table)
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "sweep.csv").write_text("\n".join(rows_csv) + "\n")
    return 0


def _values_list(text: str) -> list[float]:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise argparse.ArgumentTypeError("needs at least one value")
    try:
        return [float(p) for p in parts]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iriscc",
        description="Simulate congestion-control scenarios on a shared bottleneck.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one scenario, write trace + summary")
    p_run.add_argument("--config", required=True, help="scenario JSON file")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p_run.set_defaults(func=_cmd_run)

    p_an = sub.add_parser("analyze", help="fit the delay-response model to a trace CSV")
    p_an.add_argument("--trace", required=True, help="trace.csv produced by run")
    p_an.set_defaults(func=_cmd_analyze)

    p_sw = sub.add_parser("sweep", help="re-run a scenario over a range of one parameter")
    p_sw.add_argument("--config", required=True, help="scenario JSON file")
    p_sw.add_argument("--param", required=True, choices=SWEEP_PARAMS)
    p_sw.add_argument("--values", required=True, type=_values_list,
                      help="comma-separated values, applied in order")
    p_sw.add_argument("--out", default=None, help="optional directory for sweep.csv")
    p_sw.set_defaults(func=_cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:  # ScenarioError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
