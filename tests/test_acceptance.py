"""End-to-end acceptance checks for the delay-learning controller.

Each test runs a fixed, seeded scenario, checks one guaranteed
behaviour at its stated tolerance, and emits a single
``ACCEPTANCE NN name: PASS/FAIL (...)`` line; the conftest hook echoes
all lines as a summary section at the end of the pytest run.
"""

import math
import random
import statistics

from conftest import ACCEPTANCE_LINES, flow, make_link, scenario
from iriscc.controller import K_MIN, Phase, expected_rtt_variation
from iriscc.metrics import (
    fairness_report,
    mean_throughput,
    utilization,
    window_throughput,
)
from iriscc.netsim import Simulation, run_scenario
from iriscc.regression import fit_k_b
from iriscc.trace import write_trace_csv
from iriscc.units import mbps_to_pkts_per_ms

CAP20 = mbps_to_pkts_per_ms(20.0)


def verdict(num: int, name: str, ok: bool, detail: str) -> bool:
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    ACCEPTANCE_LINES.append(line)
    return ok


def test_01_retains_throughput_under_random_loss():
    # 20 Mbps, 50 ms round trip, 2% random loss: the delay-learning
    # controller must keep >= 80% utilization while the loss-driven
    # baseline collapses below 50%.
    link = make_link(mbps=20, loss=0.02, seed=42)
    utils = {}
    for kind in ("iris", "aimd"):
        traces = run_scenario(scenario(link, [flow(kind)], 25_000.0))
        utils[kind] = utilization(traces, CAP20, 10_000.0, 25_000.0)
    ok = utils["iris"] >= 0.80 and utils["aimd"] < 0.50
    assert verdict(1, "loss-resilient-throughput", ok,
                   f"iris {utils['iris']:.3f} >= 0.80, aimd {utils['aimd']:.3f} < 0.50")


def test_02_holds_target_queue_load_alone():
    # Alone on a clean link, the product rate * queueing-delay should
    # hover at the 10-packet design point (within +-50%) once settled.
    sim = Simulation(scenario(make_link(), [flow("iris")], 30_000.0))
    sim.run()
    entries = [e for e in sim.controllers[0].decisions
               if e.objective is not None and e.time > 20_000.0]
    load = statistics.mean(e.objective for e in entries) + 10.0
    ok = 5.0 <= load <= 15.0 and len(entries) >= 100
    assert verdict(2, "queue-load-target", ok,
                   f"mean load {load:.2f} pkts in [5, 15] over {len(entries)} epochs")


def test_03_staggered_flows_reach_fair_shares():
    # Three flows joining 5 s apart must reach a sustained (>= 5 s)
    # Jain index above 0.9 within 15 s of the last join.
    starts = [0.0, 5000.0, 10_000.0]
    traces = run_scenario(scenario(
        make_link(), [flow("iris", start=s) for s in starts], 30_000.0))
    tconv = fairness_report(traces, 30_000.0, after=starts[-1], starts=starts).convergence_time
    ok = tconv is not None and tconv - starts[-1] <= 15_000.0
    detail = ("never converged" if tconv is None
              else f"fair after {(tconv - starts[-1]) / 1000.0:.2f} s <= 15 s")
    assert verdict(3, "staggered-fairness", ok, detail)


def test_04_share_insensitive_to_propagation_delay():
    # Flows with 50/100/150 ms round trips sharing one bottleneck must
    # hold mean throughputs within 15% of each other.
    traces = run_scenario(scenario(
        make_link(), [flow("iris", prop=p) for p in (25.0, 50.0, 75.0)], 40_000.0))
    means = [mean_throughput(t, 20_000.0, 40_000.0) for t in traces]
    worst = max(abs(a - b) / min(a, b) for a in means for b in means if a is not b)
    ok = worst <= 0.15
    assert verdict(4, "rtt-independence", ok,
                   f"means {[round(m, 3) for m in means]} pkt/ms, "
                   f"worst pairwise gap {worst:.1%} <= 15%")


def test_05_rate_gap_between_competitors_contracts():
    # Two flows on one link: after both leave startup (plus a 2 s
    # settle), the rate gap must not grow epoch over epoch beyond one
    # packet of measurement quantum in >= 95% of epochs, the loop gain
    # must stay below 1 at every decision, and the gap must end at
    # <= 10% of its initial value.
    sim = Simulation(scenario(
        make_link(), [flow("iris"), flow("iris", start=500.0)], 30_000.0))
    traces = sim.run()
    exits = [min(e.time for e in c.decisions if e.phase is Phase.STEADY)
             for c in sim.controllers]
    settle = max(exits) + 2000.0
    by_time = [{round(r.time, 3): r.send_rate for r in t.rows} for t in traces]
    times = sorted(set(by_time[0]) & set(by_time[1]))
    gaps = [abs(by_time[0][t] - by_time[1][t]) for t in times if t >= settle]
    quantum = 2.0 / 50.0  # one packet per epoch per flow
    peak = gaps[0]
    widened = 0
    for gap in gaps[1:]:
        if gap > peak + quantum:
            widened += 1
        peak = max(peak, gap)
    frac = 1.0 - widened / (len(gaps) - 1)
    contractions = [e.contraction for c in sim.controllers for e in c.decisions
                    if e.contraction is not None and e.time > max(exits)]
    ok = (frac >= 0.95
          and max(contractions) < 1.0
          and gaps[-1] <= 0.1 * gaps[0])
    assert verdict(5, "gap-contraction", ok,
                   f"non-widening {frac:.1%} >= 95%, loop gain max "
                   f"{max(contractions):.3f} < 1, gap {gaps[0]:.3f} -> {gaps[-1]:.3f}")


def test_06_recovers_known_delay_response_slope():
    # Synthetic epochs with known slope k and noise proportional to the
    # signal: the fit must land within 10%; with no noise the
    # correlation must be exactly 1 (to 1e-9).
    worst_err = 0.0
    worst_plcc_gap = 0.0
    for k in (0.1, 0.5, 2.0):
        rng = random.Random(1000 + int(k * 10))
        xs = [rng.uniform(-2.0, 2.0) for _ in range(200)]
        sigma = 0.1 * k * statistics.mean(abs(x) for x in xs)
        noisy = fit_k_b(xs, [k * x + 0.5 + rng.gauss(0.0, sigma) for x in xs])
        clean = fit_k_b(xs, [k * x + 0.5 for x in xs])
        worst_err = max(worst_err, abs(noisy.k - k) / k)
        worst_plcc_gap = max(worst_plcc_gap, abs(clean.plcc - 1.0),
                             abs(clean.k - k) / k)
    ok = worst_err <= 0.10 and worst_plcc_gap <= 1e-9
    assert verdict(6, "slope-recovery", ok,
                   f"worst error {worst_err:.2%} <= 10%, "
                   f"noiseless plcc/slope gap {worst_plcc_gap:.1e} <= 1e-9")


def test_07_rate_step_bounded_and_opposes_pressure():
    # 100k random objective values spanning zero, +-infinity and 600
    # orders of magnitude: every step stays strictly inside the 3 ms
    # bound and strictly opposes the objective's sign.
    rng = random.Random(1234)
    violations = 0
    for _ in range(100_000):
        u = rng.random()
        if u < 0.05:
            objective = 0.0
        elif u < 0.10:
            objective = math.inf if rng.random() < 0.5 else -math.inf
        elif u < 0.50:
            mag = max(10.0 ** rng.uniform(-300.0, 300.0), 1e-300)
            objective = mag if rng.random() < 0.5 else -mag
        else:
            objective = rng.uniform(-1e4, 1e4)
        step = expected_rtt_variation(objective, 3.0, 100.0)
        ok = abs(step) < 3.0
        if objective > 0:
            ok = ok and step < 0.0
        elif objective < 0:
            ok = ok and step > 0.0
        else:
            ok = ok and step == 0.0
        if not ok:
            violations += 1
    assert verdict(7, "step-bound-and-sign", violations == 0,
                   f"{violations} violations in 100000 draws")


def test_08_tracks_capacity_steps_quickly():
    # 20 -> 40 -> 20 Mbps steps: delivered rate must come within 10% of
    # the new capacity in under 5 s after each change.
    c40 = mbps_to_pkts_per_ms(40.0)
    sched = ((0.0, CAP20), (40_000.0, c40), (80_000.0, CAP20))
    trace = run_scenario(scenario(
        make_link(sched=sched, prop=10.0, queue=208), [flow("iris")], 120_000.0))[0]
    lags = []
    for change, cap in ((40_000.0, c40), (80_000.0, CAP20)):
        hit = None
        for row in trace.rows:
            if row.time <= change or row.time > change + 10_000.0:
                continue
            if abs(window_throughput(trace, row.time, 1000.0) - cap) / cap <= 0.10:
                hit = row.time - change
                break
        lags.append(hit)
    ok = all(lag is not None and lag < 5000.0 for lag in lags)
    assert verdict(8, "capacity-tracking", ok,
                   f"adapted in {[f'{(l or math.inf) / 1000.0:.2f}' for l in lags]} s, "
                   f"each < 5 s")


def test_09_equal_seeds_reproduce_traces_exactly(tmp_path):
    # The full pipeline is a pure function of scenario + seed: equal
    # seeds give byte-identical trace files, different seeds do not.
    def trace_bytes(seed, name):
        sc = scenario(make_link(mbps=20, loss=0.02, seed=seed),
                      [flow("iris")], 25_000.0)
        path = tmp_path / name
        write_trace_csv(run_scenario(sc), path)
        return path.read_bytes()

    first = trace_bytes(42, "a.csv")
    second = trace_bytes(42, "b.csv")
    other = trace_bytes(43, "c.csv")
    ok = first == second and first != other
    assert verdict(9, "deterministic-replay", ok,
                   f"same-seed identical: {first == second}, "
                   f"different-seed distinct: {first != other}")


def test_10_startup_doubles_then_switches_to_learned_slope():
    # From the 100 kbps initial rate on a 10 Mbps link: the rate must
    # double every epoch until loss appears, and the controller must be
    # in its learned-slope regime (with a fitted, floored slope) within
    # one second.
    sim = Simulation(scenario(make_link(mbps=10, queue=52), [flow("iris")], 5000.0))
    traces = sim.run()
    ctrl = sim.controllers[0]
    steady_times = [e.time for e in ctrl.decisions if e.phase is Phase.STEADY]
    cold = [e.rate for e in ctrl.decisions if e.phase is Phase.COLD_START]
    doublings = 0
    for prev, curr in zip(cold, cold[1:]):
        if curr == 2.0 * prev:
            doublings += 1
        else:
            break
    exit_ms = min(steady_times) if steady_times else math.inf
    fit = ctrl.applied_fits[-1][1] if ctrl.applied_fits else None
    util = utilization(traces, mbps_to_pkts_per_ms(10.0), 2000.0, 5000.0)
    ok = (doublings >= 4
          and exit_ms < 1000.0
          and ctrl.phase is Phase.STEADY
          and fit is not None
          and ctrl.k >= K_MIN)
    assert verdict(10, "startup-ramp", ok,
                   f"{doublings} clean doublings, handoff at {exit_ms:.0f} ms < 1000, "
                   f"slope {ctrl.k:.1f}, settled util {util:.3f}")
