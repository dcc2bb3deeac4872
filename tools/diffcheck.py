"""Differential check: run the same seeded random scenarios on this
working tree and on another revision, and compare what they produce.

    python3 tools/diffcheck.py --against REV [--count N] [--seed S]

REV is checked out into a temporary ``git worktree``.  Each tree runs
every scenario in its own Python process, with its own ``src`` first on
the path; the two processes run at the same time.  A SIGTERM, or one
process failing, stops both and removes the worktree.  Each reports per
scenario the sha256 of six outputs: the
trace CSV, the rows :func:`~iriscc.trace.read_trace_csv` reads back
from it (their ``repr``), the per-flow totals, the iris decision logs,
the adopted slope fits, each fit as ``(time, k, b, plcc, n)``, and the
metrics, the run's ``fairness_report`` and ``utilization`` (a run that
raises reports its error instead).  The first scenario whose digests differ
is printed as a JSON config that ``iriscc run`` loads, after the names
of the outputs that differ; the exit status is then 1.  When every
scenario agrees it prints how many slope fits the runs adopted, how
many exact ``fit_k_b`` attempts each tree's controller made for them,
how many iris decisions took each path (cold start, steady, hold), and
how many packets all runs ended with delivered and in flight, and exits
0.

:func:`random_scenario` is also the generator of the simulator
invariant test, ``tests/test_invariants.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import signal
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parents[1]
PARTS = ("trace_csv", "read_back", "totals", "decisions", "applied_fits", "metrics")
PATHS = ("cold start", "steady", "hold")  # of an iris decision
PACKETS = ("delivered", "in flight")  # at the end of a run, summed over flows


def _on_grid(rng: random.Random, low: float, high: float) -> float:
    """A multiple of 5 ms in ``[low, high]``.  Delays, epochs and start
    times on one grid make an ACK that lands exactly on an epoch timer
    common, so a change in tie order shows."""
    return 5.0 * rng.randint(math.ceil(low / 5.0), math.floor(high / 5.0))


def _delay(rng: random.Random) -> float:
    return rng.choice((rng.uniform(2.0, 60.0), _on_grid(rng, 5.0, 60.0)))


def _random_flow(rng: random.Random, duration: float, max_capacity: float) -> dict:
    kind = rng.choice(("iris", "iris", "aimd", "vegas", "constant"))
    params: dict = {"epoch_len": rng.choice((20.0, 50.0, rng.uniform(10.0, 100.0),
                                             _on_grid(rng, 10.0, 100.0)))}
    if kind == "iris" and rng.random() < 0.5:
        # Short re-fit periods and RTT windows, so that short runs re-fit.
        params.update(
            k_update_period=rng.uniform(100.0, 2000.0),
            rtt_window=rng.uniform(200.0, 10_000.0),
        )
    elif kind == "aimd":
        params["initial_cwnd"] = rng.uniform(1.0, 20.0)
    elif kind == "vegas":
        alpha = rng.uniform(0.5, 4.0)
        params.update(alpha=alpha, beta=alpha + rng.uniform(0.0, 4.0))
    elif kind == "constant":
        params["rate"] = rng.uniform(0.01, 2.0 * max_capacity)
    flow = {"controller": kind,
            "start_ms": rng.choice((0.0, rng.uniform(0.0, duration / 2.0),
                                    _on_grid(rng, 0.0, duration / 2.0))),
            "params": params}
    if rng.random() < 0.3:
        flow["prop_delay_ms"] = _delay(rng)
    return flow


def random_scenario(rng: random.Random, max_duration: float = 2000.0) -> dict:
    """One small scenario document drawn from ``rng``.

    Runs of 0.2 s to ``max_duration`` ms; a capacity schedule with up to
    four changes 0.5-500 ms apart, down to 0.001 packets/ms; one to
    three flows of mixed controllers with varied epochs, start times and
    delays, each sometimes on a 5 ms grid; random loss up to 50%; queues
    of 1-104 packets.
    """
    duration = rng.uniform(200.0, max_duration)
    schedule = [[0.0, rng.uniform(0.05, 2.0)]]
    for _ in range(rng.randint(0, 4)):
        step = rng.choice((0.5, 1.0, rng.uniform(0.5, 500.0)))
        schedule.append([schedule[-1][0] + step, rng.choice((0.001, rng.uniform(0.05, 2.0)))])
    link = {
        "bandwidth_schedule": schedule,
        "prop_delay_ms": _delay(rng),
        "queue_capacity_pkts": rng.randint(1, 104),
        "random_loss": rng.choice((0.0, 0.0, rng.uniform(0.0, 0.1), rng.uniform(0.0, 0.5))),
        "seed": rng.randrange(1000),
    }
    max_capacity = max(cap for _, cap in schedule)
    flows = [_random_flow(rng, duration, max_capacity) for _ in range(rng.randint(1, 3))]
    return {"duration_ms": duration, "link": link, "flows": flows}


def digest_runs(docs: list[dict]) -> dict:
    """Run each scenario with the ``iriscc`` on the path and hash its outputs."""
    import iriscc
    from iriscc import controller
    from iriscc.controller import Phase
    from iriscc.metrics import fairness_report, utilization
    from iriscc.netsim import Simulation
    from iriscc.scenario import scenario_from_dict
    from iriscc.trace import read_trace_csv, write_trace_csv

    digests = []
    fits = 0
    paths = Counter()
    packets = Counter()
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(controller, "fit_k_b", wraps=controller.fit_k_b) as exact_fit:
        path = Path(tmp) / "trace.csv"
        for doc in docs:
            try:
                scenario = scenario_from_dict(doc)
                sim = Simulation(scenario)
                traces = sim.run()
                write_trace_csv(traces, path)
                read_back = read_trace_csv(path)
                duration = scenario.duration
                capacity = scenario.link.mean_capacity(0.0, duration)
                metrics = (fairness_report(traces, duration),
                           utilization(traces, capacity, 0.0, duration))
            except Exception as exc:  # a run that fails is a result to compare
                digests.append({"error": f"{type(exc).__name__}: {exc}"})
                continue
            iris = [c for c in sim.controllers if c.kind == "iris"]
            outputs = {
                "trace_csv": path.read_bytes(),
                "read_back": repr(read_back).encode(),
                "totals": repr([trace.totals for trace in traces]).encode(),
                "decisions": repr([c.decisions for c in iris]).encode(),
                "applied_fits": repr([[(time, fit.k, fit.b, fit.plcc, fit.n)
                                       for time, fit in c.applied_fits]
                                      for c in iris]).encode(),
                "metrics": repr(metrics).encode(),
            }
            digests.append({name: hashlib.sha256(outputs[name]).hexdigest() for name in PARTS})
            fits += sum(len(c.applied_fits) for c in iris)
            paths.update("cold start" if entry.phase is Phase.COLD_START
                         else "steady" if entry.measured else "hold"
                         for c in iris for entry in c.decisions)
            for trace in traces:
                packets["delivered"] += trace.totals.delivered
                packets["in flight"] += trace.totals.in_flight
    return {"iriscc": iriscc.__file__, "digests": digests, "fits": fits,
            "fit_attempts": exact_fit.call_count, "paths": [paths[name] for name in PATHS],
            "packets": [packets[name] for name in PACKETS]}


def _start_tree(src: Path, docs_path: Path) -> subprocess.Popen:
    """Start a process that runs the scenarios in ``docs_path`` with the
    package under ``src``; :func:`_tree_digests` collects its result."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(ROOT / "tools")]))
    code = ("import json, sys, diffcheck\n"
            "with open(sys.argv[1]) as docs:\n"
            "    json.dump(diffcheck.digest_runs(json.load(docs)), sys.stdout)\n")
    return subprocess.Popen([sys.executable, "-c", code, str(docs_path)], cwd=src, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def _tree_digests(proc: subprocess.Popen, src: Path) -> dict:
    out, err = proc.communicate()
    if proc.returncode:
        raise subprocess.CalledProcessError(proc.returncode, proc.args, out, err)
    result = json.loads(out)
    if not Path(result["iriscc"]).resolve().is_relative_to(src.resolve()):
        raise RuntimeError(f"imported {result['iriscc']}, not the package under {src}")
    return result


def _git(*args: str) -> None:
    subprocess.run(["git", *args], cwd=ROOT, check=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", required=True, metavar="REV",
                        help="git revision to compare the working tree with")
    parser.add_argument("--count", type=int, default=300, help="number of scenarios")
    parser.add_argument("--seed", type=int, default=0, help="seed of the scenario generator")
    args = parser.parse_args(argv)
    # Unwind on SIGTERM, so that the runs stop and the worktree goes.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    rng = random.Random(args.seed)
    # Runs of up to 6 s, so that more iris flows reach steady state and re-fit.
    docs = [random_scenario(rng, max_duration=6000.0) for _ in range(args.count)]
    with tempfile.TemporaryDirectory() as tmp:
        docs_path = Path(tmp) / "docs.json"
        docs_path.write_text(json.dumps(docs))
        tree = Path(tmp) / "tree"
        try:
            _git("worktree", "add", "--detach", "--quiet", str(tree), args.against)
            # Leaving the block waits for both processes, so the
            # worktree outlives its run.
            with _start_tree(tree / "src", docs_path) as their_run, \
                    _start_tree(ROOT / "src", docs_path) as our_run:
                try:
                    theirs = _tree_digests(their_run, tree / "src")
                    ours = _tree_digests(our_run, ROOT / "src")
                finally:
                    for run in (their_run, our_run):
                        if run.returncode is None:  # the other one failed, or a stop
                            run.kill()
        finally:
            if tree.exists():  # a stop can come before the worktree is added
                _git("worktree", "remove", "--force", str(tree))
    for index, (doc, mine, other) in enumerate(zip(docs, ours["digests"], theirs["digests"])):
        differing = [name for name in sorted(set(mine) | set(other)) if mine.get(name) != other.get(name)]
        if differing:
            print(f"scenario {index} of {args.count} differs from {args.against} in: "
                  f"{', '.join(differing)}")
            print(json.dumps(doc, indent=2))
            return 1
    print(f"{args.count} of {args.count} scenarios identical to {args.against} "
          f"over {', '.join(PARTS)} (seed {args.seed}), {ours['fits']} adopted slope fits "
          f"from {ours['fit_attempts']} exact fit_k_b attempts ({theirs['fit_attempts']} "
          f"at {args.against}), iris decisions by path: "
          f"{', '.join(f'{n} {name}' for name, n in zip(PATHS, ours['paths']))}; packets at "
          f"the end of the runs: {', '.join(f'{n} {name}' for name, n in zip(PACKETS, ours['packets']))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
