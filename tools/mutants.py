"""Mutation check: every listed source mutant must fail the test suite.

    python3 tools/mutants.py

Each entry of :data:`MUTANTS` names a file, a piece of its text that
must occur exactly once, and what to put there instead.  For each one
the checkout (its tracked files and untracked files that are not
ignored, as they are in the working tree) is copied into a temporary
directory, the mutant is applied there, and ``python -m pytest -x`` runs
the tier-1 suite on the copy.  A failing suite kills the mutant.

Every mutant is printed as ``killed`` or ``SURVIVED`` with the suite's
last line and its first failing test.  The exit status is 1 if any
mutant survived or if any entry's text no longer occurs exactly once in
its file (``STALE``), else 0.  The unmutated copy runs the suite first
and must pass it, else the exit status is 2.  The checkout itself is
never modified.  Mutants run one after another, each for at most
``TIMEOUT_FACTOR`` times as long as the unmutated suite took: a suite
still running then (a mutant can make a loop spin) is stopped, and its
mutant counts as ``killed (timeout)``.  A SIGTERM stops the suite
running, with every process it started, and removes its copy.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

NETSIM = "src/iriscc/netsim.py"
BASELINES = "src/iriscc/baselines.py"
CONTROLLER = "src/iriscc/controller.py"
FEEDBACK = "src/iriscc/feedback.py"
TRACE = "src/iriscc/trace.py"

# How many times the unmutated suite's running time a mutant's suite gets.
TIMEOUT_FACTOR = 4

# (file, text, replacement): one mutant each.
MUTANTS = [
    # The FIFO's rules.
    (NETSIM, "if occupancy >= capacity:", "if occupancy > capacity:"),
    # An arrival pops the departures before it, a timer those at its
    # instant too.  (A mutant that drops the arrival's ``clear()`` would
    # be equivalent: the departures it leaves are all before the arrival,
    # and the next arrival or timer pops them anyway.)
    (NETSIM, "while departures[0] < now:", "while departures[0] <= now:"),
    (NETSIM, "if tail < now:", "if tail <= now:"),
    (NETSIM, "while departures[0] <= now:", "while departures[0] < now:"),
    (NETSIM, "if tail <= now:", "if tail < now:"),
    (NETSIM, "while next_change < start:", "while next_change <= start:"),
    (NETSIM, """\
                if random_loss > 0.0 and draw() < random_loss:
                    acc.lost += 1
                    continue
                if occupancy >= capacity:
                    acc.overflow += 1
                    continue
""", """\
                if occupancy >= capacity:
                    acc.overflow += 1
                    continue
                if random_loss > 0.0 and draw() < random_loss:
                    acc.lost += 1
                    continue
"""),
    (NETSIM, "tail = start + service_time", "tail = start + service_time / 2"),
    # The arrivals' order: arrivals at an event's instant come before
    # it, an epoch's chain stops short of its end and at the run's end,
    # that instant included, and the runs of two or more flows are
    # merged.  (A sort on the whole (time, flow id) tuple would be an
    # equivalent mutant: the runs are joined in flow-id order and the
    # sort on time is stable.)
    (NETSIM, "hi = bisect_right(run, bound,", "hi = __import__('bisect').bisect_left(run, bound,"),
    (NETSIM, "if t >= stop:", "if t > stop:"),
    (NETSIM, "self._refill(flow, now, math.nextafter(self._duration, math.inf))",
     "self._refill(flow, now, window_end)"),
    (NETSIM, "math.nextafter(self._duration, math.inf))", "self._duration)"),
    (NETSIM, "if taken > 1:", "if taken > 2:"),
    # A chain keeps its pacing gap into the next epoch only when that
    # gap ends after the timer.
    (NETSIM, "t = paced if paced > start else start", "t = paced"),
    # The emission guard allows exactly its limit per epoch; the loop
    # refills a used-up run after a full segment, and each refill
    # resumes where the last segment ended.
    (NETSIM, "if acc.planned > _MAX_EMISSIONS_PER_EPOCH:",
     "if acc.planned >= _MAX_EMISSIONS_PER_EPOCH:"),
    (NETSIM, "refill(flow, -math.inf, flow.pacing)", "refill(flow, bound, flow.pacing)"),
    (NETSIM, "flow.run[-1][0] + interval", "flow.run[-1][0] + 2 * interval"),
    (NETSIM, "len(segment) == _SEGMENT", "len(segment) > _SEGMENT"),
    (NETSIM, "if flow.pacing is not None:", "if False:"),
    # Drops are counted by kind, and the end of the run counts the open
    # epoch, its drops too.
    (NETSIM, "acc.lost += 1", "acc.overflow += 1"),
    (NETSIM, "_count(totals, final)", "pass"),
    (NETSIM, "_count(totals, final)", "totals.sent += final.planned"),
    # A rate the chain can pace, from the start on: positive and finite,
    # tested in _checked_rate and inline for every decided rate.
    (NETSIM, """\
    if not 0 < rate < math.inf:
        raise""", """\
    if not 0 < rate <= math.inf:
        raise"""),
    (NETSIM, """\
                if not 0 < rate < math.inf:  # _checked_rate's test, inline
                    _checked_rate(rate)
""", "                pass\n"),
    (NETSIM, "if not 0 < rate < math.inf:  # _checked_rate's test, inline",
     "if not 0 < rate <= math.inf:"),
    # ACK accounting: delivered within the run, every admitted packet
    # acked, and an epoch resolved once its latest ACK is due.
    (NETSIM, "if ack > duration:", "if ack >= duration:"),
    (NETSIM, "acked = acc.planned - dropped", "acked = acc.planned"),
    (NETSIM, "acc.last_ack is not None and acc.last_ack > now",
     "acc.last_ack is not None and acc.last_ack >= now"),
    # Feedback is built unchecked, except that a measured RTT that
    # rounds to zero still raises the constructor's error.
    (NETSIM, "if not mean_rtt > 0.0:", "if not mean_rtt >= 0.0:"),
    # A controller accepts every keyword of its constructor, and its
    # ValueError becomes a ScenarioError on the flow's params.
    (NETSIM, "frozenset(inspect.signature(cls).parameters)",
     "frozenset(list(inspect.signature(cls).parameters)[:-1])"),
    (NETSIM, "except ValueError as exc:", "except TypeError as exc:"),
    # The writer takes the traces in flow-id order before its stable
    # sort on time, and the reader keeps each field in its place.
    (TRACE, "for trace in sorted(traces, key=attrgetter(\"flow_id\")):", "for trace in traces:"),
    (TRACE, "float(entry[r]), float(entry[q])", "float(entry[q]), float(entry[r])"),
    # Flow-id texts of one value, such as "1" and "01", share one list.
    (TRACE, "rows = lists[text] = per_flow.setdefault(int(text), [])",
     "rows = lists[text] = per_flow[int(text)] = []"),
    # Trace windows are left-open, right-closed at both edges.
    (TRACE, "lo = bisect_right(rows, t0, key=_row_time)",
     "lo = __import__('bisect').bisect_left(rows, t0, key=_row_time)"),
    (TRACE, "rows[lo:bisect_right(rows, t1, lo, key=_row_time)]",
     "rows[lo:__import__('bisect').bisect_left(rows, t1, lo, key=_row_time)]"),
    # Jain's index takes only non-negative, finite shares, also when
    # their sum overflows.
    ("src/iriscc/metrics.py", "finite = total < math.inf", "finite = True"),
    ("src/iriscc/metrics.py", "finite = all(v < math.inf for v in values)", "finite = True"),
    # The one-pass Jain windows are left-open, right-closed too.  (The
    # walk needs no step that lifts ``hi`` to ``lo``: every row that
    # ``lo`` passes lies at or before ``t - window`` <= ``t``, so ``hi``
    # passes it too, and a mutant that walks ``lo`` first and drops such
    # a step would be equivalent.)
    ("src/iriscc/metrics.py", "while row_times[hi] <= t:", "while row_times[hi] < t:"),
    ("src/iriscc/metrics.py", "while row_times[lo] <= start:", "while row_times[lo] < start:"),
    # A replaced feedback record is checked like a new one, and a
    # measured epoch's mean RTT is positive.
    (FEEDBACK, "return cls(*iterable)", "return tuple.__new__(cls, iterable)"),
    (FEEDBACK, "0 < mean_rtt < math.inf", "0 <= mean_rtt < math.inf"),
    # The re-fit screen may reject only what the exact gate rejects.
    (CONTROLLER, """\
SCREEN_PLCC_MARGIN = 0.05
# ... and, with the send-rate sum, the excitation estimate by under 0.3%.
SCREEN_EXCITATION_MARGIN = 0.1   # relative
""", """\
SCREEN_PLCC_MARGIN = 0.0
# ... and, with the send-rate sum, the excitation estimate by under 0.3%.
SCREEN_EXCITATION_MARGIN = 0.0   # relative
"""),
    # Iris's own estimates: an ACK no later than the previous one spans
    # nothing, and the RTT change is taken before the previous RTT moves.
    (CONTROLLER, "fb.last_ack <= last", "fb.last_ack < last"),
    (CONTROLLER, """\
        delta = None if self.prev_rtt is None else fb.mean_rtt - self.prev_rtt
        self.last_meas_ack = fb.last_ack
        self.prev_rtt = fb.mean_rtt
""", """\
        self.prev_rtt = fb.mean_rtt
        delta = None if self.prev_rtt is None else fb.mean_rtt - self.prev_rtt
        self.last_meas_ack = fb.last_ack
"""),
    # The records, built unchecked, hold every field, in declared order.
    (CONTROLLER, "self.target_delay, objective, rtt_step, recv_rate, contraction)",
     "self.target_delay, rtt_step, objective, recv_rate, contraction)"),
    (CONTROLLER, "recv_rate, contraction))", "recv_rate))"),
    (CONTROLLER, "fb.mean_rtt, delta))", "fb.mean_rtt))"),
    # The contraction factor reads the slope the step used.
    (CONTROLLER, "gap_contraction_factor(fb.mean_rtt, target, k_used, bound, scale)",
     "gap_contraction_factor(fb.mean_rtt, target, self.k, bound, scale)"),
    # The re-fit clock waits out a whole period after an adopted fit.
    (CONTROLLER, "now - fits[-1][0] < self.k_update_period",
     "now - fits[-1][0] <= self.k_update_period"),
    # The cold exit lands on the latest receiving rate, and the loss
    # burst compares against the previous epoch's loss rate.
    (CONTROLLER, "landing = self.history[-1].recv_rate if self.history else self.current_rate",
     "landing = self.current_rate"),
    (CONTROLLER, """\
        prev_loss = self.prev_loss_rate
        self.prev_loss_rate = loss_rate
""", """\
        self.prev_loss_rate = loss_rate
        prev_loss = self.prev_loss_rate
"""),
    # AIMD: slow start ends at ssthresh, and a loss keeps one packet.
    (BASELINES, "1.0 if cwnd < ssthresh else", "1.0 if cwnd <= ssthresh else"),
    (BASELINES, "max(1.0, self.cwnd / 2.0)", "max(0.5, self.cwnd / 2.0)"),
    # Vegas: the base RTT is the smallest seen, and the band is closed.
    (BASELINES, "self.base_rtt = min(", "self.base_rtt = max("),
    (BASELINES, "if diff < self.alpha:", "if diff <= self.alpha:"),
    (BASELINES, "elif diff > self.beta:", "elif diff >= self.beta:"),
    (BASELINES, "max(1.0, self.cwnd - 1.0)", "max(0.5, self.cwnd - 1.0)"),
    # The excitation gate reads the population deviation of the overshoot,
    # and equal samples have no spread however their mean rounds.
    ("src/iriscc/regression.py", "x_std = math.sqrt(sxx / n)", "x_std = math.sqrt(sxx / (n - 1))"),
    ("src/iriscc/regression.py", "_MEAN_ROUNDING = 2.0 ** -50", "_MEAN_ROUNDING = 0.0"),
]


def checkout_files() -> list[str]:
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=ROOT, check=True, capture_output=True, text=True).stdout
    return [name for name in listed.split("\0") if name and (ROOT / name).is_file()]


def run_suite(files: list[str], mutant: tuple[str, str, str] | None,
              timeout: float | None = None) -> tuple[str, str]:
    """(verdict, the suite's last line) for one mutant, or for the
    unmutated copy when ``mutant`` is None.  A suite that runs past
    ``timeout`` seconds is stopped and kills its mutant."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp)
        for name in files:
            (copy / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, copy / name)
        if mutant is not None:
            path, text, replacement = mutant
            target = copy / path
            source = target.read_text()
            if source.count(text) != 1:
                return "STALE", f"the text occurs {source.count(text)} times"
            target.write_text(source.replace(text, replacement))
        # In a session of its own, so that stopping the suite stops what
        # its tests started too.
        with subprocess.Popen(
                [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"],
                cwd=copy, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                env={**os.environ, "PYTHONPATH": str(copy / "src")},
                start_new_session=True) as suite:
            try:
                out = suite.communicate(timeout=timeout)[0]
            except subprocess.TimeoutExpired:
                return "killed (timeout)", f"no result after {timeout:.0f} s"
            finally:
                if suite.returncode is None:  # timed out, or the tool was stopped
                    os.killpg(suite.pid, signal.SIGKILL)
    lines = [line for line in out.splitlines() if line.strip()]
    failed = [line.split(" - ")[0] for line in lines if line.startswith(("FAILED ", "ERROR "))]
    summary = (lines[-1] if lines else "") + (f" ({failed[0]})" if failed else "")
    return ("passed" if suite.returncode == 0 else "killed"), summary


def main() -> int:
    # Unwind on SIGTERM, so that the running suite stops and its copy goes.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    files = checkout_files()
    start = time.monotonic()
    verdict, last = run_suite(files, None)
    timeout = TIMEOUT_FACTOR * (time.monotonic() - start)
    print(f"unmutated copy: {verdict} -- {last}; each mutant gets {timeout:.0f} s", flush=True)
    if verdict != "passed":
        return 2
    bad = 0
    for index, mutant in enumerate(MUTANTS):
        verdict, last = run_suite(files, mutant, timeout)
        if verdict == "passed":
            verdict = "SURVIVED"
        bad += not verdict.startswith("killed")
        path, _, replacement = mutant
        print(f"{index:2d} {verdict:8s} {path}: {replacement.strip().splitlines()[0]!r} -- {last}",
              flush=True)
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
