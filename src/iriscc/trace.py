"""Per-flow simulation traces and their CSV representation.

One row per finished sender epoch.  CSV columns::

    time_ms, flow_id, send_rate, throughput, rtt_ms, queue_pkts, drops

``send_rate`` is the rate actually emitted over the epoch and
``throughput`` the delivered rate (both packets/ms); ``rtt_ms`` is the
epoch's mean RTT (the last known value is carried over epochs with no
ACKs so every row stays finite); ``queue_pkts`` is the mean bottleneck
occupancy seen by this flow's packets on arrival; ``drops`` counts this
flow's packets lost during the epoch.  Rows are sorted by
``(time_ms, flow_id)``: the writer takes the traces in flow-id order and
sorts their rows on time alone, both sorts stable, so traces that share
a flow id keep their order too (a NaN time has no place in that order).
Numbers use fixed formats, so equal runs produce byte-identical files.
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Iterable, NamedTuple

CSV_COLUMNS = ("time_ms", "flow_id", "send_rate", "throughput", "rtt_ms", "queue_pkts", "drops")


class TraceRow(NamedTuple):
    time: float        # epoch window end, ms
    send_rate: float   # packets/ms emitted during the epoch
    throughput: float  # packets/ms delivered
    rtt: float         # mean RTT of the epoch's ACKs, ms
    queue: float       # mean occupancy at this flow's arrivals, packets
    drops: int         # this flow's losses during the epoch


@dataclass
class FlowTotals:
    sent: int = 0
    delivered: int = 0
    dropped_overflow: int = 0
    dropped_random: int = 0
    in_flight: int = 0  # unresolved at the end of the run


_row_time = itemgetter(0)  # a TraceRow's time


@dataclass
class FlowTrace:
    """One flow's rows and totals.

    ``rows`` must be sorted by time (non-decreasing), as the simulator
    emits them and :func:`read_trace_csv` returns them:
    :meth:`rows_between` bisects over them.
    """

    flow_id: int
    kind: str
    rows: list[TraceRow] = field(default_factory=list)
    totals: FlowTotals = field(default_factory=FlowTotals)

    def rows_between(self, t0: float, t1: float) -> list[TraceRow]:
        """Rows with t0 < time <= t1, found by bisection."""
        if not t0 < t1:
            return []
        rows = self.rows
        lo = bisect_right(rows, t0, key=_row_time)
        return rows[lo:bisect_right(rows, t1, lo, key=_row_time)]


# A row as ``csv.writer`` writes it (no field needs quoting), its flow id to fill in.
_ROW_FORMAT = "%.3f,{},%.6f,%.6f,%.6f,%.3f,%d\r\n"


def write_trace_csv(traces: Iterable[FlowTrace], path: str | Path) -> None:
    """Write all flows' rows into one CSV, in ``(time, flow id)`` order."""
    rows, formats = [], []  # each row and its flow's format
    for trace in sorted(traces, key=attrgetter("flow_id")):
        rows += trace.rows
        formats += [_ROW_FORMAT.format(trace.flow_id)] * len(trace.rows)
    order = sorted(range(len(rows)), key=list(map(_row_time, rows)).__getitem__)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\r\n")
        for i in range(0, len(order), 1024):  # 1024 rows per write bound the text held
            fh.write("".join([formats[j] % rows[j] for j in order[i:i + 1024]]))


def read_trace_csv(path: str | Path) -> dict[int, list[TraceRow]]:
    """Read a trace CSV back into per-flow, time-ordered rows.

    Columns are found by name, in any order.  Extra columns and blank
    lines are ignored; a short line, a bad field or a NaN or infinite
    time is an error.
    """
    per_flow: dict[int, list[TraceRow]] = {}
    lists: dict[str, list[TraceRow]] = {}  # each flow's rows, by the text of its id
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        position = {name: i for i, name in enumerate(next(reader, []))}
        missing = [col for col in CSV_COLUMNS if col not in position]
        if missing:
            raise ValueError(f"trace is missing columns: {', '.join(missing)}")
        t, f, s, tp, r, q, d = (position[col] for col in CSV_COLUMNS)
        try:
            for entry in filter(None, reader):
                time = float(entry[t])
                if not -math.inf < time < math.inf:
                    raise ValueError(f"time_ms is not finite: {entry[t]!r}")
                # tuple.__new__ skips the namedtuple's Python-level __new__.
                row = tuple.__new__(TraceRow, (time, float(entry[s]), float(entry[tp]),
                                               float(entry[r]), float(entry[q]), int(entry[d])))
                text = entry[f]
                rows = lists.get(text)
                if rows is None:  # texts such as "1" and "01" name one flow
                    rows = lists[text] = per_flow.setdefault(int(text), [])
                rows.append(row)
        except IndexError:
            raise ValueError(f"trace line {reader.line_num} has fewer fields than the header") from None
        except ValueError as exc:
            raise ValueError(f"trace line {reader.line_num}: {exc}") from None
    for rows in per_flow.values():
        rows.sort(key=_row_time)
    return per_flow
