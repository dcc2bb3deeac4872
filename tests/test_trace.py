"""Trace CSV writing and reading: determinism, ordering, and the
row-window helper."""

import csv
import itertools
import math
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import flow, make_link, scenario
from iriscc.netsim import run_scenario
from iriscc.trace import (
    CSV_COLUMNS,
    FlowTotals,
    FlowTrace,
    TraceRow,
    read_trace_csv,
    write_trace_csv,
)


def row(time, flow_rate=1.0, tput=0.9, rtt=50.0, queue=3.25, drops=0):
    return TraceRow(time=time, send_rate=flow_rate, throughput=tput,
                    rtt=rtt, queue=queue, drops=drops)


def two_flow_traces():
    a = FlowTrace(flow_id=0, kind="iris", totals=FlowTotals())
    b = FlowTrace(flow_id=1, kind="aimd", totals=FlowTotals())
    a.rows = [row(50.0, flow_rate=1.25, tput=1.2), row(100.0, drops=2)]
    b.rows = [row(50.0, flow_rate=0.5, tput=0.4, rtt=61.5)]
    return [a, b]


def test_round_trip_preserves_values_at_format_precision(tmp_path):
    path = tmp_path / "trace.csv"
    traces = two_flow_traces()
    write_trace_csv(traces, path)
    back = read_trace_csv(path)
    assert set(back) == {0, 1}
    assert back[0] == traces[0].rows
    assert back[1] == traces[1].rows


def test_rows_interleaved_by_time_then_flow(tmp_path):
    path = tmp_path / "trace.csv"
    write_trace_csv(two_flow_traces(), path)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    keys = [(float(line.split(",")[0]), int(line.split(",")[1])) for line in lines[1:]]
    assert keys == [(50.0, 0), (50.0, 1), (100.0, 0)]


def test_rewrite_is_byte_identical(tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    write_trace_csv(two_flow_traces(), first)
    write_trace_csv(two_flow_traces(), second)
    assert first.read_bytes() == second.read_bytes()


def test_fixed_decimal_formats(tmp_path):
    path = tmp_path / "trace.csv"
    trace = FlowTrace(flow_id=3, kind="iris", totals=FlowTotals())
    trace.rows = [TraceRow(time=1234.5, send_rate=2.0833333333333335,
                           throughput=1.0 / 3.0, rtt=50.0, queue=2.0, drops=1)]
    write_trace_csv([trace], path)
    assert path.read_text().splitlines()[1] == (
        "1234.500,3,2.083333,0.333333,50.000000,2.000,1")


def test_read_rejects_missing_columns(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time_ms,flow_id,send_rate\n50.0,0,1.0\n")
    with pytest.raises(ValueError, match="missing columns"):
        read_trace_csv(path)


def test_read_finds_columns_by_name(tmp_path):
    # two_flow_traces' rows with the columns shuffled, an extra column
    # and a blank line.
    path = tmp_path / "moved.csv"
    path.write_text(
        "drops,note,rtt_ms,flow_id,queue_pkts,throughput,time_ms,send_rate\n"
        "0,a,50.000000,0,3.250,1.200000,50.000,1.250000\n"
        "\n"
        "0,b,61.500000,1,3.250,0.400000,50.000,0.500000\n"
        "2,c,50.000000,0,3.250,0.900000,100.000,1.000000\n")
    traces = two_flow_traces()
    assert read_trace_csv(path) == {0: traces[0].rows, 1: traces[1].rows}


def test_read_sorts_rows_per_flow(tmp_path):
    path = tmp_path / "trace.csv"
    header = ",".join(CSV_COLUMNS)
    path.write_text(
        f"{header}\n"
        "100.000,0,1.000000,1.000000,50.000000,0.000,0\n"
        "50.000,0,1.000000,1.000000,50.000000,0.000,0\n"
    )
    back = read_trace_csv(path)
    assert [r.time for r in back[0]] == [50.0, 100.0]


def test_read_joins_flow_id_texts_of_one_value(tmp_path):
    path = tmp_path / "trace.csv"
    header = ",".join(CSV_COLUMNS)
    path.write_text(
        f"{header}\n"
        "100.000,1,1.000000,1.000000,50.000000,0.000,0\n"
        "50.000,01,2.000000,2.000000,50.000000,0.000,0\n"
        "150.000,1,3.000000,3.000000,50.000000,0.000,0\n"
    )
    back = read_trace_csv(path)
    assert list(back) == [1]
    assert [(r.time, r.send_rate) for r in back[1]] == [(50.0, 2.0), (100.0, 1.0), (150.0, 3.0)]


@pytest.mark.parametrize("seed", range(3))
def test_read_of_shuffled_rows_is_time_sorted(tmp_path, seed):
    traces = [FlowTrace(flow_id=flow, kind="iris", totals=FlowTotals(),
                        rows=[row(25.0 * (i + 1), tput=(i + flow) / 8) for i in range(40)])
              for flow in range(3)]
    path = tmp_path / "trace.csv"
    write_trace_csv(traces, path)
    header, *lines = path.read_text().splitlines()
    random.Random(seed).shuffle(lines)
    path.write_text("\n".join([header, *lines]) + "\n")
    back = read_trace_csv(path)
    assert [back[trace.flow_id] for trace in traces] == [trace.rows for trace in traces]


def test_rows_between_is_left_open_right_closed():
    trace = FlowTrace(flow_id=0, kind="iris", totals=FlowTotals())
    trace.rows = [row(50.0), row(100.0), row(150.0)]
    picked = trace.rows_between(50.0, 150.0)
    assert [r.time for r in picked] == [100.0, 150.0]
    assert trace.rows_between(150.0, 150.0) == []
    assert trace.rows_between(0.0, 50.0) == [trace.rows[0]]


def test_empty_traces_write_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    write_trace_csv([FlowTrace(flow_id=0, kind="iris", totals=FlowTotals())], path)
    assert path.read_text() == ",".join(CSV_COLUMNS) + "\n"


# --- the one-pass writer against csv.writer ------------------------------------

def csv_writer_reference(traces, path):
    """The oracle: each row formatted field by field and written by
    ``csv.writer`` in its default dialect."""
    keyed = [(row.time, trace.flow_id, row) for trace in traces for row in trace.rows]
    keyed.sort(key=lambda item: (item[0], item[1]))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for _, flow_id, r in keyed:
            writer.writerow([f"{r.time:.3f}", str(flow_id), f"{r.send_rate:.6f}",
                             f"{r.throughput:.6f}", f"{r.rtt:.6f}", f"{r.queue:.3f}",
                             str(r.drops)])


# Values that round at the 6th or 3rd decimal, signed zeros, 1e16 and
# whatever else a float can be.
awkward_floats = st.one_of(
    st.sampled_from([-0.0, 0.0, 0.0000005, 0.0000015, 2.5e-7, 0.0005, 1.0005, 2.0625,
                     -1.2345675, 999.9995, 1e16, -1e16, 1e300]),
    st.floats(),
)
awkward_rows = st.builds(TraceRow, time=st.sampled_from([0.0, -0.0, 25.0, 25.0005, 1e16]) | st.floats(),
                         send_rate=awkward_floats, throughput=awkward_floats, rtt=awkward_floats,
                         queue=awkward_floats, drops=st.integers(0, 10**30))


@given(st.lists(st.lists(awkward_rows, max_size=8), max_size=3))
# NaN times, one NaN object and distinct ones, among equal and finite times.
@example([[row(math.nan, drops=1), row(50.0, drops=2), row(math.nan, drops=3)],
          [row(50.0, drops=4), row(float("nan"), drops=5), row(25.0, drops=6)],
          [row(math.nan, drops=7)]])
# Equal times within and across flows.
@example([[row(50.0, drops=i) for i in range(3)], [row(50.0, drops=3 + i) for i in range(3)],
          [row(25.0, drops=6), row(50.0, drops=7)]])
@example([[row(-0.0, flow_rate=-0.0, tput=0.0000005, rtt=1e16, queue=0.0005, drops=10**20)],
          [row(-0.0), row(0.0, drops=3)]])
@example([[row(25.0 * i, drops=i) for i in range(1500)], [row(12.5 * i) for i in range(700)]])
def test_writer_bytes_equal_csv_writer(tmp_path_factory, rows_per_flow):
    traces = [FlowTrace(flow_id=flow, kind="iris", totals=FlowTotals(), rows=rows)
              for flow, rows in enumerate(rows_per_flow)]
    folder = tmp_path_factory.mktemp("writer")
    write_trace_csv(traces, folder / "fast.csv")
    csv_writer_reference(traces, folder / "reference.csv")
    data = (folder / "fast.csv").read_bytes()
    assert data == (folder / "reference.csv").read_bytes()
    header, *lines = data.split(b"\r\n")
    assert header == b"time_ms,flow_id,send_rate,throughput,rtt_ms,queue_pkts,drops"
    assert lines[-1] == b"" and len(lines) == sum(map(len, rows_per_flow)) + 1
    assert not any(b"\n" in line or b"\r" in line for line in lines)


def traces_of(*flows):
    """One trace per ``(flow id, row times)``, in the order given; each
    row's drops number it, so the output shows where every row went."""
    numbers = itertools.count()
    return [FlowTrace(flow_id=flow_id, kind="iris", totals=FlowTotals(),
                      rows=[row(time, drops=next(numbers)) for time in times])
            for flow_id, times in flows]


@pytest.mark.parametrize("traces", [
    pytest.param(traces_of((2, [50.0, 100.0]), (1, [25.0, 50.0]), (0, [50.0, 75.0])),
                 id="reverse-flow-ids"),
    pytest.param(traces_of((1, [50.0, 100.0]), (0, [50.0]), (1, [25.0, 50.0, 100.0])),
                 id="shared-flow-id"),
    pytest.param(traces_of((1, [50.0, 50.0]), (0, [50.0]), (2, [50.0, 50.0]), (0, [50.0])),
                 id="equal-times"),
    pytest.param(traces_of((1, [-0.0, 0.0, 25.0]), (0, [0.0, -0.0])), id="signed-zeros"),
    # A NaN time is neither before nor after any other, so only traces
    # given in flow-id order are written as csv.writer's oracle writes them.
    pytest.param(traces_of((0, [math.nan, 50.0, math.nan]), (1, [50.0, float("nan"), 25.0]),
                           (1, [math.nan, -0.0])), id="nan-times"),
])
def test_writer_orders_rows_as_csv_writer_does(tmp_path, traces):
    write_trace_csv(traces, tmp_path / "fast.csv")
    csv_writer_reference(traces, tmp_path / "reference.csv")
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


def test_rows_are_exactly_trace_rows(tmp_path):
    # Both build their rows with tuple.__new__, which checks neither the
    # class nor the number of fields.
    sc = scenario(make_link(queue=8, loss=0.05, seed=2),
                  [flow("iris"), flow("aimd", start=200.0), flow("constant", rate=2.0)], 2000.0)
    traces = run_scenario(sc)
    path = tmp_path / "trace.csv"
    write_trace_csv(traces, path)
    back = read_trace_csv(path)
    for rows in [*(trace.rows for trace in traces), *back.values()]:
        assert rows
        for r in rows:
            assert type(r) is TraceRow and len(r) == 6 and type(r.drops) is int
    assert any(r.drops for trace in traces for r in trace.rows)
    assert sorted(back) == [trace.flow_id for trace in traces]
