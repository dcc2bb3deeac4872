"""Command-line behaviour: artifacts, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from iriscc.cli import main
from iriscc.scenario import load_scenario
from iriscc.trace import read_trace_csv


def write_config(tmp_path, name="scenario.json", *, controller="constant",
                 params=None, loss=0.0, duration=8000, seed=7):
    doc = {
        "duration_ms": duration,
        "link": {
            "bandwidth_mbps": 20.0,
            "prop_delay_ms": 25.0,
            "queue_capacity_pkts": 104,
            "random_loss": loss,
            "seed": seed,
        },
        "flows": [
            {"controller": controller,
             "params": params if params is not None else {"rate": 1.0}},
        ],
    }
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


# --- run -------------------------------------------------------------------------

def test_run_writes_artifacts(tmp_path, capsys):
    config = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    assert (out / "trace.csv").exists()
    assert (out / "scenario.json").exists()
    assert (out / "summary.txt").exists()
    stdout = capsys.readouterr().out
    assert "utilization=" in stdout
    assert stdout == (out / "summary.txt").read_text()


def test_run_zero_duration_writes_summary(tmp_path, capsys):
    config = write_config(tmp_path, duration=0)
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    assert "utilization=0.0000" in (out / "summary.txt").read_text()


def test_run_rejects_invalid_config(tmp_path, capsys):
    config = write_config(tmp_path, loss=1.5)
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 1
    assert "link.random_loss" in capsys.readouterr().err


@pytest.mark.parametrize("params, name", [
    ({"rate": 1.0, "epoch_len": "50"}, "epoch_len"),
    ({"rate": True}, "rate"),
])
def test_run_rejects_non_numeric_controller_params(tmp_path, capsys, params, name):
    config = write_config(tmp_path, params=params)
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 1
    assert f"flows[0].params.{name}: must be a number" in capsys.readouterr().err


def test_run_rejects_non_finite_controller_params(tmp_path, capsys):
    config = write_config(tmp_path, controller="aimd", params={"initial_cwnd": math.nan})
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 1
    assert "error: flows[0].params: initial_cwnd" in capsys.readouterr().err


def test_run_missing_config_file(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["run", "--config", str(missing), "--out", str(tmp_path / "o")]) == 1
    assert "error:" in capsys.readouterr().err


def test_run_out_existing_file_is_an_error(tmp_path, capsys):
    config = write_config(tmp_path)
    out = tmp_path / "taken"
    out.write_text("not a directory")
    assert main(["run", "--config", str(config), "--out", str(out)]) == 1
    assert "error:" in capsys.readouterr().err


def test_run_same_seed_gives_identical_trace(tmp_path):
    config = write_config(tmp_path, loss=0.05)
    outs = []
    for name in ("a", "b", "c"):
        out = tmp_path / name
        seed = 3 if name in ("a", "b") else 4
        assert main(["run", "--config", str(config), "--out", str(out),
                     "--seed", str(seed)]) == 0
        outs.append((out / "trace.csv").read_bytes())
    assert outs[0] == outs[1]
    assert outs[0] != outs[2]


def test_run_seed_override_is_recorded(tmp_path):
    config = write_config(tmp_path, seed=7)
    out = tmp_path / "out"
    main(["run", "--config", str(config), "--out", str(out), "--seed", "99"])
    assert load_scenario(out / "scenario.json").link.seed == 99


def test_run_iris_with_a_target_window_shorter_than_the_rtt(tmp_path, capsys):
    # Each epoch is released at least one RTT after it ends, so a 1 ms
    # target window has evicted the epoch's own RTT sample by then.
    config = write_config(tmp_path, controller="iris", params={"rtt_window": 1}, duration=5000)
    doc = json.loads(config.read_text())
    doc["link"]["prop_delay_ms"] = 30.0
    config.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    rows = read_trace_csv(out / "trace.csv")[0]
    assert rows[-1].time > 4500.0  # epochs keep coming to the end of the run
    assert "utilization=" in capsys.readouterr().out


# --- analyze ---------------------------------------------------------------------

def test_analyze_fits_trace_from_run(tmp_path, capsys):
    config = write_config(tmp_path, controller="iris", params={}, duration=10_000)
    out = tmp_path / "out"
    main(["run", "--config", str(config), "--out", str(out)])
    capsys.readouterr()
    assert main(["analyze", "--trace", str(out / "trace.csv")]) == 0
    stdout = capsys.readouterr().out
    assert "k:" in stdout and "plcc:" in stdout and "n_samples:" in stdout


def test_analyze_pools_flows_without_differencing_across_them(tmp_path, capsys):
    # Two flows of three rows each give two samples apiece: four in all,
    # none spanning the boundary between flow 0's rows and flow 1's.
    path = tmp_path / "two.csv"
    path.write_text(
        "time_ms,flow_id,send_rate,throughput,rtt_ms,queue_pkts,drops\n"
        "50.000,0,2.000000,2.000000,50.000000,0.000,0\n"
        "100.000,0,3.000000,2.000000,60.000000,0.000,0\n"
        "150.000,0,1.500000,2.000000,55.000000,0.000,0\n"
        "50.000,1,2.000000,2.000000,90.000000,0.000,0\n"
        "100.000,1,4.000000,2.000000,110.000000,0.000,0\n"
        "150.000,1,1.000000,2.000000,100.000000,0.000,0\n"
    )
    assert main(["analyze", "--trace", str(path)]) == 0
    stdout = capsys.readouterr().out
    assert "n_samples: 4" in stdout
    assert "k: 10.000000" in stdout and "b: 0.000000" in stdout


def test_analyze_rejects_unfittable_trace(tmp_path, capsys):
    path = tmp_path / "tiny.csv"
    path.write_text(
        "time_ms,flow_id,send_rate,throughput,rtt_ms,queue_pkts,drops\n"
        "50.000,0,1.000000,1.000000,50.000000,0.000,0\n"
        "100.000,0,1.000000,1.000000,50.000000,0.000,0\n"
    )
    assert main(["analyze", "--trace", str(path)]) == 1
    assert "unfittable" in capsys.readouterr().err


def test_analyze_rejects_trace_whose_sums_overflow(tmp_path, capsys):
    # A send rate of 1e200 squares beyond the float range: no fit, not a traceback.
    config = write_config(tmp_path, duration=1000)
    out = tmp_path / "out"
    main(["run", "--config", str(config), "--out", str(out)])
    capsys.readouterr()
    path = out / "trace.csv"
    lines = path.read_text().splitlines()
    fields = lines[-1].split(",")
    fields[2] = "1e200"
    lines[-1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    assert main(["analyze", "--trace", str(path)]) == 1
    assert "unfittable" in capsys.readouterr().err


def test_analyze_rejects_a_short_trace_line(tmp_path, capsys):
    path = tmp_path / "short.csv"
    path.write_text(
        "time_ms,flow_id,send_rate,throughput,rtt_ms,queue_pkts,drops\n"
        "50.000,0,1.000000,1.000000,50.000000,0.000,0\n"
        "100.000,0,1.000000\n"
    )
    assert main(["analyze", "--trace", str(path)]) == 1
    assert "error: trace line 3 has fewer fields than the header" in capsys.readouterr().err


@pytest.mark.parametrize("column, value, reason", [
    (2, "abc", "could not convert string to float: 'abc'"),
    (1, "x", "invalid literal for int() with base 10: 'x'"),
    (1, "0.0", "invalid literal for int() with base 10: '0.0'"),  # flow 0's value, not its text
    (6, "1.5", "invalid literal for int() with base 10: '1.5'"),
])
def test_analyze_names_the_line_of_a_field_that_does_not_parse(tmp_path, capsys, column,
                                                                value, reason):
    fields = "100.000,0,1.000000,1.000000,50.000000,0.000,0".split(",")
    fields[column] = value
    path = tmp_path / "bad.csv"
    path.write_text(
        "time_ms,flow_id,send_rate,throughput,rtt_ms,queue_pkts,drops\n"
        "50.000,0,1.000000,1.000000,50.000000,0.000,0\n"
        + ",".join(fields) + "\n"
    )
    assert main(["analyze", "--trace", str(path)]) == 1
    assert f"error: trace line 3: {reason}\n" in capsys.readouterr().err


def test_analyze_directory_is_an_error(tmp_path, capsys):
    assert main(["analyze", "--trace", str(tmp_path)]) == 1
    assert "error:" in capsys.readouterr().err


# --- sweep -----------------------------------------------------------------------

def test_sweep_tabulates_values_in_order(tmp_path, capsys):
    config = write_config(tmp_path, duration=5000)
    out = tmp_path / "sweepdir"
    code = main(["sweep", "--config", str(config), "--param", "random_loss",
                 "--values", "0,0.02,0.05", "--out", str(out)])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 4  # header + one row per value
    assert [line.split()[0] for line in lines[1:]] == ["0", "0.02", "0.05"]
    csv_lines = (out / "sweep.csv").read_text().strip().splitlines()
    assert len(csv_lines) == 4
    assert csv_lines[0].startswith("value,")


def test_sweep_utilization_uses_capacity_of_its_window(tmp_path, capsys):
    # 20 Mbps until 6 s, then 40 Mbps; the sweep measures (5 s, 10 s],
    # where the mean capacity is 36 Mbps, not the whole run's 28 Mbps.
    path = tmp_path / "step.json"
    path.write_text(json.dumps({
        "duration_ms": 10_000,
        "link": {
            "bandwidth_schedule_mbps": [[0, 20], [6000, 40]],
            "prop_delay_ms": 25.0,
            "queue_capacity_pkts": 104,
        },
        "flows": [{"controller": "constant", "params": {"rate_mbps": 30}}],
    }))
    assert main(["sweep", "--config", str(path), "--param", "random_loss",
                 "--values", "0"]) == 0
    row = capsys.readouterr().out.strip().splitlines()[1].split()
    agg_mbps, util = float(row[2]), float(row[4])
    assert util == pytest.approx(agg_mbps / 36.0, abs=1e-3)
    assert util == pytest.approx(0.777, abs=2e-3)


def test_sweep_flow_count_replicates_template(tmp_path, capsys):
    config = write_config(tmp_path, duration=5000)
    code = main(["sweep", "--config", str(config), "--param", "flow_count",
                 "--values", "1,3"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3


def test_sweep_flow_count_rejects_fractions(tmp_path, capsys):
    config = write_config(tmp_path, duration=5000)
    assert main(["sweep", "--config", str(config), "--param", "flow_count",
                 "--values", "1.5"]) == 1
    assert "sweep.values" in capsys.readouterr().err
    # Neither reaches int(), which raises OverflowError for one and
    # a message without the field for the other.
    for value in ("inf", "nan"):
        assert main(["sweep", "--config", str(config), "--param", "flow_count",
                     "--values", value]) == 1
        assert capsys.readouterr().err == (
            f"error: sweep.values: flow_count needs positive integers, got {value}\n")


def test_sweep_rejects_unknown_param(tmp_path, capsys):
    config = write_config(tmp_path)
    with pytest.raises(SystemExit) as excinfo:
        main(["sweep", "--config", str(config), "--param", "jitter",
              "--values", "1"])
    assert excinfo.value.code == 2


def test_sweep_rejects_empty_values(tmp_path):
    config = write_config(tmp_path)
    with pytest.raises(SystemExit) as excinfo:
        main(["sweep", "--config", str(config), "--param", "random_loss",
              "--values", ""])
    assert excinfo.value.code == 2


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2


# --- console entry point ------------------------------------------------------------

def _child_env() -> dict:
    """Environment whose Python imports the same iriscc this run does,
    installed or not."""
    import iriscc
    package_root = str(Path(iriscc.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return env


def test_installed_entry_point_runs(tmp_path):
    config = write_config(tmp_path, duration=2000)
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "iriscc.cli", "run", "--config", str(config),
         "--out", str(out)],
        capture_output=True, text=True, env=_child_env(),
    )
    assert proc.returncode == 0
    assert (out / "trace.csv").exists()
    assert read_trace_csv(out / "trace.csv")


def test_runtime_imports_only_the_standard_library():
    # Every top-level module that importing the package and its CLI
    # loads must come from the standard library.
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import iriscc, iriscc.cli\n"
        "loaded = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
        "print(' '.join(sorted(loaded - set(sys.stdlib_module_names) - {'iriscc'})))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_loading_a_scenario_imports_no_dataclasses(tmp_path):
    # Every process that runs a scenario first imports the package and
    # loads one; `dataclasses`, with the `inspect` and `ast` it pulls in,
    # took most of that start-up time.  An isolated interpreter ignores
    # PYTHONPATH, so the child puts the package path on sys.path itself.
    config = write_config(tmp_path)
    code = (
        "import os, sys\n"
        "sys.path[:0] = os.environ['PYTHONPATH'].split(os.pathsep)\n"
        "import iriscc, iriscc.scenario\n"
        "iriscc.scenario.load_scenario(sys.argv[1])\n"
        "print(' '.join(m for m in ('dataclasses', 'inspect', 'ast') if m in sys.modules))\n"
    )
    proc = subprocess.run([sys.executable, "-I", "-c", code, str(config)],
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
