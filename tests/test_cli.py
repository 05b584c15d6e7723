"""Command-line interface: subcommands, exit codes, artifacts on disk."""

import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ruinfair import cli
from ruinfair.cli import main
from ruinfair.experiment import CSV_COLUMNS, run_sweep
from ruinfair.prng import _POISSON_LAM_MAX

SMALL_SCENARIO = {
    "topology": {"ue_count": 4},
    "seeds": {"replications": 10},
    "sweeps": {
        "wst": {"variable": "wst_count", "values": [5, 10]},
        "psi": {"variable": "psi", "values": [0.0, 0.5, 1.0]},
    },
}


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(SMALL_SCENARIO))
    return path


def test_validate_ok(config_file, capsys):
    assert main(["validate", "--config", str(config_file)]) == 0
    out = capsys.readouterr().out
    assert "OK" in out and "psi" in out and "wst" in out


def test_validate_prints_work_size(config_file, capsys):
    assert main(["validate", "--config", str(config_file)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "psi: 3 values x 10 replications x 4 schemes x 3 channels = 360 frames" in lines[1]
    assert "wst: 2 values x 10 replications x 4 schemes x 3 channels = 240 frames" in lines[2]


# Finite WiFi cells, but the std of the LTE-U cells (about 4e200) overflows.
LTE_OVERFLOW = {
    "frame": {"delta": 1e199},
    "radio": {"wifi_phy_rate": 1e-300, "bandwidth": 1e-200},
    "sweeps": {"p": {"variable": "psi", "values": [0.5]}},
}

# A frame of 10**12 slots, one ruin-probability term each.
TOO_LONG_HORIZON = {"frame": {"n_short": 10**12, "delta": 1e-15}}

UNRUNNABLE = [
    (
        {
            "traffic": {"lambda_base": 30},
            "sweeps": {"wst": {"variable": "wst_count", "values": [5, 10, 15, 20]}},
        },
        "600.0",
    ),
    ({"frame": {"r_reserved": 0}}, "frame.r_reserved"),
    ({"radio": {"tx_power": 1e308}}, "radio.tx_power"),
    # Runs used to exit 1 ("int too large to convert to float"), or write
    # inf and nan cells.
    (
        {"frame": {"n_short": 10**399}, "sweeps": {"p": {"variable": "psi", "values": [0.5]}}},
        "frame.n_short",
    ),
    ({"frame": {"delta": 1e300}}, "bandwidth x T"),
    ({"radio": {"wifi_phy_rate": 1e308}, "frame": {"delta": 1.0}}, "wifi_throughput"),
    (LTE_OVERFLOW, "lte_sum_rate"),
    # The wst sweep's ruin probability would sum 10**12 terms (days).
    (TOO_LONG_HORIZON, "frame.n_short"),
]


@pytest.mark.parametrize("scenario,needle", UNRUNNABLE)
def test_unrunnable_config_exits_2_everywhere(tmp_path, capsys, scenario, needle):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    out = tmp_path / "out"
    assert main(["validate", "--config", str(path)]) == 2
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("config error") == 2 and needle in err
    assert not out.exists()


def test_validate_rejects_bad_config(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"traffic": {"mu": -5}}')
    assert main(["validate", "--config", str(path)]) == 2
    assert "traffic.mu" in capsys.readouterr().err


def test_validate_missing_file_exits_2(tmp_path, capsys):
    assert main(["validate", "--config", str(tmp_path / "absent.json")]) == 2
    assert "config error" in capsys.readouterr().err


def test_run_single_sweep_writes_artifacts(config_file, tmp_path):
    out = tmp_path / "out"
    assert main(["run", "--config", str(config_file), "--sweep", "psi", "--out", str(out)]) == 0
    assert (out / "sweep_psi.csv").is_file()
    assert (out / "manifest_psi.json").is_file()
    assert not (out / "sweep_wst.csv").exists()


def test_run_all_sweeps_by_default(config_file, tmp_path):
    out = tmp_path / "all"
    assert main(["run", "--config", str(config_file), "--out", str(out)]) == 0
    for name in ("psi", "wst"):
        assert (out / f"sweep_{name}.csv").is_file()
        assert (out / f"manifest_{name}.json").is_file()


def test_run_unknown_sweep_exits_2(config_file, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["run", "--config", str(config_file), "--sweep", "ghost", "--out", str(out)])
    assert code == 2
    assert "ghost" in capsys.readouterr().err
    assert not out.exists()


def test_run_twice_is_byte_identical(config_file, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(config_file), "--out", str(out_a)]) == 0
    assert main(["run", "--config", str(config_file), "--out", str(out_b)]) == 0
    for name in ("sweep_psi.csv", "sweep_wst.csv", "manifest_psi.json", "manifest_wst.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_run_output_collision_exits_2_before_any_sweep(
    config_file, tmp_path, monkeypatch, capsys
):
    """A directory where an output file goes is refused before any sweep
    runs, and nothing is written."""
    out = tmp_path / "out"
    (out / "sweep_psi.csv").mkdir(parents=True)
    calls = []
    monkeypatch.setattr(cli, "run_sweep", lambda config, name: calls.append(name))
    code = main(["run", "--config", str(config_file), "--sweep", "psi", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "config error: --out" in err and f"{out / 'sweep_psi.csv'} is a directory" in err
    assert calls == []
    assert sorted(path.name for path in out.iterdir()) == ["sweep_psi.csv"]
    assert not any((out / "sweep_psi.csv").iterdir())


def test_run_output_collision_in_a_later_sweep_exits_2(
    config_file, tmp_path, monkeypatch, capsys
):
    """Without --sweep, a directory at the last sweep's manifest is refused
    before the first sweep runs: no earlier sweep's files are left behind."""
    out = tmp_path / "out"
    (out / "manifest_psi.json").mkdir(parents=True)
    calls = []
    monkeypatch.setattr(cli, "run_sweep", lambda config, name: calls.append(name))
    assert main(["run", "--config", str(config_file), "--out", str(out)]) == 2
    assert f"{out / 'manifest_psi.json'} is a directory" in capsys.readouterr().err
    assert calls == []
    assert sorted(path.name for path in out.iterdir()) == ["manifest_psi.json"]


def test_run_output_symlink_to_a_directory_is_replaced(config_file, tmp_path):
    """A symlink at an output path is replaced by the file, as a rename
    does, and the directory it points to is left alone."""
    out, elsewhere = tmp_path / "out", tmp_path / "elsewhere"
    out.mkdir()
    elsewhere.mkdir()
    (out / "sweep_psi.csv").symlink_to(elsewhere, target_is_directory=True)
    assert main(["run", "--config", str(config_file), "--sweep", "psi", "--out", str(out)]) == 0
    assert (out / "sweep_psi.csv").is_file() and not (out / "sweep_psi.csv").is_symlink()
    assert list(elsewhere.iterdir()) == []


@pytest.mark.parametrize("below", ["", "sub"], ids=["file", "under-file"])
def test_run_out_not_a_directory_exits_2_before_any_sweep(
    config_file, tmp_path, monkeypatch, capsys, below
):
    """An --out that is a file, or lies under one, is refused before any
    sweep runs, and nothing is written."""
    blocker = tmp_path / "blocked"
    blocker.write_text("a file, not a directory")
    calls = []
    monkeypatch.setattr(cli, "run_sweep", lambda config, name: calls.append(name))
    out = blocker / below if below else blocker
    assert main(["run", "--config", str(config_file), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error: --out" in err and "is not a directory" in err
    assert calls == []
    assert blocker.read_text() == "a file, not a directory"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["blocked", "scenario.json"]


def test_failed_sweep_leaves_no_output(config_file, tmp_path, monkeypatch, capsys):
    """Every sweep runs before the output directory is made."""
    calls = []

    def second_fails(config, name):
        calls.append(name)
        if len(calls) == 2:
            raise RuntimeError("sweep failed")
        return run_sweep(config, name)

    monkeypatch.setattr(cli, "run_sweep", second_fails)
    out = tmp_path / "out"
    assert main(["run", "--config", str(config_file), "--out", str(out)]) == 1
    assert "sweep failed" in capsys.readouterr().err
    assert len(calls) == 2 and not out.exists()


def test_steep_path_loss_runs(tmp_path):
    """Every UE's 1/gamma swamps the water-filling budget; the run completes."""
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"radio": {"path_exponent": 20.0}}))
    assert main(["validate", "--config", str(path)]) == 0
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 0


# Pinned output: durations of about 1e-308 s barely dent a 10 s frame.
OVERFLOW_ROWS = [
    "psi,0.1,1.62e+09,0,0,0,810000000,0,3897.05757,9.11777001e-13,0,0,8106.03137,9.11777001e-13,162000000,0,7252.75722,0,9,0.1",
    "psi,0.5,1.62e+09,0,0,0,810000000,0,3897.05757,9.11777001e-13,0,0,8106.03137,9.11777001e-13,810000000,0,3897.05757,9.11777001e-13,5,0.5",
]


def test_frame_times_rate_overflow_runs(tmp_path):
    """T * mu overflows to inf where collision draws are sized; output unchanged."""
    scenario = {
        "traffic": {"mu": 1e308},
        "frame": {"delta": 1.0},
        "sweeps": {"p": {"variable": "psi", "values": [0.1, 0.5]}},
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    out = tmp_path / "out"
    assert main(["validate", "--config", str(path)]) == 0
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    expected = "\n".join([",".join(CSV_COLUMNS), *OVERFLOW_ROWS]) + "\n"
    assert (out / "sweep_p.csv").read_bytes() == expected.encode()


def test_manifest_replay_matches_cli_output(config_file, tmp_path):
    out = tmp_path / "first"
    assert main(["run", "--config", str(config_file), "--sweep", "wst", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest_wst.json").read_text())

    replay_config = tmp_path / "replay.json"
    replay_config.write_text(json.dumps(manifest["scenario"]))
    replay_out = tmp_path / "second"
    assert main(["run", "--config", str(replay_config), "--sweep", "wst", "--out", str(replay_out)]) == 0
    assert (out / "sweep_wst.csv").read_bytes() == (replay_out / "sweep_wst.csv").read_bytes()


@st.composite
def _scenarios(draw):
    """Scenarios of one replication, many with ``lambda_base x wst`` at the cap.

    A rate is drawn as ``cap / wst`` for one of the station counts in play,
    scaled either a hair below, at or above 1, so that the cross-field
    check is exercised on both sides of its edge, or by a factor up to 1.
    """
    wst = draw(st.integers(1, 60))
    wst_values = sorted(draw(st.sets(st.integers(1, 60), min_size=1, max_size=3)))

    def rate(stations):
        scale = st.one_of(
            st.sampled_from([1.0 - 1e-12, 1.0, 1.0 + 1e-12]), st.floats(1e-6, 1.0)
        )
        return scale.map(lambda k: _POISSON_LAM_MAX / stations * k)

    stations = draw(st.sampled_from([wst, wst_values[-1], max(wst, wst_values[-1])]))
    lambda_base = draw(rate(stations))
    lambda_values = sorted(draw(st.sets(rate(wst), min_size=1, max_size=3)))
    psi_values = sorted(draw(st.sets(st.floats(0.0, 1.0), min_size=1, max_size=3)))
    sweeps = {
        "wst": {"variable": "wst_count", "values": wst_values},
        "lam": {"variable": "lambda_base", "values": lambda_values},
        "psi": {"variable": "psi", "values": psi_values},
    }
    chosen = draw(st.sets(st.sampled_from(sorted(sweeps)), min_size=1))
    n_short = draw(st.integers(1, 20))
    return {
        "frame": {
            "n_short": n_short,
            "delta": draw(st.floats(1e-4, 1e-2)),
            "r_reserved": draw(st.integers(0, n_short)),
        },
        "topology": {
            "wap_count": draw(st.integers(1, 3)),
            "wst_per_wap": wst,
            "ue_count": draw(st.integers(1, 4)),
        },
        "traffic": {"lambda_base": lambda_base, "mu": draw(st.floats(1.0, 2000.0))},
        "policy": {
            "kind": draw(st.sampled_from(["linear", "thresholded_linear"])),
            "psi_cutoff": draw(st.floats(0.0, 1.0)),
        },
        "seeds": {
            "topology": draw(st.integers(-(2**63), 2**64)),
            "traffic": draw(st.integers(-(2**63), 2**64)),
            "replications": 1,
        },
        "sweeps": {name: sweeps[name] for name in chosen},
    }


@given(_scenarios())
# Found by Hypothesis: alpha* is so small next to the one UE's 1/gamma that
# water-filling used to lose the budget to cancellation (exit 1).
@example(
    {
        "frame": {"n_short": 13, "delta": 0.0018259299482822143, "r_reserved": 5},
        "topology": {"wap_count": 1, "wst_per_wap": 1, "ue_count": 1},
        "traffic": {"lambda_base": 499.9999999995, "mu": 3.638351253904456},
        "policy": {"kind": "linear", "psi_cutoff": 0.0},
        "seeds": {"topology": 0, "traffic": 0, "replications": 1},
        "sweeps": {"wst": {"variable": "wst_count", "values": [1]}},
    }
)
# mu' * c_j overflows in the exact ruin probability (used to exit 1 with
# "ruin probability sum nan").
@example({"traffic": {"mu": 1e308}, "frame": {"delta": 1e10}})
# mu' * c_j underflows to 0 there (used to exit 1 with "math domain error").
@example({"traffic": {"mu": 5e-324}})
@example({"frame": {"delta": 1e-310}, "traffic": {"mu": 1e-300}})
# T or the cells overflow (used to exit 1, or to write inf and nan cells).
@example({"frame": {"n_short": 10**399}, "sweeps": {"p": {"variable": "psi", "values": [0.5]}}})
@example({"frame": {"delta": 1e300}})
@example({"radio": {"wifi_phy_rate": 1e308}, "frame": {"delta": 1.0}})
@example(LTE_OVERFLOW)
# The horizon outruns any run (validate used to accept it).
@example(TOO_LONG_HORIZON)
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_validated_scenario_runs(scenario):
    """Whatever ``validate`` accepts, ``run`` completes with exit 0 and
    writes only finite numbers."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_text(json.dumps(scenario))
        if main(["validate", "--config", str(path)]) != 0:
            return
        out = Path(tmp) / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        for csv_path in out.glob("sweep_*.csv"):
            for line in csv_path.read_text().splitlines()[1:]:
                # The first cell is the sweep variable's name.
                assert all(math.isfinite(float(cell)) for cell in line.split(",")[1:])
