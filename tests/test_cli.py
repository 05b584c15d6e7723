"""Command-line interface: subcommands, exit codes, artifacts on disk."""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ruinfair.cli import main
from ruinfair.experiment import CSV_COLUMNS
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


UNRUNNABLE = [
    (
        {
            "traffic": {"lambda_base": 30},
            "sweeps": {"wst": {"variable": "wst_count", "values": [5, 10, 15, 20]}},
        },
        "600.0",
    ),
    ({"frame": {"r_reserved": 0}}, "frame.r_reserved"),
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
    code = main(
        ["run", "--config", str(config_file), "--sweep", "ghost", "--out", str(tmp_path)]
    )
    assert code == 2
    assert "ghost" in capsys.readouterr().err


def test_run_twice_is_byte_identical(config_file, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(config_file), "--out", str(out_a)]) == 0
    assert main(["run", "--config", str(config_file), "--out", str(out_b)]) == 0
    for name in ("sweep_psi.csv", "sweep_wst.csv", "manifest_psi.json", "manifest_wst.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_run_output_collision_exits_1(config_file, tmp_path, capsys):
    blocker = tmp_path / "blocked"
    blocker.write_text("a file, not a directory")
    code = main(["run", "--config", str(config_file), "--out", str(blocker)])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_steep_path_loss_runs(tmp_path):
    """Every UE's 1/gamma swamps the water-filling budget; the run completes."""
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"radio": {"path_exponent": 20.0}}))
    assert main(["validate", "--config", str(path)]) == 0
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 0


# Pinned output: a frame of 1e301 s, so throughputs overflow to inf and
# their std is nan; the cells are wrong, but not the concern here.
OVERFLOW_ROWS = [
    "psi,0.1,inf,nan,0,0,inf,nan,1.59321551e+305,0,0,0,inf,nan,inf,inf,inf,nan,9e+300,0.1",
    "psi,0.5,inf,nan,0,0,inf,nan,1.59321551e+305,0,0,0,inf,nan,inf,nan,1.59321551e+305,0,5e+300,0.5",
]


@pytest.mark.filterwarnings("ignore:(overflow|invalid value) encountered:RuntimeWarning")
def test_frame_times_rate_overflow_runs(tmp_path):
    """T * mu overflows to inf where collision draws are sized; output unchanged."""
    scenario = {
        "traffic": {"mu": 1e308},
        "frame": {"delta": 1e300},
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
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_validated_scenario_runs(scenario):
    """Whatever ``validate`` accepts, ``run`` completes with exit 0."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_text(json.dumps(scenario))
        if main(["validate", "--config", str(path)]) != 0:
            return
        assert main(["run", "--config", str(path), "--out", str(Path(tmp) / "out")]) == 0
