"""Sweep runner and emitters: aggregation, determinism, reproducibility."""

import pytest
from oracles import sweep_rows_per_frame

from ruinfair import ConfigError, PolicyKind, Scheme, experiment, sim
from ruinfair.config import parse_scenario
from ruinfair.experiment import CSV_COLUMNS, emit_csv, emit_manifest, run_sweep

SMALL = {
    "topology": {"ue_count": 5},
    "seeds": {"replications": 25},
    "sweeps": {
        "wst": {"variable": "wst_count", "values": [5, 10, 15, 20]},
        "psi": {"variable": "psi", "values": [0.0, 0.25, 0.5, 0.75, 1.0]},
        "lam": {"variable": "lambda_base", "values": [0.1, 0.2, 0.4]},
    },
}

# Two WAPs on four channels, ruin-fair cut off (psi above the threshold):
# collisions fill the WiFi window on every channel from lambda_base 10 on.
CONGESTED = {
    "topology": {"wap_count": 2, "channel_count": 4, "ue_count": 5},
    "policy": {"kind": "thresholded_linear"},
    "seeds": {"replications": 10},
    "sweeps": {"lam": {"variable": "lambda_base", "values": [0.1, 10, 49.9]}},
}


@pytest.fixture(scope="module")
def small_config():
    return parse_scenario(SMALL)


@pytest.fixture(scope="module")
def psi_rows(small_config):
    return run_sweep(small_config, "psi")


@pytest.fixture(scope="module")
def wst_rows(small_config):
    return run_sweep(small_config, "wst")


class TestRunSweep:
    def test_psi_sweep_alpha_is_linear_passthrough(self, small_config, psi_rows):
        t_total = small_config.frame.total_duration
        for row in psi_rows:
            assert row.alpha_star == (1.0 - row.value) * t_total
            assert row.psi == row.value

    def test_psi_sweep_alpha_hits_zero_at_certain_ruin(self, psi_rows):
        assert psi_rows[-1].value == 1.0
        assert psi_rows[-1].alpha_star == 0.0

    def test_alpha_nonincreasing_in_psi(self, psi_rows):
        alphas = [row.alpha_star for row in psi_rows]
        assert all(a >= b for a, b in zip(alphas, alphas[1:]))

    def test_wst_sweep_ruin_fair_lte_rate_nonincreasing(self, wst_rows):
        rates = [row.lte_mean[Scheme.RUIN_FAIR] for row in wst_rows]
        assert all(a >= b for a, b in zip(rates, rates[1:]))

    def test_wifi_ordering_at_every_point(self, wst_rows):
        for row in wst_rows:
            assert (
                row.wifi_mean[Scheme.PURE_WIFI]
                >= row.wifi_mean[Scheme.RUIN_FAIR]
                >= row.wifi_mean[Scheme.EQUAL_SHARING]
            )
            assert row.wifi_mean[Scheme.LTE_DOMINANT] == 0.0

    def test_lambda_sweep_runs(self, small_config):
        rows = run_sweep(small_config, "lam")
        assert [row.value for row in rows] == [0.1, 0.2, 0.4]

    def test_deterministic_rows(self, small_config, wst_rows):
        again = run_sweep(small_config, "wst")
        assert again == wst_rows

    def test_stds_nonnegative(self, wst_rows):
        for row in wst_rows:
            assert all(s >= 0.0 for s in row.wifi_std.values())
            assert all(s >= 0.0 for s in row.lte_std.values())

    def test_unknown_sweep_is_config_error(self, small_config):
        with pytest.raises(ConfigError, match="sweeps.nope"):
            run_sweep(small_config, "nope")

    def test_thresholded_policy_zeroes_alpha_above_cutoff(self):
        config = parse_scenario(
            {
                "topology": {"ue_count": 4},
                "policy": {"kind": "thresholded_linear", "psi_cutoff": 0.4},
                "seeds": {"replications": 5},
                "sweeps": {"psi": {"variable": "psi", "values": [0.0, 0.2, 0.4, 0.6, 0.8]}},
            }
        )
        t_total = config.frame.total_duration
        for row in run_sweep(config, "psi"):
            expected = 0.0 if row.value > 0.4 else (1.0 - row.value) * t_total
            assert row.alpha_star == expected
            assert config.policy.kind is PolicyKind.THRESHOLDED_LINEAR

    def test_single_replication_has_zero_std(self):
        config = parse_scenario(
            {
                "topology": {"ue_count": 4},
                "seeds": {"replications": 1},
                "sweeps": {"psi": {"variable": "psi", "values": [0.5]}},
            }
        )
        row = run_sweep(config, "psi")[0]
        assert all(s == 0.0 for s in row.wifi_std.values())


class TestWorkReuse:
    """The runner computes each quantity once per level, with the same bits."""

    @pytest.mark.parametrize(
        "scenario, name",
        [(SMALL, "wst"), (SMALL, "psi"), (SMALL, "lam"), (CONGESTED, "lam")],
        ids=["wst", "psi", "lam", "congested-lam"],
    )
    def test_rows_equal_per_frame_oracle(self, scenario, name):
        config = parse_scenario(scenario)
        assert run_sweep(config, name) == sweep_rows_per_frame(config, name)

    def test_per_level_call_counts(self, monkeypatch):
        calls = {
            "water_fill": 0,
            "sample_collisions": 0,
            "collision_totals": 0,
            "link_budget": 0,
        }

        def counting(name):
            real = getattr(sim, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(sim, name, counting(name))
        # run_sweep calls these through its own import of the names.
        monkeypatch.setattr(experiment, "link_budget", sim.link_budget)
        monkeypatch.setattr(experiment, "collision_totals", sim.collision_totals)

        counts = {}
        for reps, waps in ((1, 3), (6, 3), (6, 1)):
            topology = dict(SMALL["topology"], wap_count=waps)
            config = parse_scenario(
                dict(SMALL, topology=topology, seeds={"replications": reps})
            )
            for name in calls:
                calls[name] = 0
            run_sweep(config, "wst")
            counts[reps, waps] = dict(calls)

        values = len(SMALL["sweeps"]["wst"]["values"])
        assert counts[1, 3]["water_fill"] == counts[6, 3]["water_fill"] > 0
        # One water-filling serves every channel.
        assert counts[6, 1]["water_fill"] == counts[6, 3]["water_fill"]
        assert counts[6, 3]["link_budget"] == values
        # All replications' collisions are drawn in one call per value.
        assert counts[1, 3]["collision_totals"] == counts[6, 3]["collision_totals"] == values
        assert counts[6, 3]["sample_collisions"] == 0


class _FailingHalfway:
    """File handle stand-in: writes half the text, then fails."""

    def __init__(self, handle):
        self.handle = handle

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.handle.close()

    def write(self, text):
        self.handle.write(text[: len(text) // 2])
        self.handle.flush()
        raise OSError("disk full")


@pytest.fixture()
def failing_open(monkeypatch):
    def fake_open(*args, **kwargs):
        return _FailingHalfway(open(*args, **kwargs))

    monkeypatch.setattr(experiment, "open", fake_open, raising=False)


class TestAtomicWrites:
    def test_failed_csv_write_leaves_nothing(self, tmp_path, psi_rows, failing_open):
        with pytest.raises(OSError, match="disk full"):
            emit_csv(psi_rows, tmp_path / "out.csv")
        assert list(tmp_path.iterdir()) == []

    def test_failed_csv_write_keeps_previous_file(self, tmp_path, psi_rows, failing_open):
        path = tmp_path / "out.csv"
        path.write_bytes(b"previous run\n")
        with pytest.raises(OSError, match="disk full"):
            emit_csv(psi_rows, path)
        assert path.read_bytes() == b"previous run\n"
        assert list(tmp_path.iterdir()) == [path]

    def test_failed_manifest_write_leaves_nothing(self, tmp_path, small_config, failing_open):
        with pytest.raises(OSError, match="disk full"):
            emit_manifest(small_config, "psi", tmp_path / "m.json")
        assert list(tmp_path.iterdir()) == []

    def test_failed_rename_leaves_nothing(self, tmp_path, psi_rows, monkeypatch):
        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(experiment.os, "replace", refuse)
        with pytest.raises(OSError, match="rename refused"):
            emit_csv(psi_rows, tmp_path / "out.csv")
        assert list(tmp_path.iterdir()) == []


class TestEmitCsv:
    def test_header_plus_one_line_per_row(self, tmp_path, psi_rows):
        path = emit_csv(psi_rows[:3], tmp_path / "out.csv")
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 4
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert all(len(line.split(",")) == len(CSV_COLUMNS) for line in lines)

    def test_rerun_is_byte_identical(self, tmp_path, wst_rows):
        a = emit_csv(wst_rows, tmp_path / "a.csv").read_bytes()
        b = emit_csv(wst_rows, tmp_path / "b.csv").read_bytes()
        assert a == b

    def test_empty_rows_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_csv([], tmp_path / "never.csv")

    def test_unix_newlines_only(self, tmp_path, psi_rows):
        raw = emit_csv(psi_rows, tmp_path / "n.csv").read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")

    def test_nine_significant_digits(self, tmp_path, psi_rows):
        path = emit_csv(psi_rows, tmp_path / "p.csv")
        cell = path.read_text().splitlines()[1].split(",")[2]
        assert len(cell.replace(".", "").replace("-", "").lstrip("0")) <= 9


class TestEmitManifest:
    def test_manifest_contains_seeds_and_defaults(self, tmp_path, small_config):
        import json

        path = emit_manifest(small_config, "wst", tmp_path / "m.json")
        manifest = json.loads(path.read_text(encoding="utf-8"))
        assert manifest["scenario"]["seeds"] == {
            "topology": 7,
            "traffic": 20260117,
            "replications": 25,
        }
        assert manifest["scenario"]["frame"]["n_short"] == 10  # default expanded
        assert manifest["sweep"] == "wst"
        assert manifest["versions"]["ruinfair"]

    def test_manifest_roundtrip_reproduces_csv(self, tmp_path, small_config, wst_rows):
        import json

        manifest_path = emit_manifest(small_config, "wst", tmp_path / "m.json")
        original = emit_csv(wst_rows, tmp_path / "orig.csv").read_bytes()

        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        replayed_config = parse_scenario(manifest["scenario"])
        replayed_rows = run_sweep(replayed_config, manifest["sweep"])
        replayed = emit_csv(replayed_rows, tmp_path / "replay.csv").read_bytes()
        assert replayed == original

    def test_manifest_rerun_is_byte_identical(self, tmp_path, small_config):
        a = emit_manifest(small_config, "psi", tmp_path / "a.json").read_bytes()
        b = emit_manifest(small_config, "psi", tmp_path / "b.json").read_bytes()
        assert a == b
