"""Sweep runner and emitters: aggregation, determinism, reproducibility."""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from oracles import sweep_rows_per_frame

from ruinfair import ConfigError, PolicyKind, Scheme, _kernels, experiment, sim
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

# Two WAPs, one channel each, ruin-fair cut off (psi above the threshold):
# collisions fill the WiFi window on every channel from lambda_base 10 on.
CONGESTED = {
    "topology": {"wap_count": 2, "ue_count": 5},
    "policy": {"kind": "thresholded_linear"},
    "seeds": {"replications": 10},
    "sweeps": {"lam": {"variable": "lambda_base", "values": [0.1, 10, 49.9]}},
}

ELEVEN_PSI = {"psi": {"variable": "psi", "values": [i / 10 for i in range(11)]}}

TWO_HUNDRED_WST = {"wst": {"variable": "wst_count", "values": list(range(1, 201))}}

# Three replications on four channels, eleven psi values: eleven distinct
# LTE-U airtimes (0, T/2 and T come back among the ruin-fair ones).
WIDE_PSI = {
    "topology": {"wap_count": 4, "ue_count": 5},
    "seeds": {"replications": 3},
    "sweeps": ELEVEN_PSI,
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
        for std in (row.wifi_std, row.lte_std):
            assert all(s == 0.0 and math.copysign(1.0, s) == 1.0 for s in std.values())


class TestWorkReuse:
    """The runner computes each quantity once per level, with the same bits."""

    @pytest.mark.parametrize(
        "scenario, name",
        [(SMALL, "wst"), (SMALL, "psi"), (SMALL, "lam"), (CONGESTED, "lam"), (WIDE_PSI, "psi")],
        ids=["wst", "psi", "lam", "congested-lam", "wide-psi"],
    )
    def test_rows_equal_per_frame_oracle(self, monkeypatch, scenario, name):
        """Also with chunks of a few cells, which split the collision draws
        across rows and the accounting into batches of airtimes and blocks
        of rows or columns.  With 25 replications on 3 channels (``SMALL``),
        160 draws two of the 75-cell collision keys in one run and accounts
        them in batches of 6 (key, airtime) pairs, 50 takes 2 airtimes a
        batch in blocks of 8 rows, 7 one airtime in blocks of 2 rows, and 2
        one airtime with each row in blocks of 2 and 1 columns.
        ``WIDE_PSI`` has more airtimes than a batch holds at 12, 7 and 2: 12
        takes 4 airtimes a batch with each row in blocks of 3 and 1
        columns."""
        config = parse_scenario(scenario)
        expected = sweep_rows_per_frame(config, name)
        for chunk in (_kernels._CHUNK, 160, 50, 12, 7, 2):
            monkeypatch.setattr(_kernels, "_CHUNK", chunk)
            assert run_sweep(config, name) == expected

    def test_per_level_call_counts(self, monkeypatch):
        calls = {
            "water_fill_batch": 0,
            "collision_totals": 0,
            "link_budget": 0,
            "generate_topology": 0,
            "compound_poisson_totals": 0,
        }
        water_filled = []

        def count(module, name):
            real = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                if name == "water_fill_batch":
                    water_filled.extend(args[0].tolist())
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        for name in ("water_fill_batch", "collision_totals", "link_budget", "generate_topology"):
            count(sim, name)
        count(_kernels, "compound_poisson_totals")
        # run_sweep calls these through its own import of the names.
        for name in ("link_budget", "collision_totals", "generate_topology"):
            monkeypatch.setattr(experiment, name, getattr(sim, name))

        ues = SMALL["topology"]["ue_count"]
        for chunk in (_kernels._CHUNK, 4, 12):
            monkeypatch.setattr(_kernels, "_CHUNK", chunk)
            for sweep_name in ("wst", "psi", "lam"):
                values = len(SMALL["sweeps"][sweep_name]["values"])
                for reps, waps in ((1, 3), (6, 3), (6, 1)):
                    topology = dict(SMALL["topology"], wap_count=waps)
                    config = parse_scenario(
                        dict(SMALL, topology=topology, seeds={"replications": reps})
                    )
                    for name in calls:
                        calls[name] = 0
                    water_filled.clear()
                    rows = run_sweep(config, sweep_name)
                    t_total = config.frame.total_duration
                    airtimes = {0.5 * t_total, t_total} | {row.alpha_star for row in rows}
                    # Topology and link budget once per sweep; collisions once
                    # per group of max(1, _CHUNK // cells) keys (collision
                    # rates), one kernel call per block of max(1, _CHUNK //
                    # size) streams, each drawn at every rate of the group;
                    # every positive LTE-U airtime water-filled once, serving
                    # every channel and value, in one call per block of
                    # _CHUNK // ue_count airtimes.
                    keys = 1 if sweep_name == "psi" else values
                    cells = reps * waps
                    group = max(1, chunk // cells)
                    groups = [min(group, keys - start) for start in range(0, keys, group)]
                    positive = len(airtimes - {0.0})
                    assert calls == {
                        "water_fill_batch": math.ceil(positive / max(1, chunk // ues)),
                        "collision_totals": math.ceil(keys / group),
                        "link_budget": 1,
                        "generate_topology": 1,
                        "compound_poisson_totals": sum(
                            math.ceil(cells / max(1, chunk // size)) for size in groups
                        ),
                    }, (chunk, sweep_name, reps, waps)
                    assert len(water_filled) == positive
                    assert set(water_filled) == airtimes - {0.0}

    def test_sweep_values_build_no_config_sections(self, monkeypatch, small_config):
        """A wst_count or lambda_base value reaches the collision draw as
        plain numbers: no ``TopologyConfig`` or ``TrafficConfig`` is built
        (and validated again) per value."""
        built = []
        for cls in (sim.TopologyConfig, sim.TrafficConfig):
            check = cls.__post_init__

            def counted(self, check=check):
                built.append(type(self).__name__)
                check(self)

            monkeypatch.setattr(cls, "__post_init__", counted)
        for name in ("wst", "lam"):
            run_sweep(small_config, name)
        assert built == []

    @pytest.mark.parametrize("chunk", [_kernels._CHUNK, 4])
    @pytest.mark.parametrize("reps, channels", [(1, 1), (1, 12), (20, 3), (7, 10)])
    def test_lte_accounting_sums_each_rate_once(self, monkeypatch, chunk, reps, channels):
        """The LTE-U rate is the same on every channel and in every
        replication, so its accounting builds at most ``count x (channels +
        reps)`` cells, not ``count x reps x channels``, and its stats are
        those of the whole grid bit for bit."""
        monkeypatch.setattr(_kernels, "_CHUNK", chunk)
        rates = np.array([0.0, 0.1, 1 / 3, 2.2e7 + 0.7, 9.9e6 / 7])

        def grid(batch, rows, cols):
            shape = (batch.stop - batch.start, rows.stop - rows.start, cols.stop - cols.start)
            return np.full(shape, rates[batch, None, None])

        expected = experiment._stats(grid, len(rates), reps, channels)
        built = []
        stats = experiment._stats

        def counted(cells, count, reps, channels):
            def counted_cells(*block):
                work = cells(*block)
                built.append(work.size)
                return work

            return stats(counted_cells, count, reps, channels)

        monkeypatch.setattr(experiment, "_stats", counted)
        assert experiment._lte_stats(rates, channels, reps) == expected
        assert sum(built) <= len(rates) * (channels + reps)

    @pytest.mark.parametrize(
        "reps, waps, scenario",
        [
            (20_000, 10, {"sweeps": ELEVEN_PSI}),
            (1, 200_000, {"sweeps": ELEVEN_PSI}),
            # Few collisions, so that 200 keys draw quickly.
            (250, 4, {"traffic": {"lambda_base": 0.01}, "sweeps": TWO_HUNDRED_WST}),
        ],
        ids=["tall", "wide", "grouped"],
    )
    def test_peak_memory_is_totals_plus_work_blocks(self, monkeypatch, reps, waps, scenario):
        """The sweep holds the collision totals of one key, or of a group
        of keys of at most ``_CHUNK`` cells, a few replication-length rows
        (one batch's WiFi totals and ``np.std``'s temporaries) and a few
        work arrays of ``_CHUNK`` cells: never a row per airtime of
        ``reps`` above ``_CHUNK``, nor a copy of a row of more than
        ``_CHUNK`` channels, nor the totals of every key of a sweep (200
        keys of 1,000 cells here).  The kernel's blocks are made as small,
        so that the draw's own work arrays do not hide the accounting's."""
        chunk = 4096
        monkeypatch.setattr(_kernels, "_CHUNK", chunk)
        monkeypatch.setattr(_kernels, "_BLOCK", chunk)
        config = parse_scenario(
            {
                "topology": {"wap_count": waps, "ue_count": 5},
                "seeds": {"replications": reps},
                **scenario,
            }
        )
        (name,) = scenario["sweeps"]
        tracemalloc.start()
        try:
            run_sweep(config, name)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        cells = reps * waps
        held = cells * max(1, chunk // cells)
        assert peak <= 8 * (held + 3 * reps + 32 * chunk)

    def test_peak_memory_water_fills_one_airtime_at_a_time(self, monkeypatch):
        """With more UEs than ``_CHUNK``, a psi sweep water-fills its 101
        airtimes one to a call: it holds the UE positions (a tuple of
        ``(x, y)`` pairs, 14 words a UE) and a few UE-length rows, never a
        row per airtime (about 500 words a UE here)."""
        ues = 4096
        monkeypatch.setattr(_kernels, "_CHUNK", 64)
        monkeypatch.setattr(_kernels, "_BLOCK", 64)
        config = parse_scenario(
            {
                "topology": {"wap_count": 1, "ue_count": ues},
                "seeds": {"replications": 2},
                "sweeps": {"psi": {"variable": "psi", "values": [i / 100 for i in range(101)]}},
            }
        )
        tracemalloc.start()
        try:
            run_sweep(config, "psi")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * (14 + 12) * ues

    def test_sweep_leaves_numpy_ma_unimported(self):
        """np.unique imports numpy.ma on NumPy 2.x, about 1 MB of peak RSS
        for every sweep; the runner finds its distinct inputs without it.
        (NumPy 1.x imports numpy.ma with numpy itself.)"""
        code = (
            "import sys\n"
            "from ruinfair.config import parse_scenario\n"
            "from ruinfair.experiment import run_sweep\n"
            "print('numpy.ma' in sys.modules)\n"
            "config = parse_scenario({})\n"
            "for name in config.sweeps:\n"
            "    run_sweep(config, name)\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        src = str(Path(experiment.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        before, after = done.stdout.split()
        assert after == before


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
