"""The benchmark's workloads: inputs from a seed, passes of work, output checks.

A pass drives the library only through its public entry points, as a
sequence of steps the runner times one by one:

* ``sweep-default`` and ``sweep-congested``: ``experiment.run_sweep`` on a
  parsed scenario for each of its sweeps, as the CLI runs it, then
  ``emit_csv`` + ``emit_manifest`` for that sweep.  One step is one whole
  sweep, so work the library shares across the values of a sweep shows.
* ``mc-crosscheck``: ``ruin_probability_exact`` and ``ruin_probability_mc``
  on the 225-point (u, c, rate, n) grid, one step per point, then
  ``verify_chance_constraint`` over 11 ruin probabilities at a channel rate
  of 2 collisions per frame.

The seed of a run offsets ``seeds.topology``, ``seeds.traffic`` and the
Monte Carlo master seeds; seed 0 is the library's default seeding, whose
outputs are checked against ``digests.json``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import sys
from pathlib import Path
from typing import Callable, Iterator, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DIGESTS = Path(__file__).resolve().parent / "digests.json"

DEFAULT_TOPOLOGY_SEED = 7
DEFAULT_TRAFFIC_SEED = 20260117
# The CLI default is 200; 20 keeps each whole-sweep step near a second, short
# enough for the runner's host-speed scaling to follow (see run.py), with the
# same per-replication work.
REPLICATIONS = 20

SCHEMES = ("pure_wifi", "equal_sharing", "lte_dominant", "ruin_fair")

# Step kinds a pass yields: a whole sweep, writing a sweep's files, one
# point of the ruin grid, or one chance-constraint audit.
SWEEP = "sweep"
EMIT = "emit"
POINT = "point"
AUDIT = "audit"


def import_ruinfair():
    """Import ``ruinfair`` from this checkout's ``src`` and nowhere else."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import ruinfair
    import ruinfair.config
    import ruinfair.experiment
    import ruinfair.prng

    location = Path(ruinfair.__file__).resolve()
    if SRC.resolve() not in location.parents:
        raise ImportError(f"ruinfair imported from {location}, not from {SRC}")
    return ruinfair


def python_loop() -> int:
    """Reference work for interpreter-bound workloads: integer arithmetic."""
    total = 0
    for i in range(100_000):
        total += i * i
    return total


def numpy_draws() -> float:
    """Reference work for workloads bound by NumPy sampling: exponential draws."""
    import numpy

    rng = numpy.random.default_rng(0)
    return sum(float(rng.exponential(1.0, size=300).sum()) for _ in range(1000))


def splitmix_draws() -> float:
    """Reference work for the pure-Python Monte Carlo kernels: SplitMix64-style
    64-bit integer mixing and one log per draw.

    A frozen copy of the kind of work, not a call into the library, so a
    faster kernel does not also speed up its yardstick.
    """
    mask = (1 << 64) - 1
    state, total = 0, 0.0
    for _ in range(6000):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        z ^= z >> 31
        total -= math.log(((z >> 11) + 1) * 2.0**-53)
    return total


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Checks:
    """Output checks of one run; each check counts as one attempt."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


class SweepWorkload:
    """One scenario's sweeps, each run whole and written as CSV + manifest.

    ``reference`` is fixed work of the kind the scenario's hot layer does,
    timed by the runner to scale for host speed.
    """

    kind = "sweep"

    def __init__(self, scenario: dict, reference: Callable[[], object]):
        self.scenario = scenario
        self.reference = reference

    def prepare(self, seed: int) -> None:
        """Import the library, parse and validate the scenario."""
        rf = import_ruinfair()
        seeds = {
            "topology": DEFAULT_TOPOLOGY_SEED + seed,
            "traffic": DEFAULT_TRAFFIC_SEED + seed,
            "replications": REPLICATIONS,
        }
        self.config = rf.config.parse_scenario(dict(self.scenario, seeds=seeds))

    def work_per_pass(self) -> int:
        """Frames simulated: values x replications x schemes x channels."""
        values = sum(len(sweep.values) for sweep in self.config.sweeps.values())
        return values * REPLICATIONS * len(SCHEMES) * self.config.topology.channels

    def run_pass(self, out_dir: Path, outputs: dict) -> Iterator[str]:
        """Run and write every sweep; yields after each step."""
        experiment = sys.modules["ruinfair.experiment"]
        for name in self.config.sweeps:
            rows = experiment.run_sweep(self.config, name)
            yield SWEEP
            csv_path = experiment.emit_csv(rows, out_dir / f"sweep_{name}.csv")
            experiment.emit_manifest(self.config, name, out_dir / f"manifest_{name}.json")
            outputs[name] = (rows, csv_path.read_bytes())
            yield EMIT

    def digests(self, outputs: dict) -> dict:
        return {name: sha256(csv) for name, (_, csv) in sorted(outputs.items())}

    def check(self, outputs: dict, checks: Checks, recorded: Optional[dict]) -> dict:
        config = self.config
        for sweep_name, (rows, _) in outputs.items():
            t_total = config.frame.total_duration
            policy = config.policy
            values = config.sweeps[sweep_name].values
            checks.expect(
                [row.value for row in rows] == [float(v) for v in values],
                f"{sweep_name}: one row per sweep value, in order",
            )
            for row in rows:
                where = f"{sweep_name}={row.value:g}"
                numbers = [row.alpha_star, row.psi] + [
                    stat[s] for stat in (row.wifi_mean, row.wifi_std, row.lte_mean, row.lte_std)
                    for s in row.wifi_mean
                ]
                checks.expect(all(math.isfinite(x) for x in numbers), f"{where}: finite")
                checks.expect(0.0 <= row.psi <= 1.0, f"{where}: psi in [0, 1]")
                cut = policy.kind.value == "thresholded_linear" and row.psi > policy.psi_cutoff
                expected_alpha = 0.0 if cut else (1.0 - row.psi) * t_total
                checks.expect(
                    math.isclose(row.alpha_star, expected_alpha, rel_tol=1e-12, abs_tol=1e-15),
                    f"{where}: alpha* follows the {policy.kind.value} policy",
                )
                # The schemes share their collision draws, so WiFi throughput
                # cannot rise and LTE-U rate cannot fall as LTE-U airtime
                # grows.  With alpha* <= T/2 this is pure >= fair >= equal.
                airtime = {
                    "pure_wifi": 0.0,
                    "equal_sharing": 0.5 * t_total,
                    "lte_dominant": t_total,
                    "ruin_fair": row.alpha_star,
                }
                by_airtime = sorted(row.wifi_mean, key=lambda s: airtime[s.value])
                wifi = [row.wifi_mean[s] for s in by_airtime]
                lte = [row.lte_mean[s] for s in by_airtime]
                checks.expect(
                    all(a >= b for a, b in zip(wifi, wifi[1:])),
                    f"{where}: WiFi throughput non-increasing in LTE-U airtime",
                )
                checks.expect(
                    all(a <= b for a, b in zip(lte, lte[1:])),
                    f"{where}: LTE-U sum rate non-decreasing in LTE-U airtime",
                )
        if recorded is not None:
            for sweep_name, digest in self.digests(outputs).items():
                checks.expect(
                    recorded.get(sweep_name) == digest,
                    f"{sweep_name}: CSV bytes match the recorded digest",
                )
        return {}


# Acceptance-criterion grids: closed form vs Monte Carlo, and the audit, at
# trial counts that fit several passes into one run.
U_GRID = (0.0, 0.5, 1.0, 2.0, 5.0)
C_GRID = (0.5, 1.0, 2.0)
RATE_GRID = (0.5, 1.0, 2.0)
N_GRID = (1, 2, 5, 10, 20)
RUIN_TRIALS = 2_000
MC_MASTER_SEED = 7

AUDIT_PSIS = tuple(round(0.01 * i, 10) for i in range(11))
AUDIT_LAMBDA_K = 2.0  # default lambda_base 0.2 x 10 stations per AP
AUDIT_MU = 450.0
AUDIT_XI = 0.9
AUDIT_TRIALS = 10_000
AUDIT_SEED = 1337


class CrossCheckWorkload:
    """Closed-form vs Monte Carlo ruin grid plus the chance-constraint audit."""

    kind = "mc"
    reference = staticmethod(splitmix_draws)

    def prepare(self, seed: int) -> None:
        rf = import_ruinfair()
        self.seed = seed
        self.grid = [
            rf.SurplusParams(u, c, rate, n)
            for u, c, rate, n in itertools.product(U_GRID, C_GRID, RATE_GRID, N_GRID)
        ]
        self.frame = rf.FrameConfig(n_short=10, delta=0.001, r_reserved=0)
        self.model = rf.CollisionModel(lambda_k=AUDIT_LAMBDA_K, mu=AUDIT_MU)
        policy = rf.DutyCyclePolicy(kind=rf.PolicyKind.THRESHOLDED_LINEAR)
        self.alphas = [rf.lte_duty_cycle(psi, self.frame, policy) for psi in AUDIT_PSIS]

    def work_per_pass(self) -> int:
        """Monte Carlo paths: ruin trials plus chance-constraint trials."""
        return len(self.grid) * RUIN_TRIALS + len(self.alphas) * AUDIT_TRIALS

    def run_pass(self, out_dir: Path, outputs: dict) -> Iterator[str]:
        """Run every grid point, then the audit; yields after each step."""
        rf = sys.modules["ruinfair"]
        substream_seed = sys.modules["ruinfair.prng"].substream_seed
        master = MC_MASTER_SEED + self.seed
        exact = outputs["exact"] = []
        ruined = outputs["ruin_counts"] = []
        audit = outputs["chance_counts"] = []

        for i, params in enumerate(self.grid):
            exact.append(rf.ruin_probability_exact(params))
            estimate = rf.ruin_probability_mc(params, RUIN_TRIALS, substream_seed(master, i))
            ruined.append(round(estimate.estimate * RUIN_TRIALS))
            yield POINT
        for alpha in self.alphas:
            report = rf.verify_chance_constraint(
                alpha, self.frame, self.model, AUDIT_XI, AUDIT_TRIALS, AUDIT_SEED + self.seed
            )
            audit.append(round(report.empirical_prob * AUDIT_TRIALS))
            yield AUDIT

    def digests(self, outputs: dict) -> dict:
        return {
            name: sha256(json.dumps(outputs[name]).encode())
            for name in ("ruin_counts", "chance_counts")
        }

    def check(self, outputs: dict, checks: Checks, recorded: Optional[dict]) -> dict:
        exact = outputs["exact"]
        ruined = outputs["ruin_counts"]
        audit = outputs["chance_counts"]
        worst_sigma = 0.0
        for params, psi, count in zip(self.grid, exact, ruined):
            where = f"(u={params.initial_capital:g}, c={params.premium:g}, " \
                    f"rate={params.claim_rate:g}, n={params.horizon})"
            checks.expect(0.0 <= psi <= 1.0, f"{where}: exact psi in [0, 1]")
            checks.expect(0 <= count <= RUIN_TRIALS, f"{where}: ruin count in [0, trials]")
            std_error = math.sqrt(psi * (1.0 - psi) / RUIN_TRIALS)
            if std_error > 0.0:
                worst_sigma = max(worst_sigma, abs(count / RUIN_TRIALS - psi) / std_error)
        for psi, count in zip(AUDIT_PSIS, audit):
            checks.expect(0 <= count <= AUDIT_TRIALS, f"audit psi={psi}: count in [0, trials]")
        # Same seed, coupled draws: a smaller LTE-U grant never fails more often.
        checks.expect(
            all(a <= b for a, b in zip(audit, audit[1:])),
            "audit: WiFi-sufficiency count non-decreasing in psi",
        )
        if recorded is not None:
            for name, digest in self.digests(outputs).items():
                checks.expect(
                    recorded.get(name) == digest, f"{name}: match the recorded digest"
                )
        return {"worst_sigma": worst_sigma}


# The CLI's default scenario, bound by water-filling (a Python bisection loop);
# then a congested one: lambda_k = 100..500 collisions per channel, psi 0.61
# above the 0.4 cutoff (ruin-fair gets no airtime), bound by collision
# sampling (NumPy exponential draws).
CONGESTED_SCENARIO = {
    "policy": {"kind": "thresholded_linear"},
    "sweeps": {"lambda": {"variable": "lambda_base", "values": [10, 20, 30, 40, 50]}},
}

WORKLOADS: dict[str, Callable[[], object]] = {
    "sweep-default": lambda: SweepWorkload({}, python_loop),
    "sweep-congested": lambda: SweepWorkload(CONGESTED_SCENARIO, numpy_draws),
    "mc-crosscheck": CrossCheckWorkload,
}


def recorded_digests(workload: str, seed: int) -> Optional[dict]:
    """Digests recorded for the workload, or None away from the default seed."""
    if seed != 0:
        return None
    return json.loads(DIGESTS.read_text(encoding="utf-8"))[workload]
