"""Workload ``kernels``: an inline ``grid_sweep`` of fast-engine kernels.

Inputs, built once in set-up from the seed: a mean-degree-10
Erdős–Rényi graph of 10^5 nodes as one CSR shared by an in-RAM
``ArrayGraph`` and its memory-mapped twin.  Each sweep round is one
seeded ``grid_sweep`` (``n_jobs=1``, the inline executor path) over
:data:`KINDS` × ``rep``:

* ``percolation`` — targeted-attack ``percolation_curve`` (array kind);
* ``sir`` — ``SIRModel.run`` from ten seeded patients zero (array kind);
* ``csp18`` / ``csp20`` — ``Spacecraft(n).recoverability_report(3, 3)``
  on the tiled kind with 2^18-state blocks (one tile at n=18, four at
  n=20);
* ``agents`` — one E19 cell: eight seeded array-engine evolution runs.

Kernels do nearly all the work; the sweep harness and executor nearly
none.  The crash image is a checkpoint of a larger round cut after its
first ``rep``; resuming it re-executes the rest.
"""

from __future__ import annotations

import time
from importlib import import_module

import numpy as np

from repro.agents import arrayengine
from repro.agents.environment import ConstraintEnvironment, ShockSchedule
from repro.agents.population import seed_population
from repro.core.strategies import StrategyMix
from repro.csp.engine import TiledCSPEngine
from repro.networks import percolation as percolation_mod
from repro.networks.arraygraph import ArrayGraph
from repro.networks.attacks import TargetedDegreeAttack
from repro.networks.epidemics import SIRModel
from repro.networks.generators import erdos_renyi_stream
from repro.networks.mmapgraph import MmapGraph
from repro.spacecraft import Spacecraft

from . import common

# the package re-exports a `sweep` function that shadows the module
sweep_mod = import_module("repro.analysis.sweep")

N = 100_000
SMOKE_N = 2_000
MEAN_DEGREE = 10.0
RESOLUTION = 64
SIR_BETA, SIR_GAMMA, SIR_STEPS, SIR_PATIENTS = 0.2, 0.1, 200, 10
BLOCK_BITS = 18
KINDS = ("percolation", "sir", "csp18", "csp20", "agents")
REPS = 2  # reps per kind in one window round
RECOVER_REPS = 3  # reps in the checkpointed round the crash image cuts

# one E19 cell (bench_e19_strategy_tradeoffs, frequent-small regime,
# uniform mix): 8 trials per point
GENOME, AGENTS, BUDGET, TRIALS = 24, 40, 400.0, 8
SHOCKS, STEPS = ShockSchedule(period=12, severity=3), 150


def _grid(reps: int) -> dict:
    # rep-major, so a checkpoint cut after len(KINDS) records is rep 0
    return {"rep": list(range(reps)), "kind": list(KINDS)}


class Kernels:
    """Set-up inputs plus the point function of the sweep."""

    def __init__(self, seed: int, n: int):
        p = MEAN_DEGREE / (n - 1)
        chunk_pairs = max(1 << 22, int(500_000 / p))
        self.mmap = MmapGraph.from_edge_chunks(
            n,
            erdos_renyi_stream(n, p, seed=seed, chunk_pairs=chunk_pairs),
            check_duplicates=False,
        )
        # the array kind over the very same CSR (copied off the memmap)
        self.graph = ArrayGraph(
            np.array(self.mmap.indptr), np.array(self.mmap.indices)
        )
        self.n = n

    def csr_mb(self) -> float:
        g = self.graph
        return (g.indptr.nbytes + g.indices.nbytes) / 2**20

    def percolation(self, graph, engine: str):
        return percolation_mod.percolation_curve(
            graph, TargetedDegreeAttack(), resolution=RESOLUTION,
            engine=engine,
        )

    def sir(self, graph, engine: str, seed) -> dict:
        rng = np.random.default_rng(seed)
        # several patients zero: an outbreak that dies out at once would
        # make the point's cost depend on the seed
        patients = rng.choice(self.n, SIR_PATIENTS, replace=False).tolist()
        model = SIRModel(graph, beta=SIR_BETA, gamma=SIR_GAMMA, engine=engine)
        result = model.run(patients, max_steps=SIR_STEPS, seed=rng)
        return {"ever": int(result.total_ever_infected),
                "steps": int(result.steps)}

    @staticmethod
    def spacecraft(n: int, engine):
        return Spacecraft(n).recoverability_report(3, 3, engine=engine)

    @staticmethod
    def agents(seed) -> dict:
        rng = np.random.default_rng(seed)
        survived = 0
        fitness = []
        for trial in range(TRIALS):
            # E19's fixed environments and populations; the point's seed
            # drives the evolution runs
            env = ConstraintEnvironment.random(
                GENOME, tolerance=3, seed=500 + trial
            )
            population = seed_population(
                StrategyMix.uniform(), env, n_agents=AGENTS, budget=BUDGET,
                seed=900 + trial,
            )
            run_seed = int(rng.integers(2**31))
            simulator = arrayengine.make_engine(
                "array", income_rate=1.0, living_cost=1.0,
                replication_threshold=15.0, mutation_rate=0.01,
                capacity=120,
            )
            result = simulator.run(
                population, env, steps=STEPS, shocks=SHOCKS, seed=run_seed
            )
            survived += int(result.survived)
            fitness.append(float(result.mean_fitness.mean()))
        return {"survival_rate": survived / TRIALS,
                "mean_fitness": float(np.mean(fitness))}

    def point(self, rep: int, kind: str, seed) -> dict:
        if kind == "percolation":
            curve = self.percolation(self.graph, "array")
            return {
                "critical": float(
                    percolation_mod.critical_fraction(curve)
                ),
                "robustness": float(curve.robustness_index()),
            }
        if kind == "sir":
            return self.sir(self.graph, "array", seed)
        if kind in ("csp18", "csp20"):
            report = self.spacecraft(
                int(kind[3:]), TiledCSPEngine(block_bits=BLOCK_BITS)
            )
            return {"recoverable": bool(report.recoverable),
                    "worst_steps": report.worst_steps}
        return self.agents(seed)


class Workload:
    """The ``kernels`` workload, as :func:`common.drive` runs it."""

    def __init__(self, ks: Kernels, opts, report, speed):
        self.ks = ks
        self.opts = opts
        self.report = report
        self.speed = speed
        self.spans = None
        self.rounds = 0  # sweep rounds so far: each round's seed index

    def round(self, seed: int, reps: int, **kwargs):
        timed = common.Timed(self.ks.point, self.spans)
        result = sweep_mod.grid_sweep(
            _grid(reps), timed, n_jobs=1, seed=seed, **kwargs
        )
        return result, timed

    def patch(self, spans) -> None:
        """Span each layer's public entry points for the traced phase."""
        def agents_run(fn):
            def wrapper(self, *args, **kwargs):
                with spans.span("agents.run", steps=kwargs.get("steps", 0)):
                    return fn(self, *args, **kwargs)
            return wrapper

        spans.patch(sweep_mod, "grid_sweep", "analysis.sweep")
        spans.patch(sweep_mod, "run_points", "runtime.executor")
        spans.patch(percolation_mod, "percolation_curve",
                    "networks.percolation")
        spans.patch(SIRModel, "run", "networks.sir")
        spans.patch(Spacecraft, "recoverability_report", "csp.recover")
        spans.patch(arrayengine.ArraySimulator, "run", "agents.run",
                    wrapper=agents_run)
        common.patch_checkpoint(spans)

    def window(self, seconds: float, spans) -> list:
        """Sweep rounds until ``seconds`` pass; each round is one unit."""
        self.spans = spans
        report, speed = self.report, self.speed
        rounds = []
        start = time.perf_counter()
        speed.mark()
        while time.perf_counter() - start < seconds:
            index = self.rounds
            t0 = time.perf_counter()
            result, timed = self.round(self.opts.seed * 1000 + index, REPS)
            rate = len(result.rows) / (time.perf_counter() - t0)
            speed.mark()
            common.add_unit(report, speed, [rate], [
                (b - a) * 1e3 for a, b in timed.intervals])
            rounds.append((index, result))
            report["attempted"] += len(result.rows)
            report["failed"] += len(result.failures)
            self.rounds += 1
        return rounds

    def layers(self, spans, counters, since, rounds) -> dict:
        def mean(name):
            records = spans.named(name, since)
            return (sum(r["end"] - r["start"] for r in records)
                    / len(records) if records else 0.0)

        n_rounds = len(rounds)
        points = sum(len(result.rows) for _, result in rounds)
        calls = (len(spans.named("networks.percolation", since))
                 + len(spans.named("networks.sir", since)))
        point_time = spans.total("point", since)
        layers = {
            "networks.percolation_s": mean("networks.percolation"),
            "networks.sir_s": mean("networks.sir"),
            "networks.calls": calls / n_rounds,
            "networks.csr_mb": self.ks.csr_mb(),
            "csp.recover_s": mean("csp.recover"),
            "csp.tiled_blocks":
                counters.get("csp.tiled.blocks", 0) / n_rounds,
            "agents.run_s": mean("agents.run"),
            "agents.steps": sum(r["steps"] for r in spans.named(
                "agents.run", since)) / n_rounds,
            "sweep.harness_s":
                (spans.total("analysis.sweep", since) - point_time)
                / n_rounds,
        }
        layers.update(common.executor_layers(spans, since, points, 1, 0))
        return layers

    def recover(self, spans) -> int:
        """Resume a checkpointed round cut after its first ``rep``."""
        seed = self.opts.seed * 1000 + 999

        def resume(path):
            return self.round(seed, RECOVER_REPS, checkpoint=path)[0].rows

        return common.sweep_recovery(self.opts, self.report, self.speed,
                                     spans, resume, keep=len(KINDS))

    def check(self, rounds) -> None:
        """Outputs re-derived through the engine pairs the repo pins."""
        ks, opts = self.ks, self.opts
        checks = self.report["checks"]
        rows = {(i, row["rep"], row["kind"]): row
                for i, result in rounds for row in result.rows}
        if opts.corrupt_output:
            key = next(k for k in rows if k[2] == "percolation")
            rows[key] = dict(rows[key],
                             critical=rows[key]["critical"] + 1e-9)
        outputs = {k: {name: v for name, v in row.items() if name != "rep"}
                   for k, row in rows.items()}
        for kind in ("percolation", "csp18", "csp20"):
            same = [out for k, out in outputs.items() if k[2] == kind]
            checks[f"{kind} rows identical across rounds and reps"] = all(
                out == same[0] for out in same
            )
        # one sampled point of each kind, re-run outside the window
        rng = np.random.default_rng(opts.seed)
        index, result = rounds[int(rng.integers(len(rounds)))]
        rep = int(rng.integers(REPS))
        seeds = np.random.SeedSequence(opts.seed * 1000 + index).spawn(
            len(result.rows)
        )
        sample = {row["kind"]: (row, seeds[pos])
                  for pos, row in enumerate(result.rows)
                  if row["rep"] == rep}

        row = rows[(index, rep, "percolation")]
        array_curve = ks.percolation(ks.graph, "array")
        mmap_curve = ks.percolation(ks.mmap, "mmap")
        checks["percolation array == mmap on one CSR"] = bool(
            np.array_equal(array_curve.giant_fraction,
                           mmap_curve.giant_fraction)
            and row["critical"] == float(
                percolation_mod.critical_fraction(mmap_curve))
            and row["robustness"] == float(mmap_curve.robustness_index())
        )
        row, seed = sample["sir"]
        checks["sir array == mmap, same seed"] = (
            ks.sir(ks.mmap, "mmap", seed)
            == {k: row[k] for k in ("ever", "steps")}
        )
        for kind in ("csp18", "csp20"):
            n = int(kind[3:])
            tiled = ks.spacecraft(n, TiledCSPEngine(block_bits=BLOCK_BITS))
            checks[f"{kind} tiled == bit report"] = (
                tiled == ks.spacecraft(n, "bit")
                and sample[kind][0]["worst_steps"] == tiled.worst_steps
            )
        row, seed = sample["agents"]
        checks["agents same-seed re-run"] = ks.agents(seed) == {
            k: row[k] for k in ("survival_rate", "mean_fitness")
        }
        self.report["notes"]["rounds"] = len(rounds)
        self.report["notes"]["points_per_round"] = len(KINDS) * REPS


def run(opts, t0: float) -> dict:
    ks = Kernels(opts.seed, SMOKE_N if opts.smoke else N)
    setup_s = time.perf_counter() - t0
    speed = common.HostSpeed()
    report = common.new_report(setup_s, speed)
    if opts.role != "setup":
        common.drive(opts, report, Workload(ks, opts, report, speed))
    return report
