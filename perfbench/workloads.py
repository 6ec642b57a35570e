"""The four workloads: inputs from the seed, set-up, one op, and its check.

Each workload drives the program only through public entry points:
``SpMMEngine.execute_one`` (warm_mix), ``SpMMClient.multiply`` against an
in-process ``SpMMServer`` (http_serve), an engine built with a ``Tuner``
(cold_tune) and ``chebyshev_smoother`` on a sharded engine
(solve_sharded).  All use one closed-loop caller and an engine pool width
of 1.  Why each was chosen, and where its percentiles fall, is in
NOTES.md.
"""

from __future__ import annotations

import os
from typing import Dict, List, Tuple

import numpy as np

import repro.workloads as solvers
from harness import Facts, Op, Outcome, matches
from repro import ExecutionPolicy, SMaTConfig, SpMMClient, SpMMEngine, SpMMServer, Tuner
from repro.formats import CSRMatrix
from repro.matrices import suitesparse
from repro.tuner import clear_calibration_cache
from repro.workloads.smoother import estimate_spectral_bounds

#: every engine in the benchmark: one worker, in-process shard executor,
#: no online tuning (the environment pins the same defaults)
POLICY = ExecutionPolicy(executor="thread", max_workers=1, online_tune=None)


def _rng(seed: int, *salt: int) -> np.random.Generator:
    return np.random.default_rng([seed, *salt])


def _reference(A: CSRMatrix, B: np.ndarray) -> np.ndarray:
    """scipy ``A @ B`` in float64."""
    return A.to_scipy().astype(np.float64) @ B.astype(np.float64)


def _shuffled(ops: List[Op], seed: int, r: int) -> List[Op]:
    order = _rng(seed, 7, r).permutation(len(ops))
    return [ops[i] for i in order]


class Workload:
    """Interface of one workload (see the module docstring)."""

    name = ""
    #: set-ups per run; ``setup_s`` is their median (set-ups well under a
    #: second flap with the box, so they are repeated more)
    setup_reps = 9
    #: layers that must record spans in a traced run
    layers: Tuple[str, ...] = ()

    def __init__(self, seed: int, tmpdir: str):
        self.seed = seed
        self.tmpdir = tmpdir

    def generate(self, seconds: float) -> None:
        """Build every input and reference from the seed (untimed)."""

    def setup(self, rep: int, facts: Facts) -> None:
        """The program's own set-up (timed)."""

    def teardown(self) -> None:
        """Release what :meth:`setup` started (untimed)."""

    def make_round(self, r: int) -> List[Op]:
        """The ops of round ``r``."""
        raise NotImplementedError

    def max_rounds(self) -> int:
        """Upper bound on rounds in one timed phase."""
        return 10_000

    def call(self, op: Op) -> Outcome:
        """Run one op through the public entry point."""
        raise NotImplementedError

    def check(self, op: Op, out: Outcome) -> bool:
        """Compare the op's output with scipy's ``A @ B``."""
        raise NotImplementedError


class WarmMix(Workload):
    """``execute_one`` on warm cached plans: 9 Table-I stand-ins at scale
    0.05 x 4 backends x N in {8, 32}, one of each per round."""

    name = "warm_mix"
    setup_reps = 5
    layers = ("engine", "core", "kernels", "formats", "gpu", "reorder")
    BACKENDS = ("smat", "cusparse", "dasp", "magicube")
    WIDTHS = (8, 32)

    def generate(self, seconds: float) -> None:
        self.mats = {
            name: suitesparse.load(name, scale=0.05, rng=_rng(self.seed, 1, i), use_cache=False)
            for i, name in enumerate(suitesparse.TABLE1_NAMES)
        }
        self.configs = {k: SMaTConfig(kernel=k) for k in self.BACKENDS}
        self.ops, self.refs = [], {}
        for i, (name, A) in enumerate(self.mats.items()):
            for N in self.WIDTHS:
                B = _rng(self.seed, 2, i, N).random((A.ncols, N), dtype=np.float32)
                ref = _reference(A, B)
                for k in self.BACKENDS:
                    key = f"{name}/{k}/{N}"
                    self.refs[key] = ref
                    self.ops.append(Op(key, key, (A, B, self.configs[k])))

    def setup(self, rep: int, facts: Facts) -> None:
        self.engine = SpMMEngine(policy=POLICY, cache_size=64)
        for A in self.mats.values():
            for cfg in self.configs.values():
                self.engine.plan_for(A, cfg)

    def teardown(self) -> None:
        self.engine.close()

    def make_round(self, r: int) -> List[Op]:
        return _shuffled(self.ops, self.seed, r)

    def call(self, op: Op) -> Outcome:
        A, B, cfg = op.payload
        res = self.engine.execute_one(A, B, config=cfg)
        return Outcome(res.C, res.report.simulated_ms, {"backend": res.report.backend})

    def check(self, op: Op, out: Outcome) -> bool:
        return matches(out.C, self.refs[op.key])


class HttpServe(Workload):
    """``SpMMClient.multiply`` against an in-process ``SpMMServer``: three
    low-nnz-per-row stand-ins at scale 0.05 x N in {8, 32}."""

    name = "http_serve"
    layers = ("serve", "engine", "core", "kernels", "formats", "gpu")
    MATRICES = ("conf5_4-8x8", "dc2", "cop20k_A")
    WIDTHS = (8, 32)
    #: ops per round per class; the cheapest class runs twice so that p50
    #: and p90 each fall inside a class (see NOTES.md)
    WEIGHTS = {("conf5_4-8x8", 8): 2}

    def generate(self, seconds: float) -> None:
        self.mats = {
            name: suitesparse.load(name, scale=0.05, rng=_rng(self.seed, 1, i), use_cache=False)
            for i, name in enumerate(self.MATRICES)
        }
        self.ops, self.refs = [], {}
        for i, (name, A) in enumerate(self.mats.items()):
            for N in self.WIDTHS:
                B = _rng(self.seed, 2, i, N).random((A.ncols, N), dtype=np.float32)
                key = f"{name}/{N}"
                self.refs[key] = _reference(A, B)
                self.ops += [Op(key, key, (name, B))] * self.WEIGHTS.get((name, N), 1)
        self.warm_B = {
            name: np.ones((A.ncols, 8), dtype=np.float32) for name, A in self.mats.items()
        }

    def setup(self, rep: int, facts: Facts) -> None:
        self.server = SpMMServer(policy=POLICY, cache_size=16).start()
        self.client = SpMMClient(self.server.url)
        self.fps = {name: self.client.register(A) for name, A in self.mats.items()}
        for name in self.mats:  # first multiply builds each plan
            self.client.multiply(self.fps[name], self.warm_B[name])

    def teardown(self) -> None:
        self.server.close()

    def make_round(self, r: int) -> List[Op]:
        return _shuffled(self.ops, self.seed, r)

    def call(self, op: Op) -> Outcome:
        name, B = op.payload
        C, info = self.client.multiply(self.fps[name], B)
        report = info["report"]
        return Outcome(C, float(report["simulated_ms"]), {"backend": report["backend"]})

    def check(self, op: Op, out: Outcome) -> bool:
        return matches(out.C, self.refs[op.key])


class ColdTune(Workload):
    """Each op is the first multiply of a never-seen matrix through an
    engine with a ``Tuner`` (``max_measure=2``, tuning cache in the run's
    temp dir).  Eight Table-I families at scale 0.02 (mip1 left out) in
    four structure instances each; shipsec1 runs twice per instance so
    p90 falls inside its class.  A round covers every instance."""

    name = "cold_tune"
    layers = ("engine", "tuner", "reorder", "core", "kernels", "formats", "gpu")
    FAMILIES = (
        "conf5_4-8x8", "cant", "pdb1HYS", "rma10", "cop20k_A", "consph", "shipsec1", "dc2",
    )
    SLOTS = FAMILIES + ("shipsec1",)
    #: structure instances per family, all in every round
    INSTANCES = 4
    MAX_MEASURE = 2
    #: pre-generated rounds per second of budget (about twice the
    #: reference rate of one 36-op round per ~4.3 s, so a faster program
    #: still fills the budget)
    ROUNDS_PER_SECOND = 0.5

    def generate(self, seconds: float) -> None:
        self.base = {
            (name, k): suitesparse.load(
                name, scale=0.02, rng=_rng(self.seed, 1, i, k), use_cache=False
            )
            for i, name in enumerate(self.FAMILIES)
            for k in range(self.INSTANCES)
        }
        self.base_refs = {}
        self.Bs = {}
        for (name, k), A in self.base.items():
            B = _rng(self.seed, 2, self.FAMILIES.index(name), k).random(
                (A.ncols, 8), dtype=np.float32
            )
            self.Bs[name, k] = B
            self.base_refs[name, k] = _reference(A, B)
        # the warm-up search runs on the same matrix for every seed
        self.warm = suitesparse.load("cant", scale=0.02)
        self.warm_B = np.ones((self.warm.ncols, 8), dtype=np.float32)
        # the never-seen matrices of every round the budget can reach: each
        # is a family instance with every value scaled by a per-op factor,
        # so its fingerprint (and tuning key) is new while its structure,
        # and hence its tuning work, repeats
        self.rounds: List[List[Op]] = []
        for r in range(max(3, int(np.ceil(seconds * self.ROUNDS_PER_SECOND)))):
            scales = _rng(self.seed, 4, r).uniform(0.5, 2.0, size=(self.INSTANCES, len(self.SLOTS)))
            ops = []
            for k in range(self.INSTANCES):
                for j, name in enumerate(self.SLOTS):
                    A = self.base[name, k]
                    s = np.float32(scales[k, j])
                    A_op = CSRMatrix(A.rowptr, A.col, A.val * s, A.shape, check=False)
                    ops.append(Op(f"{name}/i{k}", name, (A_op, self.Bs[name, k], float(s))))
            self.rounds.append(_shuffled(ops, self.seed, r))

    def max_rounds(self) -> int:
        return len(self.rounds)

    def setup(self, rep: int, facts: Facts) -> None:
        clear_calibration_cache()  # every set-up pays the Eq. 1 calibration
        path = os.path.join(self.tmpdir, f"tuning-{rep}.json")
        self.tuner = Tuner(cache=path, max_measure=self.MAX_MEASURE)
        self.engine = SpMMEngine(policy=POLICY, tuner=self.tuner, cache_size=8)
        res = self.engine.execute_one(self.warm, self.warm_B)
        facts.record("winner/warmup", _winner(res.report))

    def teardown(self) -> None:
        self.engine.close()

    def make_round(self, r: int) -> List[Op]:
        return self.rounds[r]

    def call(self, op: Op) -> Outcome:
        A, B, _ = op.payload
        res = self.engine.execute_one(A, B)
        return Outcome(res.C, res.report.simulated_ms, {"winner": _winner(res.report)})

    def check(self, op: Op, out: Outcome) -> bool:
        name, k = op.key.split("/i")
        return matches(out.C, op.payload[2] * self.base_refs[name, int(k)])


def _winner(report) -> str:
    pre = report.preprocessing
    h, w = pre.block_shape
    return f"{report.backend}/{h}x{w}/{pre.algorithm}"


class SolveSharded(Workload):
    """``chebyshev_smoother`` for a fixed 6 sweeps (``tol=0``) on a block
    right-hand side of 4 columns, through a 2x2-grid sharded engine over
    ``cant`` at scale 0.1."""

    name = "solve_sharded"
    layers = ("workloads", "engine", "shard", "core", "kernels", "formats", "gpu")
    SWEEPS = 6
    RHS = 4
    COLUMNS = 4
    POLICY = POLICY.replace(sharded=True, grid="2x2")

    def generate(self, seconds: float) -> None:
        self.A = suitesparse.load("cant", scale=0.1, rng=_rng(self.seed, 1), use_cache=False)
        self.bounds = estimate_spectral_bounds(self.A)
        A64 = self.A.to_scipy().astype(np.float64)
        self.ops, self.refs = [], {}
        for i in range(self.RHS):
            b = _rng(self.seed, 2, i).random((self.A.nrows, self.COLUMNS))
            key = f"rhs{i}"
            self.refs[key] = _chebyshev_reference(A64, b, self.bounds, self.SWEEPS)
            self.ops.append(Op(key, "solve", (b,)))
        self.warm_B = np.ones((self.A.ncols, self.COLUMNS), dtype=np.float32)

    def setup(self, rep: int, facts: Facts) -> None:
        self.engine = SpMMEngine(policy=self.POLICY, cache_size=16)
        # builds the partition and every shard plan; its report prices
        # one sharded SpMM of this width on the simulated device
        _, report = self.engine.multiply_sharded(self.A, self.warm_B, return_report=True)
        self.spmm_sim_ms = report.simulated_ms
        facts.record("shard.imbalance", report.imbalance)

    def teardown(self) -> None:
        self.engine.close()

    def make_round(self, r: int) -> List[Op]:
        return _shuffled(self.ops, self.seed, r)

    def call(self, op: Op) -> Outcome:
        (b,) = op.payload
        # looked up on the package at call time, so a traced run sees it
        res = solvers.chebyshev_smoother(
            self.A, b, eig_bounds=self.bounds, tol=0.0, max_iter=self.SWEEPS, engine=self.engine
        )
        spmms = len(res.report.records)
        return Outcome(res.x, spmms * self.spmm_sim_ms, {"spmms": spmms})

    def check(self, op: Op, out: Outcome) -> bool:
        # the iterate is float64, but every SpMM behind it is float32
        return matches(out.C, self.refs[op.key], dtype=np.float32)


def _chebyshev_reference(A64, b: np.ndarray, bounds, sweeps: int) -> np.ndarray:
    """The Chebyshev recurrence of ``chebyshev_smoother`` with scipy SpMMs
    in float64 (operands rounded to float32 as the smoother sends them)."""
    lmin, lmax = bounds
    theta, delta = 0.5 * (lmax + lmin), 0.5 * (lmax - lmin)
    sigma = theta / delta
    x = np.zeros_like(b)
    r = b - A64 @ x.astype(np.float32).astype(np.float64)
    d = r / theta
    rho = 1.0 / sigma
    for _ in range(sweeps):
        x = x + d
        r = r - A64 @ d.astype(np.float32).astype(np.float64)
        rho_next = 1.0 / (2.0 * sigma - rho)
        d = rho_next * rho * d + (2.0 * rho_next / delta) * r
        rho = rho_next
    return x


WORKLOADS: Dict[str, type] = {
    w.name: w for w in (WarmMix, HttpServe, ColdTune, SolveSharded)
}
