"""Workload inputs, the closed loop and the output checks.

One client calls the package's public functions in a closed loop: each
call starts after the previous one returned. Every input comes from the
workload seed. A roundtrip is one inverse retraction R^-1(U0, U1)
followed by the matching retraction R on its result, and is checked
from outside the package.
"""

from __future__ import annotations

import contextlib
import csv
import io
import shutil
import tempfile
import time
import traceback
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

DISTANCE = np.pi / 2
# kind -> (inverse, retraction), in the order each roundtrip cycle runs them
KINDS = {
    "pf": ("pf_inv", "pf_ret"),
    "pl": ("pl_inv", "pl_ret"),
    "pl_cayley": ("pl_cay_inv", "pl_cay_ret"),
}
# edge pairs: largest rotation angle pi - delta, and sigma_min(U0.T U1)
ANGLE_DELTAS = (1e-1, 1e-2, 1e-3, 1e-4)
SIGMA_MINS = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
# stiefel-bench curve + order, with its expected slopes
EXPERIMENT_STEPS = 51
SLOPES = {("pf", 1.0): 3.0, ("pl", 1.0): 3.0, ("pl_cayley", 1.0): 3.0, ("pl", 0.5): 2.0}
SLOPE_TOL = 0.3


@dataclass(frozen=True)
class Workload:
    n: int
    p: int
    pool: str  # "random" (U1 = pl_ret(xi), |xi| = pi/2) or "edge"
    pool_size: int = 0
    experiment: bool = False


WORKLOADS = {
    "pullback": Workload(1000, 400, "random", 3),
    "geodesic_edge": Workload(1000, 100, "edge", experiment=True),
}


@dataclass
class Pair:
    U0: object  # StiefelPoint
    U1: object  # StiefelPoint
    label: str


@dataclass
class State:
    workload: Workload
    seed: int
    pairs: list[Pair]
    outdir: Path


@dataclass
class Stats:
    """Everything one loop measured and checked."""

    latency: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))
    unit_s: list[float] = field(default_factory=list)  # one experiment, or one pair cycle
    outcomes: Counter = field(default_factory=Counter)  # ok / refused / wrong / crashed
    # fn -> class -> labels of the inputs on which fn failed that way
    bad: dict[str, dict[str, set]] = field(
        default_factory=lambda: defaultdict(lambda: defaultdict(set)))
    # (input label, kind) -> outcome classes seen over all passes
    classes: dict[tuple[str, str], set] = field(default_factory=lambda: defaultdict(set))
    roundtrips: int = 0
    max_residual: float = 0.0
    max_defect: float = 0.0
    bytes_written: int = 0
    errors: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return sum(self.outcomes.values())

    @property
    def failed(self) -> int:
        return self.attempted - self.outcomes["ok"]

    def record(self, cls: str, label: str, kind: str, *fns: str) -> None:
        """Count one operation's outcome and blame it on the functions at fault."""
        self.outcomes[cls] += 1
        self.classes[(label, kind)].add(cls)
        for fn in fns:
            self.bad[fn][cls].add(label)


def _typed(sr) -> tuple[type[BaseException], ...]:
    return sr.DomainError, sr.ValidationError


def _call(sr, fn: str, args: tuple, pair: Pair, kind: str, stats: Stats):
    """Time one public call; record a refusal or a crash and return None for it."""
    t0 = time.perf_counter()
    try:
        return getattr(sr, fn)(*args)
    except _typed(sr):
        stats.record("refused", pair.label, kind, fn)
    except Exception:
        stats.errors.append(f"{fn} on {pair.label}: {traceback.format_exc(limit=3)}")
        stats.record("crashed", pair.label, kind, fn)
    finally:
        stats.latency[fn].append(time.perf_counter() - t0)
    return None


def roundtrip(sr, kind: str, pair: Pair, stats: Stats) -> None:
    """One checked R(R^-1(U0, U1)) through the public functions, as a user calls them.

    A residual ||R(R^-1(U0, U1)) - U1||_F above 1e-10 sqrt(p) is blamed on
    the inverse, an orthonormality defect of the output above 1e-8 sqrt(p)
    on the retraction.
    """
    inv_name, ret_name = KINDS[kind]
    stats.roundtrips += 1
    xi = _call(sr, inv_name, (pair.U0, pair.U1), pair, kind, stats)
    if xi is None:
        return
    out = _call(sr, ret_name, (xi,), pair, kind, stats)
    if out is None:
        return
    Y = out.U
    p = Y.shape[1]
    residual = float(np.linalg.norm(Y - pair.U1.U))
    defect = float(np.linalg.norm(Y.T @ Y - np.eye(p)))
    stats.max_residual = max(stats.max_residual, residual)
    stats.max_defect = max(stats.max_defect, defect)
    blamed = [fn for fn, bad in ((inv_name, not residual <= 1e-10 * np.sqrt(p)),
                                 (ret_name, not defect <= 1e-8 * np.sqrt(p))) if bad]
    stats.record("wrong" if blamed else "ok", pair.label, kind, *blamed)


def _normal_part(U0: np.ndarray, rng) -> np.ndarray:
    G = rng.standard_normal(U0.shape)
    return G - U0 @ (U0.T @ G)


def _skew_with_angles(sr, angles: np.ndarray, p: int, rng) -> np.ndarray:
    """Skew p-by-p matrix whose rotation angles are the given ones, in a random basis."""
    J = np.zeros((p, p))
    for k, theta in enumerate(angles):
        J[2 * k + 1, 2 * k] = theta
        J[2 * k, 2 * k + 1] = -theta
    Q = sr.rand_point(p, p, rng).U
    A = Q @ J @ Q.T
    return 0.5 * (A - A.T)


def random_pairs(sr, w: Workload, rng) -> list[Pair]:
    pairs = []
    for i in range(w.pool_size):
        U0 = sr.rand_point(w.n, w.p, rng)
        xi = sr.rand_tangent(U0, DISTANCE, rng)
        pairs.append(Pair(U0, sr.pl_ret(xi), f"pair{i}"))
    return pairs


def _edge_pair(sr, w: Workload, rng, angles: np.ndarray, b: np.ndarray, label: str) -> Pair:
    """U1 = pl_ret(U0 A + P diag(b) V.T), formed in closed form.

    A has the given rotation angles and P is orthonormal and normal to
    U0, so U1 = (U0 exp(A) V + P diag(b)) diag(c) V.T with
    c = 1/sqrt(1 + b^2): U0.T U1 has polar factor exp(A) and singular
    values c, and U1 stays orthonormal to roundoff however large b is.
    """
    U0 = sr.rand_point(w.n, w.p, rng)
    A = _skew_with_angles(sr, angles, w.p, rng)
    P, _ = np.linalg.qr(_normal_part(U0.U, rng))
    V = sr.rand_point(w.p, w.p, rng).U
    c = 1.0 / np.sqrt(1.0 + b**2)
    U1 = (U0.U @ (sr.expm_skew(A) @ V) * c + P * (b * c)) @ V.T
    return Pair(U0, sr.check_point(U1), label)


def edge_pairs(sr, w: Workload, rng) -> list[Pair]:
    """Pairs inside the PL domain, next to its principal-log and chart edges."""
    half = w.p // 2
    pairs = []
    for delta in ANGLE_DELTAS:
        angles = rng.uniform(0.0, np.pi / 2, half)
        angles[0] = np.pi - delta
        b = rng.uniform(0.0, 0.1, w.p)
        pairs.append(_edge_pair(sr, w, rng, angles, b, f"angle_gap={delta:g}"))
    for smin in SIGMA_MINS:
        b = rng.uniform(0.0, 1.0, w.p)
        b[0] = np.sqrt(1.0 / smin**2 - 1.0)
        pairs.append(_edge_pair(sr, w, rng, rng.uniform(0.0, 1.0, half), b,
                                f"sigma_min={smin:g}"))
    return pairs


def setup(sr, name: str, seed: int, outdir: Path) -> State:
    """Generate the workload's inputs from the seed and warm every code path up."""
    w = WORKLOADS[name]
    rng = np.random.default_rng(seed)
    pairs = edge_pairs(sr, w, rng) if w.pool == "edge" else random_pairs(sr, w, rng)
    state = State(w, seed, pairs, outdir)
    warmup = Stats()
    for kind in KINDS:
        roundtrip(sr, kind, pairs[0], warmup)
    if w.experiment:
        _run_cli(sr, state, ["--n", "12", "--p", "3", "--steps", "3"], warmup)
    return state


def _run_cli(sr, state: State, sizes: list[str], stats: Stats) -> tuple[int, dict]:
    """Run `stiefel-bench curve` and `stiefel-bench order` in-process; return codes and CSVs."""
    cli = sr.cli
    common = [*sizes, "--kinds", ",".join(KINDS), "--seed", str(state.seed)]
    codes, tables = 0, {}
    for command, csv_name in (("curve", "maxerr.csv"), ("order", "order.csv")):
        out = Path(tempfile.mkdtemp(dir=state.outdir))
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                codes |= cli.main([command, *common, "--out", str(out)])
            stats.bytes_written += sum(f.stat().st_size for f in out.iterdir())
            tables[command] = []  # a failed command may write no CSV
            if (out / csv_name).exists():
                with open(out / csv_name, newline="") as f:
                    tables[command] = list(csv.DictReader(f))
        finally:
            shutil.rmtree(out)
    return codes, tables


def experiment(sr, state: State, stats: Stats) -> None:
    """The paper's geodesic experiment through stiefel-bench, with its outputs checked."""
    w = state.workload
    sizes = ["--n", str(w.n), "--p", str(w.p), "--steps", str(EXPERIMENT_STEPS)]
    stats.bytes_written = 0
    t0 = time.perf_counter()
    try:
        code, tables = _run_cli(sr, state, sizes, stats)
    except Exception:
        stats.errors.append(f"cli.main: {traceback.format_exc(limit=3)}")
        stats.record("crashed", "experiment", "experiment", "cli.main")
        return
    stats.unit_s.append(time.perf_counter() - t0)
    maxerr = {r["kind"]: float(r["max_error"]) for r in tables["curve"]}
    slopes = {(r["kind"], float(r["beta"])): float(r["slope"]) for r in tables["order"]}
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    if not maxerr.get("pl", np.inf) < maxerr.get("pf", -np.inf):
        problems.append(f"max error PL not below PF: {maxerr}")
    for key, want in SLOPES.items():
        if not abs(slopes.get(key, np.inf) - want) <= SLOPE_TOL:
            problems.append(f"slope {key} = {slopes.get(key)}, want {want}")
    if problems:
        stats.errors.append("experiment: " + "; ".join(problems))
    stats.record("wrong" if problems else "ok", "experiment", "experiment",
                 *(["cli.main"] if problems else []))


def one_pass(sr, state: State, stats: Stats) -> None:
    """One pass over the workload: the experiment if any, then every pair through every kind."""
    if state.workload.experiment:
        experiment(sr, state, stats)
    for pair in state.pairs:
        t0 = time.perf_counter()
        for kind in KINDS:
            roundtrip(sr, kind, pair, stats)
        if not state.workload.experiment:
            stats.unit_s.append(time.perf_counter() - t0)


@dataclass
class Loop:
    stats: Stats
    seconds: float = 0.0  # wall time of this loop's passes
    passes: int = 0


def run_loop(sr, state: State, seconds: float, contexts=(contextlib.nullcontext,)) -> list[Loop]:
    """Whole passes until `seconds` have elapsed, taking turns among the contexts.

    Pass i runs inside contexts[i % len(contexts)]() and is measured into
    that context's Loop, so loops that alternate see the same machine
    conditions. Returns one Loop per context.
    """
    loops = [Loop(Stats()) for _ in contexts]
    t0 = time.perf_counter()
    i = 0
    while True:
        loop = loops[i % len(loops)]
        with contexts[i % len(loops)]():
            t = time.perf_counter()
            one_pass(sr, state, loop.stats)
            loop.seconds += time.perf_counter() - t
        loop.passes += 1
        i += 1
        if i % len(loops) == 0 and time.perf_counter() - t0 >= seconds:
            return loops


def input_diagnostics(state: State) -> dict[str, float]:
    """Distance of the inputs from each domain edge, measured from outside the package.

    sigma_min of U0.T U1 (PL chart edge), pi minus the largest rotation
    angle of its polar factor (principal-log edge), and the smallest
    |d_i + d_j| / ||C||_2 over the eigenvalues d of C = U0.T U1 (PF
    Sylvester edge).
    """
    smin, gap, margin = np.inf, np.inf, np.inf
    for pair in state.pairs:
        C = pair.U0.U.T @ pair.U1.U
        M, s, Rt = np.linalg.svd(C)
        angles = np.angle(np.linalg.eigvals(M @ Rt))
        d = np.linalg.eigvals(C)
        smin = min(smin, float(s[-1]))
        gap = min(gap, float(np.pi - np.max(np.abs(angles))))
        margin = min(margin, float(np.min(np.abs(d[:, None] + d[None, :])) / s[0]))
    return {"min_sigma_min": smin, "min_angle_gap": gap, "min_pair_sum_margin": margin}
