"""Inputs, timed steps and answer checks of the schmidt-cone benchmark.

A run is a schedule of small steps from five phases:

* setup  -- a fresh process imports schmidt_cone and its CLI and warms up.
* grid   -- one ``oracles.grid_agreement`` call over all k, at d=4 or d=6,
            with 200 Haar frames per point, on an explicit worker count.
* suites -- one part of the serial oracle suites; a pass is one of each.
* query  -- a batch of operations drawn from the tests' own call mix
            (mix.json): classifier requests in float and exact mode, margin
            grids, region emission and in-process ``cli.main`` calls.
* cold   -- one ``python -m schmidt_cone.cli`` cold start.

Every workload runs every phase, so every end-to-end metric exists on every
workload; the workload decides how much of the run each phase gets, and so
which layer carries the load.  The steps of all phases are spread evenly
over the run: the speed of a shared machine drifts by a fifth within
seconds, and spreading makes every metric see the same mix of that drift.

The seed fixes every input and the run length fixes the number of steps, so
the same arguments always do the same work.  Every answer is checked after
it is timed; a wrong answer counts as a failed operation.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np
from schmidt_cone import classify, cli, geometry, oracles, symmetry
from schmidt_cone.linalg import schmidt_spectrum

BOX = (-0.6, 1.1)  # the acceptance box of the frame-compression grid
BAND = 1e-6
FRAMES = 200
BOUNDARY_TOL = 1e-9
GRID = ((4, 50), (6, 34))  # (d, grid_n) of the grid_agreement calls of a pass
SETUP_PROBES = 25  # fresh-process set-ups per run, about 0.2 s each
COLD_STARTS = 25  # CLI cold starts per run, as many as the set-up probes
SIDE_SHARE = 0.16  # of the run length, for each of the two other timed phases
OPS_PER_BATCH = 200  # query operations per step; the mix sets what they are
# The query mix is the calls the tests in tests/ make directly, as recorded
# by derive_mix.py.  Of those, the query phase keeps the three classifier
# profiles the API is used through, and the CLI subcommands that stay out of
# the oracles ("verify" and "witness" run oracle searches).
MIX = json.loads((Path(__file__).resolve().parent / "mix.json").read_text())
QUERY_FUNCS = ("k_positivity_max", "schmidt_number", "k_superpositivity_max")
CLI_COMMANDS = ("classify-map", "classify-state", "region", "conic")

# Seconds per repetition of each phase on the reference machine (2 CPUs,
# 2 workers): a grid pass is one call per d, a suites pass one call of each
# part.  They turn a run length into repetition counts.
REP_SECONDS = {"grid": 3.5, "suites": 0.51, "query": 0.03}

# A side share of grid rounds to one pass of two calls, whose throughput
# spread by up to 0.17 between runs; a second pass, later in the run, evens
# out more of the machine's fast and slow spells.
MIN_GRID_PASSES = 2

# The phase each workload gives the run to; the other two timed phases get
# SIDE_SHARE each, so that every end-to-end metric exists on every workload.
FOCUS = {"frame-grid": "grid", "oracle-suites": "suites", "query": "query"}
PHASES = ("setup", "grid", "suites", "query", "cold")

# Tags that keep the random streams of the phases apart.
_GRID, _SUITES, _QUERY, _COLD, _SUITE_SEED = 1, 2, 3, 4, 5


def plan(workload: str, seconds: float) -> dict[str, int]:
    """Repetitions of each phase in a run of about ``seconds`` plus set-up
    probes and cold starts."""
    reps = {"setup": SETUP_PROBES, "cold": COLD_STARTS}
    for phase in ("grid", "suites", "query"):
        share = 1 - 2 * SIDE_SHARE if phase == FOCUS[workload] else SIDE_SHARE
        least = MIN_GRID_PASSES if phase == "grid" else 1
        reps[phase] = max(least, round(share * seconds / REP_SECONDS[phase]))
    return reps


def schedule(workload: str, seconds: float) -> list[tuple[str, int, int]]:
    """Steps (phase, rep, part) in run order, each phase spread evenly."""
    parts = {"grid": len(GRID), "suites": len(SUITE_PARTS)}
    timed = []
    for phase, reps in plan(workload, seconds).items():
        steps = [(rep, part) for rep in range(reps) for part in range(parts.get(phase, 1))]
        for i, (rep, part) in enumerate(steps):
            timed.append(((i + 0.5) / len(steps), PHASES.index(phase), phase, rep, part))
    return [(phase, rep, part) for _, _, phase, rep, part in sorted(timed)]


def _rng(seed: int, tag: int, rep: int) -> np.random.Generator:
    return np.random.default_rng([seed, tag, rep])


@dataclass
class Tally:
    """Operations attempted and failed; a wrong answer counts as failed."""

    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)

    def op(self, n: int = 1) -> None:
        self.attempted += n

    def fail(self, what: str, n: int = 1) -> None:
        self.failed += n
        if len(self.notes) < 10:
            self.notes.append(what)


@dataclass
class Context:
    """What the steps need besides their inputs, prepared before timing."""

    root: Path
    workers: int
    expected_grid: dict  # (d, grid_n) -> (points checked, interior points)
    golden_svg: dict  # (kind, d, k) -> bytes
    tmp: Path
    env: dict  # of fresh processes: PYTHONPATH=src and the pinned thread counts
    quiet: object = contextlib.nullcontext  # suspends tracing while checking


def expected_grid_counts(d: int, grid_n: int) -> tuple[int, int]:
    """Points outside the boundary band, and those inside the region, all k."""
    axis = np.linspace(BOX[0], BOX[1], grid_n)
    P, Q = np.meshgrid(axis, axis, indexing="ij")
    checked = interior = 0
    for k in range(1, d + 1):
        m = classify.kpos_margin_grid(d, k, P, Q)
        checked += int(np.count_nonzero(np.abs(m) > BAND))
        interior += int(np.count_nonzero(m > BAND))
    return checked, interior


def prepare(root: Path, workers: int) -> Context:
    golden = {}
    for kind in ("map", "state"):
        for d in (3, 4):
            for k in range(1, d + 1):
                golden[kind, d, k] = (root / "tests" / "golden" / f"{kind}_d{d}_k{k}.svg").read_bytes()
    tmp = root / ".bench_tmp"
    tmp.mkdir(exist_ok=True)
    expected = {dg: expected_grid_counts(*dg) for dg in GRID}
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    return Context(root, workers, expected, golden, tmp, env)


# ---------------------------------------------------------------------------
# setup: fresh-process import and warm-up
# ---------------------------------------------------------------------------


def setup_step(ctx: Context, seed: int, rep: int, part: int, tally: Tally, out: dict) -> None:
    """One fresh process running setup_probe.py."""
    tally.op()
    probe = Path(__file__).resolve().parent / "setup_probe.py"
    try:
        proc = subprocess.run([sys.executable, str(probe)], env=ctx.env, cwd=ctx.root,
                              capture_output=True, text=True, timeout=120)
        times = json.loads(proc.stdout.splitlines()[-1])
    except (subprocess.TimeoutExpired, IndexError, ValueError) as e:
        tally.fail(f"setup probe: {e!r}")
        return
    out.setdefault("setup_s", []).append(times["setup_s"])
    out.setdefault("cli_import_s", []).append(times["cli_import_s"])


# ---------------------------------------------------------------------------
# grid: frame-compression oracle against the classifier
# ---------------------------------------------------------------------------


def grid_step(ctx: Context, seed: int, rep: int, part: int, tally: Tally, out: dict) -> None:
    """One grid_agreement call; the derived counts hold for a consistent grid."""
    d, grid_n = GRID[part]
    exp_checked, exp_interior = ctx.expected_grid[d, grid_n]
    grid_seed = int(_rng(seed, _GRID, rep).integers(2**31))
    tally.op(exp_checked)
    t0 = time.perf_counter()
    try:
        report = oracles.grid_agreement(
            d, grid_n=grid_n, n_random=FRAMES, seed=grid_seed, band=BAND, box=BOX,
            workers=ctx.workers,
        )
    except Exception as e:
        tally.fail(f"grid d={d}: {e!r}", exp_checked)
        return
    out.setdefault("seconds", []).append(time.perf_counter() - t0)
    out.setdefault("points", []).append(report.samples)
    if report.samples != exp_checked:
        tally.fail(f"grid d={d}: checked {report.samples}, band leaves {exp_checked}",
                   max(1, abs(report.samples - exp_checked)))
    if not report.consistent:
        tally.fail(f"grid d={d}: {report.witness}", max(1, report.details["disagreements"]))
    counts = out.setdefault("counts", dict.fromkeys(
        ("points_checked", "interior_points", "random_frames.calls", "cholesky.calls"), 0))
    counts["points_checked"] += report.samples
    counts["interior_points"] += exp_interior
    # every interior point runs one batched Cholesky on its random frames; an
    # exterior point draws random frames only when no explicit frame
    # certifies it, and then ends as a finding
    counts["cholesky.calls"] += exp_interior
    counts["random_frames.calls"] += exp_interior + report.details["random_only_violations"]


# ---------------------------------------------------------------------------
# suites: the serial oracle suites
# ---------------------------------------------------------------------------


def suite_operators(seed: int, rep: int) -> list[tuple[int, int, float, float, bool]]:
    """Invariant operators (d, k, a, b, block_positive) for the falsifier.

    Block-positive ones are convex mixtures of the corners of the convex
    k-positivity region; the other lies beyond a corner, seen from the
    corners' centroid, and so outside it.
    """
    rng = _rng(seed, _SUITES, rep)
    ops = []
    for j in range(3):
        d = int(rng.integers(3, 5))
        k = int(rng.integers(1, d))
        corners = np.asarray(geometry.map_region_vertices(d, k), dtype=float)
        if j < 2:
            a, b = rng.dirichlet(np.ones(len(corners))) @ corners
            ops.append((d, k, float(a), float(b), True))
        else:
            v = corners[rng.integers(len(corners))]
            a, b = v + 0.5 * (v - corners.mean(axis=0))
            ops.append((d, k, float(a), float(b), False))
    return ops


def suite_seed(seed: int, rep: int) -> int:
    return int(_rng(seed, _SUITE_SEED, rep).integers(2**31))


def _falsifier_ok(op, xi, X) -> bool:
    d, k, _, _, block_positive = op
    if xi is None:
        return True  # proves nothing, contradicts nothing
    if block_positive:
        return False
    rank = len(schmidt_spectrum(xi, d, d, tol=1e-9))
    value = float(np.real(np.vdot(xi, X @ xi)))
    return rank <= k and value < 0 and abs(np.linalg.norm(xi) - 1) < 1e-9


def _falsify(seed: int, rep: int) -> list:
    s = suite_seed(seed, rep)
    found = []
    for d, k, a, b, _ in suite_operators(seed, rep):
        X = symmetry.InvariantState(d, a, b).matrix()
        found.append((X, oracles.block_positivity_falsifier(X, k, seed=s)))
    return found


# One pass of the suites: each part returns OracleReports, except the
# falsifier, which returns (operator matrix, violator or None) pairs.
SUITE_PARTS = (
    lambda seed, rep: [oracles.twirl_consistency(3, n_ops=1, n_samples=50_000,
                                                 seed=suite_seed(seed, rep))],
    lambda seed, rep: [oracles.frame_minima_check(4, restarts=10, seed=suite_seed(seed, rep))],
    lambda seed, rep: [oracles.frame_minima_check(6, restarts=5, seed=suite_seed(seed, rep))],
    lambda seed, rep: [oracles.witness_grid_check(d, grid_n=60) for d in (3, 4, 5, 6)],
    lambda seed, rep: [oracles.duality_sanity(3, samples=200, seed=suite_seed(seed, rep)),
                       oracles.duality_sanity(4, samples=100, seed=suite_seed(seed, rep))],
    _falsify,
)


def suites_step(ctx: Context, seed: int, rep: int, part: int, tally: Tally, out: dict) -> None:
    t0 = time.perf_counter()
    try:
        results = SUITE_PARTS[part](seed, rep)
    except Exception as e:
        tally.op()
        tally.fail(f"suite part {part}: {e!r}")
        return
    passes = out.setdefault("pass_seconds", {})
    passes[rep] = passes.get(rep, 0.0) + time.perf_counter() - t0
    if SUITE_PARTS[part] is _falsify:
        with ctx.quiet():
            for op, (X, xi) in zip(suite_operators(seed, rep), results):
                tally.op()
                if not _falsifier_ok(op, xi, X):
                    tally.fail(f"falsifier on {op}")
        return
    for report in results:
        tally.op()
        if not report.consistent:
            tally.fail(f"suite report {report.details}: {report.witness}")


# ---------------------------------------------------------------------------
# query: the interactive API and CLI path
# ---------------------------------------------------------------------------


def _query_mix() -> tuple[list[tuple], np.ndarray]:
    """Query operations and the probability of each, from the recorded mix."""
    ops, weights = [], []
    for func, mode, d, boundary, n in MIX["requests"]:
        if func in QUERY_FUNCS:
            ops.append(("request", func, mode, d, boundary))
            weights.append(n)
    for func, d, k, points, n in MIX["grids"]:
        ops.append(("grid", func, d, k, points))
        weights.append(n)
    for kind, d, k, n in MIX["regions"]:
        ops.append(("emit", kind, d, k))
        weights.append(n)
    for command, n in MIX["cli"].items():
        if command.split()[0] in CLI_COMMANDS:
            ops.append(("cli", command))
            weights.append(n)
    w = np.asarray(weights, dtype=float)
    return ops, w / w.sum()


QUERY_OPS, QUERY_P = _query_mix()
QUERY_DIMS = sorted({op[3] if op[0] == "request" else op[2] for op in QUERY_OPS if op[0] != "cli"})


def warm_up() -> None:
    """Fill the program's caches that every user session pays for once."""
    for d in QUERY_DIMS:
        for k in range(1, d + 1):
            if geometry.region_case(d, k) == 3:
                geometry.dual_conic(d, k, exact=True)
    for exact in (False, True):
        x, y = (Fraction(1, 5), Fraction(-1, 7)) if exact else (0.2, -1 / 7)
        for name in QUERY_FUNCS:
            getattr(classify, name)(4, x, y)


@dataclass(frozen=True)
class Request:
    func: str
    mode: str  # "exact" or "float"
    d: int
    x: Fraction
    y: Fraction
    vertex_k: int | None  # set when (x, y) is an exact corner of the k-region

    def args(self) -> tuple:
        if self.mode == "exact":
            return self.d, self.x, self.y
        return self.d, float(self.x), float(self.y)


@functools.lru_cache(maxsize=None)
def _corners(family: str, d: int) -> tuple:
    """(k, corner) for every corner of every k-region of d, exact."""
    vertices = geometry.map_region_vertices if family == "map" else geometry.state_region_vertices
    return tuple((k, v) for k in range(1, d + 1) for v in vertices(d, k, exact=True))


def make_request(rng: np.random.Generator, func: str, mode: str, d: int, boundary: bool) -> Request:
    """A request on a region corner, or a bulk rational point of the box."""
    if boundary:
        family = "map" if func == "k_positivity_max" else "state"
        corners = _corners(family, d)
        k, (x, y) = corners[rng.integers(len(corners))]
        return Request(func, mode, d, x, y, k)
    x, y = (Fraction(int(v), 9973) for v in rng.integers(-5984, 10971, size=2))
    return Request(func, mode, d, x, y, None)


def query_ops(seed: int, rep: int) -> list[tuple]:
    """One batch of operations drawn from the mix, with their inputs."""
    rng = _rng(seed, _QUERY, rep)
    batch = []
    for i in rng.choice(len(QUERY_OPS), size=OPS_PER_BATCH, p=QUERY_P):
        op = QUERY_OPS[i]
        if op[0] == "request":
            batch.append(("request", make_request(rng, *op[1:])))
        elif op[0] == "cli":
            batch.append(("cli", op[1], cli_argv(rng, op[1])))
        elif op[0] == "grid":
            _, func, d, k, points = op
            P, Q = rng.uniform(*BOX, size=(2, points))  # the tests' grids, as points
            batch.append(("grid", func, d, k, P, Q))
        else:
            batch.append(op)
    return batch


def mix_percentile(kind: str, seconds: list[float], cells: list[tuple], q: float,
                   size=lambda cell: 1) -> float:
    """The q-th percentile of each operation of ``kind`` seen, averaged with
    the operations' probabilities in the mix, so the run's draw of operations
    drops out.  With ``size``, the average is per unit of the mix's mean size.

    A percentile per operation, not of the pooled samples: the machine runs
    in fast and slow spells, and a pooled percentile between the modes of
    different operations jumps with the share of fast spells in a run."""
    weight = {op[1:]: p for op, p in zip(QUERY_OPS, QUERY_P) if op[0] == kind}
    by_cell: dict[tuple, list[float]] = {}
    for s, cell in zip(seconds, cells):
        by_cell.setdefault(cell, []).append(s)
    total = sum(weight[c] * size(c) for c in by_cell)
    return sum(weight[c] * float(np.percentile(v, q)) for c, v in by_cell.items()) / total


def _statuses(result) -> tuple[str, ...]:
    return tuple(v.status for v in result.per_k)


def _coherent(func: str, res) -> bool:
    """The profile fits its per-k verdicts, which are monotone in k."""
    member = [v.member for v in res.per_k]
    if func == "k_positivity_max":
        return member == sorted(member, reverse=True) and res.max_k == sum(member)
    first = member.index(True) + 1 if member[-1] else None
    ok = member == sorted(member) and (first is None or sum(member) == len(member) - first + 1)
    if func == "schmidt_number":
        return ok and res.schmidt_number == first
    return ok and res.min_k == first and res.max_k == (len(member) if first else 0)


def check_request(req: Request, res, tally: Tally) -> None:
    """The profile is coherent, a corner reads boundary, and an exact answer
    agrees with float mode wherever float is outside the boundary band."""
    if not _coherent(req.func, res):
        tally.fail(f"{req}: incoherent profile {_statuses(res)}")
    st = _statuses(res)
    if req.vertex_k is not None and st[req.vertex_k - 1] != "boundary":
        tally.fail(f"{req}: corner reads {st[req.vertex_k - 1]}")
    if req.mode == "exact":
        fst = _statuses(getattr(classify, req.func)(req.d, float(req.x), float(req.y)))
        if any(f != "boundary" and f != e for f, e in zip(fst, st)):
            tally.fail(f"{req}: float {fst} vs exact {st}")


_SCALAR = {"kpos_margin_grid": "is_k_positive", "schmidt_margin_grid": "schmidt_membership"}


def _check_margin_grid(rng, func, d, k, P, Q, margins, tally: Tally) -> None:
    """Grid margins agree in sign with the scalar float path off the band."""
    for i in rng.integers(P.size, size=4):
        m = margins[i]
        if abs(m) <= BOUNDARY_TOL:
            continue
        status = getattr(classify, _SCALAR[func])(d, float(P[i]), float(Q[i]), k).status
        if status != ("inside" if m > 0 else "outside"):
            tally.fail(f"{func} d={d} k={k} at ({P[i]}, {Q[i]}): {m} vs {status}")


def _boundary(kind: str):
    return geometry.map_region_boundary if kind == "map" else geometry.state_region_boundary


def _check_region(ctx: Context, kind, d, k, rb, svg, csv, payload, tally: Tally) -> None:
    """Golden bytes where they exist; elsewhere the three formats agree."""
    if (kind, d, k) in ctx.golden_svg:
        if svg.encode() != ctx.golden_svg[kind, d, k]:
            tally.fail(f"region svg {kind} d={d} k={k} differs from golden")
        return
    n_arc = sum(len(arc.samples) for arc in rb.arcs)
    ok = (
        svg.count('class="vertex"') == len(rb.vertices)
        and csv.count("\n") == 1 + len(rb.vertices) + n_arc
        and len(payload["vertices"]) == len(rb.vertices)
        and json.loads(json.dumps(payload)) == payload
    )
    if not ok:
        tally.fail(f"region {kind} d={d} k={k} inconsistent")


def _draw(rng: np.random.Generator, keep) -> tuple:
    """An operation of the mix, drawn by its weight among those ``keep`` accepts."""
    idx = [i for i, op in enumerate(QUERY_OPS) if keep(op)]
    p = QUERY_P[idx] / QUERY_P[idx].sum()
    return QUERY_OPS[idx[rng.choice(len(idx), p=p)]]


def cli_argv(rng: np.random.Generator, command: str) -> list[str]:
    """Arguments of one CLI call of a recorded kind ("region svg",
    "classify-state --exact", ...).  A classify call takes its point like a
    request of the matching profile; a region or conic call takes its (d, k)
    from the mix's regions.  File output goes to a name the caller fills in."""
    name, *rest = command.split()
    exact = "--exact" in rest
    if name.startswith("classify"):
        func = "k_positivity_max" if name == "classify-map" else "schmidt_number"
        _, _, _, d, boundary = _draw(rng, lambda op: op[0] == "request" and op[1] == func)
        req = make_request(rng, func, "exact" if exact else "float", d, boundary)
        flags = ("--p", "--q") if name == "classify-map" else ("--a", "--b")
        return [name, "--d", str(d), flags[0], str(req.x), flags[1], str(req.y), *rest]
    dual = "--dual" in rest
    _, kind, d, k = _draw(rng, lambda op: op[0] == "emit"
                          and (not dual or geometry.region_case(op[2], op[3]) == 3))
    if name == "conic":
        return ["conic", "--d", str(d), "--k", str(k), *rest]
    fmt = rest[0] if rest else "json"
    argv = ["region", kind, "--d", str(d), "--k", str(k), "--format", fmt]
    return argv if fmt == "json" else argv + ["--out", f"{{out}}.{fmt}"]


def _call_cli(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _out_path(argv) -> Path | None:
    return Path(argv[argv.index("--out") + 1]) if "--out" in argv else None


def _expected_cli(ctx: Context, argv) -> tuple[dict, bytes | None]:
    """The answer of a CLI call, computed in process through the API."""
    name = argv[0]
    if name.startswith("classify"):
        d, exact = int(argv[2]), "--exact" in argv
        x, y = (Fraction(argv[i]) if exact else float(Fraction(argv[i])) for i in (4, 6))
        if name == "classify-map":
            res = classify.k_positivity_max(d, x, y)
            head = {"max_k": res.max_k}
        else:
            res = classify.schmidt_number(d, x, y)
            sn = res.schmidt_number if res.is_state else "not_a_state"
            head = {"schmidt_number": sn, "boundary": res.boundary}
        return {**head, "per_k": [{"status": s} for s in _statuses(res)]}, None
    d, k = int(argv[argv.index("--d") + 1]), int(argv[argv.index("--k") + 1])
    if name == "conic":
        dual = "--dual" in argv
        conic = geometry.dual_conic(d, k, exact=True) if dual else geometry.kpos_conic(d, k, exact=True)
        return {"coefficients": [int(c) for c in conic.coefficients()]}, None
    kind, fmt = argv[1], argv[argv.index("--format") + 1]
    rb = _boundary(kind)(d, k)
    if fmt == "json":
        return json.loads(json.dumps(geometry.region_payload(rb, kind=kind, d=d, k=k), sort_keys=True)), None
    if fmt == "svg":
        return {"format": fmt}, ctx.golden_svg.get((kind, d, k)) or geometry.region_svg(rb).encode()
    return {"format": fmt}, geometry.region_csv(rb).encode()


def _matches(expected: dict, got: dict) -> bool:
    """Every key of ``expected`` is in ``got`` with that value; per-k
    entries are compared on their own keys."""
    for key, want in expected.items():
        have = got.get(key)
        if key == "per_k":
            if len(have or ()) != len(want) or any(h.get("status") != w["status"] for h, w in zip(have, want)):
                return False
        elif have != want:
            return False
    return True


def check_cli(ctx: Context, argv, code: int, stdout: str, written: bytes | None, tally: Tally) -> None:
    """A CLI answer matches the in-process API, file output included."""
    if code != 0:
        tally.fail(f"cli {argv}: exit {code}")
        return
    expected, content = _expected_cli(ctx, argv)
    try:
        ok = _matches(expected, json.loads(stdout)) and written == content
    except ValueError:
        ok = False
    if not ok:
        tally.fail(f"cli {argv}: {stdout.strip()[:200]}")


def _cli_call(ctx: Context, argv, tally: Tally, lat: list) -> bool:
    """One timed ``cli.main`` call; False when it raised and was not timed."""
    out = _out_path(argv)
    if out is not None:
        out.unlink(missing_ok=True)  # a stale file must not pass the check
    t0 = time.perf_counter()
    try:
        code, text = _call_cli(argv)
    except Exception as e:
        tally.fail(f"cli {argv}: {e!r}")
        return False
    lat.append(time.perf_counter() - t0)
    with ctx.quiet():
        written = out.read_bytes() if out is not None and out.exists() else None
        check_cli(ctx, argv, code, text, written, tally)
    return True


def _fill_out(argv, path: Path) -> list[str]:
    return [a.format(out=path) if a.startswith("{out}") else a for a in argv]


def query_step(ctx: Context, seed: int, rep: int, part: int, tally: Tally, out: dict) -> None:
    """One batch of operations drawn from the query mix."""
    for key in ("float", "exact", "grid", "emit", "cli"):
        out.setdefault(key, [])
        out.setdefault(key + "_cell", [])  # the mix's operation of each sample
    rng = _rng(seed, _QUERY, rep)
    for n, (kind, *op) in enumerate(query_ops(seed, rep)):
        tally.op()
        if kind == "request":
            (req,) = op
            fn, args = getattr(classify, req.func), req.args()
            t0 = time.perf_counter()
            try:
                res = fn(*args)
            except Exception as e:
                tally.fail(f"{req}: {e!r}")
                continue
            out[req.mode].append(time.perf_counter() - t0)
            out[req.mode + "_cell"].append((req.func, req.mode, req.d, req.vertex_k is not None))
            with ctx.quiet():
                check_request(req, res, tally)
        elif kind == "grid":
            func, d, k, P, Q = op
            t0 = time.perf_counter()
            try:
                margins = getattr(classify, func)(d, k, P, Q)
            except Exception as e:
                tally.fail(f"{func} d={d} k={k}: {e!r}")
                continue
            out["grid"].append(time.perf_counter() - t0)
            out["grid_cell"].append((func, d, k, P.size))
            with ctx.quiet():
                _check_margin_grid(rng, func, d, k, P, Q, margins, tally)
        elif kind == "emit":
            region, d, k = op
            t0 = time.perf_counter()
            try:
                rb = _boundary(region)(d, k)
                svg = geometry.region_svg(rb)
                csv = geometry.region_csv(rb)
                payload = geometry.region_payload(rb, kind=region, d=d, k=k)
            except Exception as e:
                tally.fail(f"region {region} d={d} k={k}: {e!r}")
                continue
            out["emit"].append(time.perf_counter() - t0)
            out["emit_cell"].append((region, d, k))
            with ctx.quiet():
                _check_region(ctx, region, d, k, rb, svg, csv, payload, tally)
        else:
            command, argv = op
            if _cli_call(ctx, _fill_out(argv, ctx.tmp / f"q{rep}_{n}"), tally, out["cli"]):
                out["cli_cell"].append((command,))


# ---------------------------------------------------------------------------
# cold: fresh-interpreter CLI starts
# ---------------------------------------------------------------------------


def cold_argv(seed: int, rep: int, tmp: Path) -> list[str]:
    """A CLI call drawn from the mix's CLI calls."""
    rng = _rng(seed, _COLD, rep)
    _, command = _draw(rng, lambda op: op[0] == "cli")
    return _fill_out(cli_argv(rng, command), tmp / f"cold{rep}")


def cold_step(ctx: Context, seed: int, rep: int, part: int, tally: Tally, out: dict) -> None:
    """One CLI cold start; its answer must match the in-process API."""
    argv = cold_argv(seed, rep, ctx.tmp)
    path = _out_path(argv)
    if path is not None:
        path.unlink(missing_ok=True)
    tally.op()
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "schmidt_cone.cli", *argv],
            env=ctx.env, cwd=ctx.root, capture_output=True, text=True, timeout=60,
        )
    except subprocess.TimeoutExpired:
        tally.fail(f"cold {argv}: timed out")
        return
    out.setdefault("seconds", []).append(time.perf_counter() - t0)
    with ctx.quiet():
        written = path.read_bytes() if path is not None and path.exists() else None
        check_cli(ctx, argv, proc.returncode, proc.stdout, written, tally)


STEPS = {"setup": setup_step, "grid": grid_step, "suites": suites_step,
         "query": query_step, "cold": cold_step}


def run_steps(ctx: Context, seed: int, steps, tally: Tally, samples: dict, wall: dict) -> None:
    """Run steps in order, adding to per-phase samples and wall seconds."""
    for phase, rep, part in steps:
        t0 = time.perf_counter()
        STEPS[phase](ctx, seed, rep, part, tally, samples.setdefault(phase, {}))
        wall[phase] = wall.get(phase, 0.0) + time.perf_counter() - t0
