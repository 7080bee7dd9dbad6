"""Observe the call mix of the repository's tests; it sets the benchmark's traffic.

    python3 bench/derive_mix.py           # from the repository root, about 4 minutes

Runs the tier-1 test suite (``tests/``) in this process with recording
wrappers on the package's public functions, and records the calls that the
tests make directly, not those made inside the package:

* classifier requests by function, mode (exact or float), d, and whether the
  answer reads ``boundary`` for some k;
* margin grids by function, d, k and points;
* region boundaries by kind, d and k, and their SVG, CSV and JSON emission;
* in-process ``cli.main`` calls by subcommand, format and mode flags;
* the seconds the tests spend directly in each phase of the benchmark.

Writes ``bench/mix.json``, which ``workloads.py`` reads.  Rerun it when the
tests change.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

PROFILE_FUNCS = ("k_positivity_max", "schmidt_number", "k_superpositivity_max",
                 "k_block_positivity_max")
SCALAR_FUNCS = ("is_k_positive", "schmidt_membership")
GRID_FUNCS = ("kpos_margin_grid", "schmidt_margin_grid")
REGION_FUNCS = ("map_region_boundary", "state_region_boundary")
EMIT_FUNCS = ("region_svg", "region_csv", "region_payload")
SUITE_FUNCS = ("twirl_consistency", "frame_minima_check", "witness_grid_check",
               "duality_sanity", "block_positivity_falsifier")


def _phase(mod: str, attr: str) -> str:
    if attr == "grid_agreement":
        return "grid"
    if attr in SUITE_FUNCS:
        return "suites"
    if mod in ("classify", "geometry", "cli"):
        return "query"
    return "other"


def _boundary(result) -> bool:
    per_k = getattr(result, "per_k", None)
    if per_k is None:
        return getattr(result, "status", None) == "boundary"
    return any(v.status == "boundary" for v in per_k)


class Recorder:
    """Counts the calls a test makes directly into the package."""

    def __init__(self):
        self.requests = Counter()  # (func, mode, d, boundary) -> calls
        self.calls = Counter()  # "module.function" -> calls
        self.grids = Counter()  # (func, d, k, points) -> calls
        self.regions = Counter()  # (kind, d, k) -> calls
        self.cli = Counter()  # subcommand and its mode flags -> calls
        self.seconds = Counter()  # phase -> seconds

    def wrap(self, fn, mod: str, attr: str):
        phase = _phase(mod, attr)
        rec = self

        def recorded(*args, **kwargs):
            if sys._getframe(1).f_globals.get("__name__", "").startswith("schmidt_cone"):
                return fn(*args, **kwargs)  # called from inside the package
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.seconds[phase] += time.perf_counter() - t0
            rec.calls[f"{mod}.{attr}"] += 1
            if attr in PROFILE_FUNCS or attr in SCALAR_FUNCS:
                exact = all(isinstance(v, (int, Fraction)) for v in args[1:3])
                key = (attr, "exact" if exact else "float", int(args[0]), _boundary(result))
                rec.requests[key] += 1
            elif attr in GRID_FUNCS:
                rec.grids[attr, int(args[0]), int(args[1]), int(getattr(args[2], "size", 1))] += 1
            elif attr in REGION_FUNCS:
                rec.regions[attr.split("_")[0], int(args[0]), int(args[1])] += 1
            elif mod == "cli":
                argv = list(args[0] if args else kwargs.get("argv") or [])
                fmt = argv[argv.index("--format") + 1] if "--format" in argv[:-1] else None
                flags = [f for f in ("--exact", "--dual") if f in argv]
                rec.cli[" ".join(map(str, argv[:1] + ([fmt] if fmt else []) + flags))] += 1
            return result

        recorded.__wrapped__ = fn
        return recorded


def dump(mix: dict) -> str:
    """JSON with one line per entry and per table row."""
    parts = []
    for key, val in mix.items():
        if isinstance(val, list):
            rows = ",\n  ".join(json.dumps(row) for row in val)
            parts.append(f"{json.dumps(key)}: [\n  {rows}\n ]")
        else:
            parts.append(f"{json.dumps(key)}: {json.dumps(val)}")
    return "{\n " + ",\n ".join(parts) + "\n}\n"


def main() -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import pytest
    import schmidt_cone
    from schmidt_cone import classify, cli, geometry, linalg, oracles, symmetry

    rec = Recorder()
    mods = {"classify": classify, "geometry": geometry, "oracles": oracles, "cli": cli}
    package = [schmidt_cone, linalg, symmetry, *mods.values()]
    attrs = {"classify": PROFILE_FUNCS + SCALAR_FUNCS + GRID_FUNCS,
             "geometry": REGION_FUNCS + EMIT_FUNCS,
             "oracles": ("grid_agreement",) + SUITE_FUNCS, "cli": ("main",)}
    # the tests import these names after this point, so they get the recorders
    for mod_name, names in attrs.items():
        for attr in names:
            orig = getattr(mods[mod_name], attr)
            new = rec.wrap(orig, mod_name, attr)
            for mod in package:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, new)
    t0 = time.perf_counter()
    code = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    wall = time.perf_counter() - t0
    mix = {
        "source": "calls made directly by the tests in tests/, recorded by bench/derive_mix.py",
        "pytest_exit": int(code),
        "wall_s": round(wall, 1),
        "phase_seconds": {k: round(v, 3) for k, v in sorted(rec.seconds.items())},
        "calls": dict(sorted(rec.calls.items())),
        "cli": dict(sorted(rec.cli.items())),
        "requests": [[*key, n] for key, n in sorted(rec.requests.items())],
        "grids": [[*key, n] for key, n in sorted(rec.grids.items())],
        "regions": [[*key, n] for key, n in sorted(rec.regions.items())],
    }
    (BENCH / "mix.json").write_text(dump(mix))
    print(json.dumps({k: mix[k] for k in ("pytest_exit", "wall_s", "phase_seconds", "calls")}))
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
