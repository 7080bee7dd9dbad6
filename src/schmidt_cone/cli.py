"""Command-line surface: classification, region emission, verification, witnesses.

JSON answers go to stdout, diagnostics to stderr.  Exit codes: 0 for a
well-formed answered query (including domain answers such as not_a_state),
2 for usage errors (an unreadable or malformed --style, a style key outside
geometry.DEFAULT_SVG_STYLE, an unwritable --out, and an --out or --style
that the chosen region format would ignore included),
3 for internal failures or verification inconsistencies.
Scalars parse as decimals or rationals "n/m"; with --exact they are kept as
exact rationals and decisions are exact.  Only verify and witness load numpy
and the oracles; the other commands run on the engine alone.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import cache

from . import classify, geometry

__all__ = ["main"]


def _parse_scalar(text: str, exact: bool):
    try:
        val = Fraction(text)
    except (ValueError, ZeroDivisionError) as e:
        sys.stderr.write(f"error: cannot parse scalar {text!r} (decimal or n/m expected)\n")
        raise SystemExit(2) from e
    if exact:
        return val
    try:
        return float(val)
    except OverflowError as e:
        sys.stderr.write(f"error: scalar {text!r} is outside the float range\n")
        raise SystemExit(2) from e


def _num(v):
    return str(v) if isinstance(v, Fraction) else float(v)


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")


def _cmd_classify(args) -> int:
    x, y = (_parse_scalar(getattr(args, name), args.exact) for name in args.point)
    head = dict(zip(args.point, (_num(x), _num(y))))
    if args.command == "classify-map":
        prof = classify.k_positivity_max(args.d, x, y, tol=args.tol)
        head["max_k"] = prof.max_k
    else:
        prof = classify.schmidt_number(args.d, x, y, tol=args.tol)
        head["schmidt_number"] = prof.schmidt_number if prof.is_state else "not_a_state"
        head["boundary"] = prof.boundary
    per_k = [{"k": k, "status": v.status, "margin": _num(v.margin)} for k, v in enumerate(prof.per_k, start=1)]
    _emit({"d": args.d, **head, "per_k": per_k, "mode": "exact" if args.exact else "float"})
    return 0


def _load_style(path: str) -> dict:
    """The key=value lines of a style file; blank lines and # comments are skipped."""
    with open(path) as fh:
        text = fh.read()
    style = {}
    for n, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise ValueError(f"{path}, line {n}: expected key=value, got {line!r}")
        style[key.strip()] = value.strip()
    return style


def _cmd_region(args) -> int:
    for flag, formats in (("out", ("json",)), ("style", ("json", "csv"))):
        if getattr(args, flag) is not None and args.format in formats:
            sys.stderr.write(f"error: --{flag} does not apply to {args.format} output\n")
            return 2
    if args.kind == "map":
        rb = geometry.map_region_boundary(args.d, args.k, arc_samples=args.samples)
    else:
        rb = geometry.state_region_boundary(args.d, args.k, arc_samples=args.samples)
    if args.format == "json":
        _emit(geometry.region_payload(rb, kind=args.kind, d=args.d, k=args.k))
        return 0
    if args.out is None:
        sys.stderr.write("error: --out is required for csv/svg output\n")
        return 2
    if args.format == "csv":
        content = geometry.region_csv(rb)
    else:
        content = geometry.region_svg(rb, None if args.style is None else _load_style(args.style))
    with open(args.out, "w") as fh:
        fh.write(content)
    _emit(
        {
            "written": args.out,
            "format": args.format,
            "segments": max(len(rb.vertices) - 1, 0) + (0 if rb.arcs else 1),
            "arcs": len(rb.arcs),
        }
    )
    return 0


# suite name -> its run, given the oracles module and the parsed arguments
_SUITES = {
    "tomiyama": lambda o, a: o.grid_agreement(
        a.d, grid_n=a.grid, n_random=a.frames, seed=a.seed, workers=a.workers
    ),
    "frames": lambda o, a: o.frame_minima_check(a.d, seed=a.seed),
    "twirl": lambda o, a: o.twirl_consistency(a.d, n_samples=a.samples, seed=a.seed),
    "witness": lambda o, a: o.witness_grid_check(a.d, grid_n=a.grid),
    "duality": lambda o, a: o.duality_sanity(a.d, seed=a.seed),
}


def _cmd_verify(args) -> int:
    from . import oracles

    reports = {}
    for name in _SUITES if args.suite == "all" else [args.suite]:
        if name == "duality" and args.d > 4:
            sys.stderr.write(f"skipping duality suite: d={args.d} above desk scale\n")
            continue
        reports[name] = _SUITES[name](oracles, args).to_dict()
    if not reports:
        sys.stderr.write("error: every requested suite was skipped; nothing was verified\n")
        return 2
    _emit({"d": args.d, "seed": args.seed, "reports": reports})
    if any(r["verdict"] != "consistent" for r in reports.values()):
        return 3
    return 0


def _cmd_witness(args) -> int:
    from . import oracles
    from .symmetry import InvariantState

    a = _parse_scalar(args.a, exact=False)
    b = _parse_scalar(args.b, exact=False)
    hit = oracles.witness_violation_search(
        InvariantState(args.d, a, b), args.k, arc_samples=args.arc_samples
    )
    payload = {"found": hit is not None, "d": args.d, "a": a, "b": b, "k": args.k}
    if hit is not None:
        payload.update(zip(("p", "q", "pairing"), hit))
    _emit(payload)
    return 0


def _cmd_conic(args) -> int:
    conic = (geometry.dual_conic if args.dual else geometry.kpos_conic)(args.d, args.k, exact=True)
    payload = {
        "d": args.d,
        "k": args.k,
        "dual": args.dual,
        "coefficients": [int(c) for c in conic.coefficients()],
        "classification": conic.classify(),
    }
    if args.dual:
        pts = geometry.dual_tangency_points(args.d, args.k, exact=True)
        lines = geometry.dual_tangent_lines(args.d, args.k)
        payload["tangency_points"] = [[str(x), str(y)] for x, y in pts]
        payload["tangency_points_float"] = [[float(x), float(y)] for x, y in pts]
        payload["tangent_lines"] = [{"nx": h.nx, "ny": h.ny, "c": h.c} for h in lines]
    _emit(payload)
    return 0


@cache  # built once per process: parse_args keeps no state between calls
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schmidt-cone",
        description="k-positivity and Schmidt numbers under orthogonal symmetry",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, point, text in (
        ("classify-map", "pq", "maximal k-positivity index of the map family"),
        ("classify-state", "ab", "Schmidt number of the state family"),
    ):
        cl = sub.add_parser(name, help=text)
        cl.add_argument("--d", type=int, required=True)
        for flag in point:
            cl.add_argument(f"--{flag}", required=True)
        cl.add_argument("--exact", action="store_true")
        cl.add_argument("--tol", type=float, default=classify.BOUNDARY_TOL)
        cl.set_defaults(func=_cmd_classify, point=point)

    rg = sub.add_parser("region", help="emit a region boundary (json/csv/svg)")
    rg.add_argument("kind", choices=["map", "state"])
    rg.add_argument("--d", type=int, required=True)
    rg.add_argument("--k", type=int, required=True)
    rg.add_argument("--samples", type=int, default=64)
    rg.add_argument("--format", choices=["json", "csv", "svg"], default="json")
    rg.add_argument("--out", default=None)
    rg.add_argument("--style", default=None)
    rg.set_defaults(func=_cmd_region)

    vf = sub.add_parser("verify", help="run oracle verification suites")
    vf.add_argument("--suite", choices=["all", *_SUITES], required=True)
    vf.add_argument("--d", type=int, required=True)
    vf.add_argument("--seed", type=int, default=0)
    vf.add_argument("--grid", type=int, default=200)
    vf.add_argument("--frames", type=int, default=200)
    vf.add_argument("--samples", type=int, default=100_000)
    vf.add_argument("--workers", type=int, default=None)
    vf.set_defaults(func=_cmd_verify)

    wt = sub.add_parser("witness", help="search extreme witnesses against a state")
    wt.add_argument("--d", type=int, required=True)
    wt.add_argument("--a", required=True)
    wt.add_argument("--b", required=True)
    wt.add_argument("--k", type=int, required=True)
    wt.add_argument("--arc-samples", type=int, default=256)
    wt.set_defaults(func=_cmd_witness)

    cn = sub.add_parser("conic", help="inspect region conics")
    cn.add_argument("--d", type=int, required=True)
    cn.add_argument("--k", type=int, required=True)
    cn.add_argument("--dual", action="store_true")
    cn.set_defaults(func=_cmd_conic)
    return parser


_SCALAR_FLAGS = {"--p", "--q", "--a", "--b"}


def _merge_negative_scalars(argv: list[str]) -> list[str]:
    # argparse mistakes values like "-1/11" for option flags; fold them into
    # the preceding --p/--q/--a/--b token
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _SCALAR_FLAGS and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(_merge_negative_scalars(list(argv)))
    try:
        return args.func(args)
    except (ValueError, OSError) as e:  # an argument outside the domain, or a bad path
        sys.stderr.write(f"error: {e}\n")
        return 2
    except (AssertionError, ArithmeticError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 3


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
