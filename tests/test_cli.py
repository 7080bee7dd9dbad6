import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import schmidt_cone
from schmidt_cone.cli import main

GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_classify_map_transpose(capsys):
    code, out = run_cli(capsys, "classify-map", "--d", "4", "--p", "0", "--q", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["max_k"] == 1
    assert payload["mode"] == "float"


def test_classify_map_identity(capsys):
    code, out = run_cli(capsys, "classify-map", "--d", "4", "--p", "1", "--q", "0")
    assert code == 0
    assert json.loads(out)["max_k"] == 4


def test_classify_map_exact_boundary(capsys):
    code, out = run_cli(capsys, "classify-map", "--d", "4", "--p", "-1/11", "--q", "0", "--exact")
    assert code == 0
    payload = json.loads(out)
    assert payload["mode"] == "exact"
    assert payload["max_k"] == 3
    assert payload["per_k"][2] == {"k": 3, "margin": "0", "status": "boundary"}


def test_classify_state_basic(capsys):
    code, out = run_cli(capsys, "classify-state", "--d", "4", "--a", "0", "--b", "0")
    assert code == 0
    assert json.loads(out)["schmidt_number"] == 1
    code, out = run_cli(capsys, "classify-state", "--d", "4", "--a", "1", "--b", "0")
    assert json.loads(out)["schmidt_number"] == 4


def test_classify_state_not_a_state(capsys):
    code, out = run_cli(capsys, "classify-state", "--d", "4", "--a", "2", "--b", "0")
    assert code == 0
    assert json.loads(out)["schmidt_number"] == "not_a_state"


def test_classify_state_matches_witness_search(capsys):
    code, out = run_cli(capsys, "classify-state", "--d", "6", "--a", "0.4", "--b", "-0.12")
    sn = json.loads(out)["schmidt_number"]
    assert 1 <= sn <= 6
    code, out = run_cli(
        capsys, "witness", "--d", "6", "--a", "0.4", "--b", "-0.12", "--k", str(sn - 1)
    )
    assert json.loads(out)["found"] is True
    code, out = run_cli(
        capsys, "witness", "--d", "6", "--a", "0.4", "--b", "-0.12", "--k", str(sn)
    )
    assert json.loads(out)["found"] is False


def test_region_json_piece_counts(capsys):
    code, out = run_cli(capsys, "region", "map", "--d", "4", "--k", "4")
    payload = json.loads(out)
    assert len(payload["vertices"]) == 3 and payload["arcs"] == []
    code, out = run_cli(capsys, "region", "state", "--d", "3", "--k", "1")
    payload = json.loads(out)
    assert len(payload["vertices"]) == 4 and payload["arcs"] == []


def test_region_csv_rhombus_matches_golden(capsys, tmp_path):
    out_file = tmp_path / "s1.csv"
    code, out = run_cli(
        capsys, "region", "state", "--d", "3", "--k", "1", "--format", "csv", "--out", str(out_file)
    )
    assert code == 0
    rows = out_file.read_text().strip().splitlines()
    assert rows[0] == "kind,index,x,y"
    assert len(rows) == 5  # header + 4 vertices
    assert out_file.read_bytes() == (GOLDEN / "state_d3_k1.csv").read_bytes()


def test_region_json_matches_golden(capsys):
    code, out = run_cli(capsys, "region", "map", "--d", "4", "--k", "3", "--samples", "16")
    assert code == 0
    assert out == (GOLDEN / "map_d4_k3.json").read_text()


def test_region_svg_requires_out(capsys):
    for fmt in ("svg", "csv"):
        code = main(["region", "map", "--d", "4", "--k", "3", "--format", fmt])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: --out is required for csv/svg output\n"


@pytest.mark.parametrize("kind", ["map", "state"])
@pytest.mark.parametrize("d", [3, 4])
def test_region_svg_matches_golden(capsys, tmp_path, kind, d):
    for k in range(1, d + 1):
        out_file = tmp_path / f"{kind}_d{d}_k{k}.svg"
        code, _ = run_cli(
            capsys, "region", kind, "--d", str(d), "--k", str(k),
            "--format", "svg", "--out", str(out_file),
        )
        assert code == 0
        golden = (GOLDEN / f"{kind}_d{d}_k{k}.svg").read_bytes()
        assert out_file.read_bytes() == golden


def test_region_svg_style_override(capsys, tmp_path):
    style = tmp_path / "style.cfg"
    style.write_text("edge.stroke=#00ff00\n")
    out_file = tmp_path / "styled.svg"
    code, _ = run_cli(
        capsys, "region", "map", "--d", "3", "--k", "1",
        "--format", "svg", "--out", str(out_file), "--style", str(style),
    )
    assert code == 0
    text = out_file.read_text()
    assert "#00ff00" in text and 'class="arc"' not in text


@pytest.mark.parametrize(
    "line, message",
    [
        ("edge.strok=#f00", "unknown style key(s) 'edge.strok'"),
        ("nonsense line", "line 2: expected key=value, got 'nonsense line'"),
    ],
)
def test_a_bad_style_line_or_key_is_a_usage_error(capsys, tmp_path, line, message):
    # either used to exit 0, the line or key silently ignored
    style = tmp_path / "style.cfg"
    style.write_text(f"# comment\n{line}\n\nedge.stroke=#00ff00\n")
    out_file = tmp_path / "styled.svg"
    argv = ["region", "map", "--d", "3", "--k", "2", "--format", "svg", "--out", str(out_file)]
    assert main([*argv, "--style", str(style)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ") and message in captured.err
    assert not out_file.exists()


def test_a_style_value_cannot_leave_its_attribute(capsys, tmp_path):
    style = tmp_path / "style.cfg"
    style.write_text('edge.stroke=" onload="alert(1)\n')
    out_file = tmp_path / "styled.svg"
    code, _ = run_cli(
        capsys, "region", "map", "--d", "3", "--k", "2",
        "--format", "svg", "--out", str(out_file), "--style", str(style),
    )
    assert code == 0
    text = out_file.read_text()
    assert 'stroke="&quot; onload=&quot;alert(1)"' in text and 'onload="' not in text


@pytest.mark.parametrize("fmt, bad", [("svg", "out"), ("csv", "out"), ("svg", "style")])
def test_a_bad_out_or_style_path_is_a_usage_error(capsys, tmp_path, fmt, bad):
    # either used to end in a traceback and exit 1
    missing = tmp_path / "missing" / "x"
    argv = ["region", "map", "--d", "4", "--k", "3", "--format", fmt]
    if bad == "out":
        argv += ["--out", str(missing)]
    else:
        argv += ["--out", str(tmp_path / "p.svg"), "--style", str(missing)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and str(missing) in captured.err


@pytest.mark.parametrize(
    "fmt, flags, message",
    [
        ("json", ["--out"], "--out does not apply to json output"),
        ("json", ["--style"], "--style does not apply to json output"),
        ("csv", ["--out", "--style"], "--style does not apply to csv output"),
    ],
)
def test_a_region_flag_its_format_ignores_is_a_usage_error(capsys, tmp_path, fmt, flags, message):
    # json with --out used to print and write nothing, csv with --style to exit 0
    style = tmp_path / "style.cfg"
    style.write_text("edge.stroke=#00ff00\n")
    out_file = tmp_path / f"r.{fmt}"
    argv = ["region", "map", "--d", "3", "--k", "2", "--format", fmt]
    argv += [arg for flag in flags for arg in (flag, str(out_file if flag == "--out" else style))]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"
    assert not out_file.exists()


def test_cli_byte_identical_across_runs(capsys):
    _, out1 = run_cli(capsys, "classify-state", "--d", "5", "--a", "0.3", "--b", "-0.1")
    _, out2 = run_cli(capsys, "classify-state", "--d", "5", "--a", "0.3", "--b", "-0.1")
    assert out1 == out2
    _, w1 = run_cli(capsys, "witness", "--d", "5", "--a", "0.9", "--b", "0", "--k", "2")
    _, w2 = run_cli(capsys, "witness", "--d", "5", "--a", "0.9", "--b", "0", "--k", "2")
    assert w1 == w2


@pytest.mark.parametrize("exact", [[], ["--exact"]])
@pytest.mark.parametrize(
    "command, x, y",
    [("classify-map", ("--p", "1/3"), ("--q", "-1/11")), ("classify-state", ("--a", "0.3"), ("--b", "-1/7"))],
)
def test_classify_answers_the_same_bytes_whatever_the_flag_order(capsys, command, x, y, exact):
    usual = run_cli(capsys, command, "--d", "5", *x, *y, *exact)
    assert usual[0] == 0
    assert run_cli(capsys, command, *exact, *y, *x, "--d", "5") == usual


def test_conic_remark_classifications(capsys):
    _, out = run_cli(capsys, "conic", "--d", "5", "--k", "3")
    assert json.loads(out)["classification"] == "hyperbola"
    _, out = run_cli(capsys, "conic", "--d", "5", "--k", "4")
    assert json.loads(out)["classification"] == "ellipse"


@pytest.mark.parametrize("dual", [[], ["--dual"]])
def test_conic_matches_golden(capsys, dual):
    code, out = run_cli(capsys, "conic", "--d", "5", "--k", "3", *dual)
    assert code == 0
    name = "conic_d5_k3_dual.json" if dual else "conic_d5_k3.json"
    assert out.encode() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize(
    "golden, command",
    [
        ("classify_map_d4_exact.json", "classify-map --d 4 --p -1/11 --q 0 --exact"),
        ("classify_map_d5_float.json", "classify-map --d 5 --p -0.1 --q 0.3"),
        ("classify_state_d6_float.json", "classify-state --d 6 --a 0.4 --b -0.12"),
        ("classify_state_d5_exact.json", "classify-state --d 5 --a 3/10 --b -1/10 --exact"),
    ],
)
def test_classify_matches_golden(capsys, golden, command):
    # inside, boundary and outside verdicts in both modes, byte for byte
    code, out = run_cli(capsys, *command.split())
    assert code == 0
    assert out.encode() == (GOLDEN / golden).read_bytes()


def test_verify_witness_matches_golden(capsys):
    # the witness suite's report, its pairing table evaluated in blocks, byte for byte
    code, out = run_cli(capsys, "verify", "--suite", "witness", "--d", "4", "--grid", "40")
    assert code == 0
    assert out.encode() == (GOLDEN / "verify_witness_d4.json").read_bytes()


def test_witness_matches_golden(capsys):
    # a found witness of the invariant state, its pairing printed to the last digit
    code, out = run_cli(capsys, "witness", "--d", "5", "--a", "2/5", "--b", "-1/10", "--k", "2")
    assert code == 0
    assert out.encode() == (GOLDEN / "witness_d5_k2.json").read_bytes()


@pytest.mark.parametrize("dual", [[], ["--dual"]])
@pytest.mark.parametrize("k", ["-1", "0", "5"])
def test_conic_refuses_k_outside_1_to_d(capsys, k, dual):
    # conic --d 4 --k 0 used to print a hyperbola and exit 0
    assert main(["conic", "--d", "4", "--k", k, *dual]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: k={k} out of range 1..4\n"


def test_conic_dual_payload(capsys):
    _, out = run_cli(capsys, "conic", "--d", "4", "--k", "3", "--dual")
    payload = json.loads(out)
    assert payload["classification"] == "ellipse"
    A, B, C, D, E, F = payload["coefficients"]
    for xs, ys in payload["tangency_points"]:
        x, y = Fraction(xs), Fraction(ys)
        assert A * x * x + B * x * y + C * y * y + D * x + E * y + F == 0
    assert len(payload["tangent_lines"]) == 5


def test_verify_frames_suite(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "frames", "--d", "7", "--seed", "1")
    assert code == 0
    rep = json.loads(out)["reports"]["frames"]
    assert rep["verdict"] == "consistent"
    minima = rep["details"]["minima"]
    for k in range(1, 8):
        assert abs(minima[str(k)] - max(2 * k - 7, 0)) < 1e-6


def test_verify_twirl_suite(capsys):
    code, out = run_cli(
        capsys, "verify", "--suite", "twirl", "--d", "3", "--seed", "1", "--samples", "50000"
    )
    assert code == 0
    rep = json.loads(out)["reports"]["twirl"]
    assert rep["verdict"] == "consistent"
    assert rep["details"]["max_frobenius_error"] <= 1e-2


def test_verify_tomiyama_suite_small(capsys):
    code, out = run_cli(
        capsys, "verify", "--suite", "tomiyama", "--d", "3", "--seed", "1",
        "--grid", "30", "--frames", "30", "--workers", "1",
    )
    assert code == 0
    rep = json.loads(out)["reports"]["tomiyama"]
    assert rep["verdict"] == "consistent"
    assert rep["details"]["disagreements"] == 0


def test_verify_output_is_strict_json(capsys):
    # the one grid point is outside every region, so no interior margin is
    # measured; that used to print "worst_margin": Infinity
    code, out = run_cli(capsys, "verify", "--suite", "tomiyama", "--d", "3", "--grid", "1",
                        "--workers", "1")

    def refuse(constant):
        raise ValueError(f"not strict JSON: {constant}")

    payload = json.loads(out, parse_constant=refuse)
    assert code == 0
    assert payload["reports"]["tomiyama"]["worst_margin"] is None


def test_verify_witness_and_duality_suites(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "witness", "--d", "4", "--grid", "50")
    assert code == 0
    assert json.loads(out)["reports"]["witness"]["verdict"] == "consistent"
    code, out = run_cli(capsys, "verify", "--suite", "duality", "--d", "3", "--seed", "2")
    assert code == 0
    assert json.loads(out)["reports"]["duality"]["verdict"] == "consistent"


def test_verify_witness_runs_the_grid_it_is_given(capsys):
    # a grid above 100 used to be cut to 100
    code, out = run_cli(capsys, "verify", "--suite", "witness", "--d", "3", "--grid", "150")
    assert code == 0
    report = json.loads(out)["reports"]["witness"]
    assert report["verdict"] == "consistent" and report["details"]["grid"] == 150


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["classify-map", "--d", "4", "--p", "zzz", "--q", "0"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["region", "map", "--d", "4"])
    assert exc.value.code == 2


def test_internal_error_exit_code(capsys):
    # arguments outside the domain are usage errors, not internal failures
    assert main(["classify-map", "--d", "1", "--p", "0", "--q", "0"]) == 2
    assert capsys.readouterr().err == "error: d must be >= 2\n"
    assert main(["region", "map", "--d", "4", "--k", "5"]) == 2
    assert capsys.readouterr().err == "error: k=5 out of range 1..4\n"
    assert main(["region", "map", "--d", "4", "--k", "3", "--samples", "1"]) == 2
    assert capsys.readouterr().err == "error: arc_samples must be >= 2, got 1\n"


@pytest.mark.parametrize("kind", ["map", "state"])
@pytest.mark.parametrize("samples", ["-5", "0", "1"])
def test_region_refuses_fewer_than_two_samples_at_every_k(capsys, kind, samples):
    # refused in every case, not only where there is an arc to sample
    for k in range(1, 5):
        assert main(["region", kind, "--d", "4", "--k", str(k), "--samples", samples]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: arc_samples must be >= 2, got {samples}\n"


def test_scalar_outside_the_float_range_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify-map", "--d", "4", "--p", "1e400", "--q", "0"])
    assert exc.value.code == 2
    assert capsys.readouterr().err == "error: scalar '1e400' is outside the float range\n"
    # exact rationals have no range to leave
    code, out = run_cli(capsys, "classify-map", "--d", "4", "--p", "1e400", "--q", "0", "--exact")
    assert code == 0 and json.loads(out)["max_k"] == 0


@pytest.mark.parametrize(
    "argv, err",
    [
        pytest.param(["classify-map", "--d", "4", "--p", "5", "--q", "5", "--tol", "nan"],
                     "error: non-finite input nan\n", id="map-nan"),
        pytest.param(["classify-map", "--d", "4", "--p", "5", "--q", "5", "--tol", "inf"],
                     "error: non-finite input inf\n", id="map-inf"),
        pytest.param(["classify-state", "--d", "4", "--a", "5", "--b", "5", "--tol", "-100"],
                     "error: negative tolerance -100.0\n", id="state-negative"),
        pytest.param(["classify-state", "--d", "4", "--a", "1/5", "--b", "0", "--exact", "--tol", "nan"],
                     "error: non-finite input nan\n", id="state-exact-nan"),
    ],
)
def test_bad_tolerance_is_a_usage_error(capsys, argv, err):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == err


@pytest.mark.parametrize(
    "argv, err",
    [
        pytest.param(["witness", "--d", "4", "--a", "0.3", "--b", "0", "--k", "3", "--arc-samples", "0"],
                     "error: arc_samples must be >= 2, got 0\n", id="witness-no-arc-samples"),
        pytest.param(["verify", "--suite", "tomiyama", "--d", "3", "--grid", "5", "--frames", "0"],
                     "error: n_random must be >= 1, got 0\n", id="tomiyama-no-frames"),
        pytest.param(["verify", "--suite", "tomiyama", "--d", "3", "--grid", "5", "--workers", "0"],
                     "error: workers must be >= 1, got 0\n", id="tomiyama-no-workers"),
        pytest.param(["verify", "--suite", "tomiyama", "--d", "3", "--grid", "0", "--workers", "1"],
                     "error: grid_n must be >= 1, got 0\n", id="tomiyama-no-grid"),
        pytest.param(["verify", "--suite", "witness", "--d", "3", "--grid", "0"],
                     "error: grid_n must be >= 1, got 0\n", id="witness-no-grid"),
        pytest.param(["verify", "--suite", "tomiyama", "--d", "0", "--grid", "3", "--frames", "2", "--workers", "1"],
                     "error: d must be >= 2\n", id="tomiyama-d0"),
        pytest.param(["verify", "--suite", "tomiyama", "--d", "-3", "--grid", "3", "--frames", "2", "--workers", "1"],
                     "error: d must be >= 2\n", id="tomiyama-d-negative"),
    ],
)
def test_vacuous_verification_is_a_usage_error(capsys, argv, err):
    # each of these used to answer (found: false, consistent) without testing
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == err


@pytest.mark.parametrize("suite", ["tomiyama", "frames", "twirl", "duality"])
def test_a_negative_seed_is_a_usage_error_that_names_the_seed(capsys, suite):
    # numpy's own refusal, "expected non-negative integer", named no argument
    argv = ["verify", "--suite", suite, "--d", "3", "--seed", "-1", "--grid", "3", "--frames", "2",
            "--workers", "1", "--samples", "10"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: seed must be >= 0, got -1\n"


def test_verify_with_every_suite_skipped_is_a_usage_error(capsys):
    # the duality suite only runs up to d = 4; alone it used to report {} and exit 0
    assert main(["verify", "--suite", "duality", "--d", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1].startswith("error: ")


@pytest.mark.parametrize("grid", ["1", "2"])
def test_a_witness_grid_that_checks_no_point_is_a_usage_error(capsys, grid):
    # it used to exit 0 with a consistent report of 0 samples
    assert main(["verify", "--suite", "witness", "--d", "3", "--grid", grid]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: grid_n={grid} leaves no point to check\n"


def test_verify_all_still_skips_duality_above_desk_scale(capsys):
    argv = ["verify", "--suite", "all", "--d", "5", "--grid", "3", "--frames", "2", "--samples", "200", "--workers", "1"]
    code = main(argv)
    captured = capsys.readouterr()
    assert code != 2
    assert captured.err == "skipping duality suite: d=5 above desk scale\n"
    assert sorted(json.loads(captured.out)["reports"]) == ["frames", "tomiyama", "twirl", "witness"]


@pytest.mark.parametrize("suite", ["frames", "duality"])
def test_verify_rejects_d_below_2(capsys, suite):
    assert main(["verify", "--suite", suite, "--d", "1"]) == 2
    assert capsys.readouterr().err == "error: d must be >= 2\n"


def test_verification_and_arithmetic_failures_exit_3(capsys, monkeypatch):
    from schmidt_cone import classify, oracles

    def inconsistent(d, **kwargs):
        return oracles.OracleReport(witness={"k": 1}, samples=d)

    monkeypatch.setattr(oracles, "frame_minima_check", inconsistent)
    assert main(["verify", "--suite", "frames", "--d", "3"]) == 3
    assert json.loads(capsys.readouterr().out)["reports"]["frames"]["verdict"] == "violated"

    def overflow(*args, **kwargs):
        raise OverflowError("result too large")

    monkeypatch.setattr(classify, "k_positivity_max", overflow)
    assert main(["classify-map", "--d", "4", "--p", "0", "--q", "0"]) == 3
    assert capsys.readouterr().err == "error: result too large\n"


# Runs each argv list through cli.main in one fresh interpreter and prints,
# as JSON, each call's exit code, stdout, stderr and written file, then the
# modules of the verification layer (and numpy) that the calls loaded.
_FRESH_PROCESS = """
import contextlib, io, json, os, sys
import schmidt_cone, schmidt_cone.cli
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = schmidt_cone.cli.main(argv)
        except SystemExit as e:
            code = e.code
    path = argv[argv.index("--out") + 1] if "--out" in argv else None
    written = open(path).read() if path and os.path.exists(path) else None
    if written is not None:
        os.remove(path)
    results.append([code, out.getvalue(), err.getvalue(), written])
heavy = ["numpy", "schmidt_cone.oracles", "schmidt_cone.symmetry", "schmidt_cone.linalg",
         "concurrent.futures.process", "dataclasses", "inspect"]
print(json.dumps({"results": results, "loaded": [m for m in heavy if m in sys.modules]}))
"""


def _fresh_process(calls):
    src = str(Path(schmidt_cone.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", _FRESH_PROCESS, json.dumps(calls)],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    return json.loads(proc.stdout)


def test_the_engine_commands_load_neither_numpy_nor_the_oracles(tmp_path):
    region = ["region", "state", "--d", "5", "--k", "3", "--samples", "8"]
    calls = [
        ["classify-map", "--d", "5", "--p", "-0.1", "--q", "0.3"],
        ["classify-map", "--d", "5", "--p", "-1/11", "--q", "3/10", "--exact"],
        ["classify-state", "--d", "5", "--a", "0.3", "--b", "-0.1"],
        ["classify-state", "--d", "5", "--a", "3/10", "--b", "-1/10", "--exact"],
        region,
        [*region, "--format", "csv", "--out", str(tmp_path / "r.csv")],
        [*region, "--format", "svg", "--out", str(tmp_path / "r.svg")],
        ["conic", "--d", "5", "--k", "3"],
        ["conic", "--d", "5", "--k", "3", "--dual"],
    ]
    run = _fresh_process(calls)
    assert [r[0] for r in run["results"]] == [0] * len(calls)
    assert all(r[1] and not r[2] for r in run["results"])
    assert run["loaded"] == []


def test_a_reused_parser_answers_each_call_as_if_run_alone(tmp_path):
    style = tmp_path / "style.cfg"
    style.write_text("edge.stroke=#00ff00\n")
    svg = ["region", "map", "--d", "3", "--k", "2", "--format", "svg", "--out", str(tmp_path / "r.svg")]
    calls = [
        ["region", "map", "--d", "4"],  # --k missing: argparse exits 2
        ["classify-map", "--d", "4", "--p", "-1/11", "--q", "0", "--exact"],
        ["classify-map", "--d", "4", "--p", "-1/11", "--q", "0"],
        [*svg, "--style", str(style)],
        svg,
    ]
    together = _fresh_process(calls)["results"]
    alone = [_fresh_process([argv])["results"][0] for argv in calls]
    assert together == alone
    assert together[0][0] == 2 and together[0][2].startswith("usage: ")
    assert together[1][1] != together[2][1]
    assert "#00ff00" in together[3][3] and "#00ff00" not in together[4][3]
