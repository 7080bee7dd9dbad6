"""Acceptance gate: each criterion at its stated tolerance, one line printed per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the pass lines; the
full protocol took 90 to 104 s on 2 CPUs of an Intel Xeon (Python 3.11.7,
numpy 2.4.6) in a slow spell of a shared machine, most of it the 200x200
frame-compression grid of criterion 2 (77 to 90 s, against 46 to 48 s in a
quiet spell), which parallelizes over SCHMIDT_CONE_THREADS workers.
Criterion 7, forty Monte-Carlo twirls of 100,000 samples, took 10 to 14 s.
"""

import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from schmidt_cone.classify import (
    is_k_positive,
    kpos_margin_grid,
    schmidt_membership,
    schmidt_number,
)
from schmidt_cone.geometry import (
    dual_conic,
    dual_tangency_points,
    dual_tangent_lines,
    kpos_conic,
    map_region_boundary,
    map_region_vertices,
    region_case,
    region_svg,
    state_region_boundary,
    state_region_vertices,
    tangency_discriminant,
)
from schmidt_cone.linalg import pairing
from schmidt_cone.oracles import (
    block_conditions_grid,
    default_workers,
    explicit_overlap_minimum,
    fourier_overlap_exact,
    frame_overlap_minimize,
    grid_agreement,
    witness_grid_check,
)
from schmidt_cone.symmetry import twirl_exact, twirl_monte_carlo

GOLDEN = Path(__file__).parent / "golden"


def _report(n: int, elapsed: float, detail: str = ""):
    print(f"\nACCEPTANCE {n}: PASS ({elapsed:.2f}s) {detail}")


def test_criterion_1_vertex_reproduction_exact():
    t0 = time.perf_counter()
    count = 0
    for d in (3, 4, 5, 6, 8):
        for k in range(1, d + 1):
            for p, q in map_region_vertices(d, k, exact=True):
                assert is_k_positive(d, p, q, k).status == "boundary"
                count += 1
            for a, b in state_region_vertices(d, k, exact=True):
                assert schmidt_membership(d, a, b, k).status == "boundary"
                # vertices of the PSD triangle must still be states
                assert schmidt_number(d, a, b).is_state
                count += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(1, elapsed, f"{count} exact vertices classified as boundary")


def test_criterion_2_classifier_tomiyama_equivalence():
    t0 = time.perf_counter()
    total_checked = 0
    for d in (3, 4, 5, 6):
        rep = grid_agreement(
            d, grid_n=200, n_random=200, seed=20, band=1e-6,
            box=(-0.6, 1.1), workers=default_workers(),
        )
        assert rep.consistent, rep.witness
        assert rep.details["disagreements"] == 0
        total_checked += rep.samples
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    _report(2, elapsed, f"{total_checked} grid points, zero disagreements")


def test_criterion_3_block_condition_rederivation():
    t0 = time.perf_counter()
    axis = np.linspace(-0.6, 1.1, 200)
    P, Q = np.meshgrid(axis, axis, indexing="ij")
    compared = 0
    for d in (3, 4, 5, 6):
        for k in range(2, d):
            margins = kpos_margin_grid(d, k, P, Q)
            ok = block_conditions_grid(d, P, Q, k, 1.0)
            ok &= block_conditions_grid(d, P, Q, k, max(2 * k - d, 0) / k)
            sel = np.abs(margins) > 1e-9
            assert np.array_equal(ok[sel], margins[sel] > 0)
            compared += int(sel.sum())
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(3, elapsed, f"{compared} grid comparisons, zero disagreements")


def test_criterion_4_overlap_minimization():
    t0 = time.perf_counter()
    for d in range(2, 9):
        for k in range(1, d + 1):
            target = max(2 * k - d, 0)
            # exact combinatorial check of the explicit frames
            assert explicit_overlap_minimum(d, k) == target
            if 2 * k > d:
                assert fourier_overlap_exact(d, k) == target
            val, _ = frame_overlap_minimize(d, k, restarts=50, iters=150, seed=4)
            assert val >= target - 1e-9
            assert val <= target + 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _report(4, elapsed, "explicit frames exact, optimizer never beats the floor")


def test_criterion_5_dual_conic_and_remark():
    t0 = time.perf_counter()
    pairs = 0
    for d in range(2, 11):
        for k in range(1, d + 1):
            if region_case(d, k) != 3:
                continue
            conic = dual_conic(d, k, exact=True)
            for x, y in dual_tangency_points(d, k, exact=True):
                assert conic(x, y) == 0
            for line in dual_tangent_lines(d, k):
                assert tangency_discriminant(conic, line) == 0  # exact tangency
                # float-path residual bound as stated
                froots = tangency_discriminant(conic.as_float(), line)
                assert abs(float(froots)) < 1e-8
            assert conic.classify() == "ellipse"
            pairs += 1
    assert kpos_conic(5, 3, exact=True).coefficients() == (14, -32, 4, -13, -3, -1)
    assert kpos_conic(5, 4, exact=True).coefficients() == (19, -2, 4, -18, -3, -1)
    assert kpos_conic(5, 3, exact=True).classify() == "hyperbola"
    assert kpos_conic(5, 4, exact=True).classify() == "ellipse"
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(5, elapsed, f"{pairs} dual conics exact; d=5 matches the displayed polynomial")


def test_criterion_6_witness_duality_grid():
    t0 = time.perf_counter()
    checked = 0
    for d in (4, 5, 6):
        rep = witness_grid_check(d, grid_n=100, arc_samples=256, band=1e-6)
        assert rep.consistent, rep.witness
        checked += rep.samples
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _report(6, elapsed, f"{checked} state-grid memberships matched by witness search")


def test_criterion_7_twirl_consistency():
    t0 = time.perf_counter()
    worst_mc = 0.0
    for d in (3, 4):
        rng = np.random.default_rng(70 + d)
        for i in range(20):
            g = rng.standard_normal((d * d, d * d)) + 1j * rng.standard_normal((d * d, d * d))
            X = (g + g.conj().T) / 2
            X /= np.linalg.norm(X)
            co = twirl_exact(X)
            T = co.matrix()
            # exact-projection contracts
            assert np.linalg.norm(twirl_exact(T).matrix() - T) <= 1e-10
            assert abs(np.trace(T).real - np.trace(X).real) <= 1e-10
            g = rng.standard_normal((d * d, d * d)) + 1j * rng.standard_normal((d * d, d * d))
            Y = (g + g.conj().T) / 2
            assert abs(pairing(T, Y) - pairing(X, twirl_exact(Y).matrix())) <= 1e-10
            err = float(np.linalg.norm(twirl_monte_carlo(X, 100_000, seed=100 * d + i) - T))
            worst_mc = max(worst_mc, err)
            assert err <= 1e-2
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _report(7, elapsed, f"40 operators, worst Monte-Carlo error {worst_mc:.2e}")


def test_criterion_8_schmidt_jump_pattern():
    t0 = time.perf_counter()
    for d in (5, 6, 8):
        values = []
        for t in np.linspace(0.0, 1.0, 1000):
            a, b = float(t), float((t - 1) / (d - 1))
            cls = schmidt_number(d, a, b)
            assert cls.is_state
            values.append(cls.schmidt_number)
        assert all(x <= y for x, y in zip(values, values[1:]))  # nondecreasing
        assert values[0] == 2
        assert values[-1] == d
        expected = {2} | set(range(-(-d // 2), d + 1))
        assert set(values) == expected  # nothing strictly between 2 and ceil(d/2)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(8, elapsed, "edge pattern 2, ceil(d/2), ..., d for d in {5, 6, 8}")


def test_criterion_9_known_special_cases():
    t0 = time.perf_counter()
    for d in range(2, 9):
        for k in range(1, d + 1):
            thr = Fraction(k * d - 1, d * d - 1)
            eps = Fraction(1, 10**9)
            assert schmidt_membership(d, thr, 0, k).member
            assert schmidt_membership(d, thr - eps, 0, k).status == "inside"
            if k < d:
                assert not schmidt_membership(d, thr + eps, 0, k).member
        lo, hi = Fraction(-1, d - 1), Fraction(1, d + 1)
        for t in range(41):
            b = lo + (hi - lo) * Fraction(t, 40)
            assert schmidt_number(d, 0, b).schmidt_number in (1, 2)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(9, elapsed, "isotropic thresholds exact for d <= 8; Werner line in {1, 2}")


def test_criterion_10_figure_regression():
    t0 = time.perf_counter()
    for d in (3, 4):
        for k in range(1, d + 1):
            expect_arc = region_case(d, k) == 3
            for kind, rb in (
                ("map", map_region_boundary(d, k)),
                ("state", state_region_boundary(d, k)),
            ):
                assert (len(rb.arcs) == 1) == expect_arc
                golden = (GOLDEN / f"{kind}_d{d}_k{k}.svg").read_text()
                assert region_svg(rb) == golden
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(10, elapsed, "golden SVGs byte-identical; arc present exactly in the conic case")
