import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import schmidt_cone
from schmidt_cone.linalg import flip, max_entangled, pairing
from schmidt_cone.symmetry import (
    CovariantMap,
    InvariantCoordinates,
    InvariantState,
    apply_channel_right,
    commutant_basis,
    commutant_gram,
    haar_orthogonal_batch,
    twirl_exact,
    twirl_monte_carlo,
)


def _random_hermitian(n, rng):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2


def test_apply_map_identity_transpose_depolarizing():
    rng = np.random.default_rng(0)
    Z = _random_hermitian(3, rng)
    assert np.allclose(CovariantMap(3, 1, 0).apply(Z), Z)
    assert np.allclose(CovariantMap(3, 0, 1).apply(Z), Z.T)
    assert np.allclose(
        CovariantMap(3, 0, 0).apply(np.diag([1.0, 2.0, 3.0])), 2.0 * np.eye(3)
    )
    unit = np.zeros((3, 3))
    unit[0, 1] = 1.0  # |1><2| goes to |2><1| under transpose
    assert np.allclose(CovariantMap(3, 0, 1).apply(unit), unit.T)


def test_map_trace_preserving_on_matrix_units():
    m = CovariantMap(4, 0.7, -0.3)
    for i in range(4):
        for j in range(4):
            unit = np.zeros((4, 4))
            unit[i, j] = 1.0
            assert np.isclose(np.trace(m.apply(unit)), np.trace(unit), atol=1e-12)


def test_map_hermitian_preserving():
    rng = np.random.default_rng(1)
    m = CovariantMap(3, 0.4, 0.2)
    Z = _random_hermitian(3, rng)
    out = m.apply(Z)
    assert np.allclose(out, out.conj().T)


def test_map_covariance_under_orthogonal_conjugation():
    rng = np.random.default_rng(2)
    m = CovariantMap(4, 0.3, -0.5)
    for _ in range(5):
        O = haar_orthogonal_batch(4, 1, rng)[0]
        Z = _random_hermitian(4, rng)
        lhs = m.apply(O @ Z @ O.T)
        rhs = O @ m.apply(Z) @ O.T
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_choi_identity_map():
    for d in (2, 3, 4):
        om = max_entangled(d)
        assert np.allclose(CovariantMap(d, 1, 0).choi(), np.outer(om, om.conj()), atol=1e-12)


def test_choi_depolarizing():
    for d in (2, 3):
        assert np.allclose(CovariantMap(d, 0, 0).choi(), np.eye(d * d) / d**2, atol=1e-12)


def test_choi_transpose_by_brute_force():
    # oracle: assemble (1/d) sum |i><j| x L(|i><j|) directly from the flip definition
    assert np.allclose(CovariantMap(3, 0, 1).choi(), flip(3) / 3, atol=1e-12)


def test_choi_equals_invariant_state():
    rng = np.random.default_rng(3)
    for _ in range(5):
        d = int(rng.integers(2, 5))
        p, q = rng.uniform(-1, 1, size=2)
        assert np.max(np.abs(CovariantMap(d, p, q).choi() - InvariantState(d, p, q).matrix())) < 1e-12


def test_invariant_state_trivial_cases():
    for d in (2, 4):
        assert np.allclose(InvariantState(d, 0, 0).matrix(), np.eye(d * d) / d**2)
        om = max_entangled(d)
        assert np.allclose(InvariantState(d, 1, 0).matrix(), np.outer(om, om.conj()))
    rho = InvariantState(4, 0.5, 0.25).matrix()
    assert np.isclose(np.trace(rho).real, 1.0, atol=1e-12)
    assert np.allclose(rho, rho.conj().T)


def test_invariant_state_commutes_with_tensor_orthogonals():
    rng = np.random.default_rng(4)
    rho = InvariantState(3, 0.3, -0.2).matrix()
    for _ in range(20):
        O = haar_orthogonal_batch(3, 1, rng)[0]
        OO = np.kron(O, O)
        assert np.linalg.norm(OO @ rho - rho @ OO) < 1e-10


def test_commutant_gram_brute_force():
    # closed form fixed from brute-force traces at d = 2..5
    for d in range(2, 6):
        basis = commutant_basis(d)
        brute = np.array([[np.trace(gi @ gj).real for gj in basis] for gi in basis])
        assert np.allclose(brute, commutant_gram(d), atol=1e-9)


def test_twirl_exact_fixes_invariants():
    for d in (2, 3):
        co = twirl_exact(flip(d))
        assert np.allclose(co.as_tuple(), (0.0, 0.0, 1.0), atol=1e-12)


def test_twirl_exact_on_state_family():
    d, a, b = 3, 0.4, -0.1
    co = twirl_exact(InvariantState(d, a, b).matrix())
    assert np.allclose(co.as_tuple(), ((1 - a - b) / d**2, a / d, b / d), atol=1e-12)


def test_twirl_exact_rejects_a_singular_gram_matrix(monkeypatch):
    # an explicit check, so that it holds under python -O as well
    from schmidt_cone import symmetry

    monkeypatch.setattr(symmetry, "commutant_gram", lambda d: np.zeros((3, 3)))
    with pytest.raises(ArithmeticError, match="not positive definite"):
        twirl_exact(flip(3))


def test_invariant_coordinates_round_trip():
    co = InvariantCoordinates(3, 0.2, -0.5, 0.7)
    back = twirl_exact(co.matrix())
    assert np.allclose(back.as_tuple(), co.as_tuple(), atol=1e-12)


def test_twirl_exact_idempotent_trace_preserving_self_dual():
    rng = np.random.default_rng(5)
    for _ in range(5):
        X = _random_hermitian(9, rng)
        Y = _random_hermitian(9, rng)
        TX = twirl_exact(X).matrix()
        TY = twirl_exact(Y).matrix()
        assert np.linalg.norm(twirl_exact(TX).matrix() - TX) < 1e-12 * max(1, np.linalg.norm(TX))
        assert abs(np.trace(TX).real - np.trace(X).real) < 1e-10
        assert abs(pairing(TX, Y) - pairing(X, TY)) < 1e-10


def test_map_family_self_adjoint_under_pairing():
    # Tr(C_L X) must equal <Omega|(id x L)(X)|Omega> on invariant X
    rng = np.random.default_rng(6)
    d = 3
    om = max_entangled(d)
    for _ in range(5):
        p, q = rng.uniform(-1, 1, size=2)
        a, b = rng.uniform(-0.5, 0.5, size=2)
        m = CovariantMap(d, p, q)
        X = InvariantState(d, a, b).matrix()
        lhs = pairing(m.choi(), X)
        rhs = (om.conj() @ apply_channel_right(m, X) @ om).real
        assert abs(lhs - rhs) < 1e-10


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_apply_channel_right_is_id_n_tensor_the_map(n):
    # (id_n x map)(A x Z) = A x map(Z) for any n, not only n = d
    rng = np.random.default_rng(n)
    m = CovariantMap(3, 0.4, -0.7)
    A, Z = _random_hermitian(n, rng), _random_hermitian(3, rng)
    assert np.allclose(apply_channel_right(m, np.kron(A, Z)), np.kron(A, m.apply(Z)), atol=1e-12)


@pytest.mark.parametrize("shape", [(8, 8), (9, 6), (9,), (3, 3, 3)])
def test_apply_channel_right_refuses_a_side_that_is_not_a_multiple_of_d(shape):
    with pytest.raises(ValueError):
        apply_channel_right(CovariantMap(3, 0.4, -0.7), np.zeros(shape))


def test_apply_refuses_a_matrix_of_the_wrong_side():
    with pytest.raises(ValueError, match=r"expected a 3x3 matrix, got \(4, 4\)"):
        CovariantMap(3, 0.1, 0.1).apply(np.eye(4))


def test_haar_orthogonal_is_orthogonal():
    rng = np.random.default_rng(7)
    for d in (1, 3, 6):
        O = haar_orthogonal_batch(d, 1, rng)[0]
        assert np.max(np.abs(O.T @ O - np.eye(d))) < 1e-12
        assert np.allclose(np.linalg.norm(O, axis=0), 1.0, atol=1e-12)


def test_haar_orthogonal_d1_sign_balance():
    # chi-squared test at the 1% level over 1e4 draws of +-1
    rng = np.random.default_rng(8)
    draws = haar_orthogonal_batch(1, 10_000, rng)[:, 0, 0]
    assert set(np.unique(draws)) <= {-1.0, 1.0}
    n_plus = int(np.sum(draws > 0))
    chi2 = (2 * n_plus - 10_000) ** 2 / 10_000
    assert chi2 < 6.635


def test_haar_first_entry_second_moment():
    # E[O_11^2] = 1/d for the Haar measure
    rng = np.random.default_rng(9)
    d = 3
    o11 = haar_orthogonal_batch(d, 100_000, rng)[:, 0, 0]
    mean = np.mean(o11**2)
    sigma = np.std(o11**2) / np.sqrt(len(o11))
    assert abs(mean - 1 / d) < 3 * sigma


def test_twirl_monte_carlo_fixes_invariant_inputs():
    d = 3
    for X in (flip(d).astype(complex), np.outer(max_entangled(d), max_entangled(d).conj())):
        out = twirl_monte_carlo(X, 37, seed=5)
        assert np.max(np.abs(out - X)) < 1e-12


def test_twirl_monte_carlo_matches_exact_projection():
    rng = np.random.default_rng(10)
    X = _random_hermitian(9, rng)
    X /= np.linalg.norm(X)
    exact = twirl_exact(X).matrix()
    approx = twirl_monte_carlo(X, 100_000, seed=11)
    assert np.linalg.norm(approx - exact) < 1e-2


def test_twirl_monte_carlo_deterministic():
    rng = np.random.default_rng(12)
    X = _random_hermitian(4, rng)
    out1 = twirl_monte_carlo(X, 2000, seed=3)
    out2 = twirl_monte_carlo(X, 2000, seed=3)
    assert np.array_equal(out1, out2)
    out3 = twirl_monte_carlo(X, 2000, seed=4)
    assert not np.array_equal(out1, out3)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize("n_samples", [1, 1024, 2500])
def test_twirl_monte_carlo_matches_a_per_sample_sum(d, n_samples):
    """The chunked GEMMs equal sum_i K_i X K_i^T over the same Haar draws.

    The reference draws chunks of 1024 from Philox streams keyed by the seed
    and jumped by the chunk index; 2500 samples end in a partial chunk.
    """
    rng = np.random.default_rng(13)
    X = _random_hermitian(d * d, rng)
    ref = np.zeros_like(X)
    for chunk, start in enumerate(range(0, n_samples, 1024)):
        stream = np.random.Generator(np.random.Philox(key=7).jumped(chunk))
        for O in haar_orthogonal_batch(d, min(1024, n_samples - start), stream):
            K = np.kron(O, O)
            ref += K @ X @ K.T
    ref /= n_samples
    assert np.max(np.abs(twirl_monte_carlo(X, n_samples, seed=7) - ref)) <= 1e-13


# Hashes twirls at d = 2..5, three sample counts and two seeds, then prints the digest.
_TWIRL_DIGEST = """
import hashlib
import numpy as np
from schmidt_cone.symmetry import twirl_monte_carlo
rng = np.random.default_rng(14)
h = hashlib.sha256()
for d in (2, 3, 4, 5):
    g = rng.standard_normal((d * d, d * d)) + 1j * rng.standard_normal((d * d, d * d))
    X = (g + g.conj().T) / 2
    for n_samples in (1, 1024, 2500):
        for seed in (0, 9):
            h.update(twirl_monte_carlo(X, n_samples, seed=seed).tobytes())
print(h.hexdigest())
"""


def test_twirl_monte_carlo_matches_the_pinned_digest():
    """Twirls at d = 2..5, n = 1, 1024 and 2500 and two seeds hash to a pinned digest.

    The digest was computed on the chunk layout that keeps the sample index
    innermost in L[x, z, i] = K_i[x, z] and reads X K_i^T transposed in the
    last product, with scipy-openblas 0.3.31 on one thread.  A change of
    layout moves the last bits of the sums, so it has to be declared here
    rather than pass unseen.  The hash runs in a fresh interpreter held to
    one BLAS thread: with more, OpenBLAS may split the length-m d^2
    contraction of a partial chunk and move its last bits.
    """
    src = str(Path(schmidt_cone.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    env.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))
    proc = subprocess.run(
        [sys.executable, "-c", _TWIRL_DIGEST], env=env, capture_output=True, text=True, check=True, timeout=120
    )
    assert proc.stdout.strip() == "561df9a5b40b4459cd022f88fb33421447ed4260212edddd8aa23373e2bff968"


def test_monte_carlo_rejects_bad_sample_count():
    with pytest.raises(ValueError):
        twirl_monte_carlo(np.eye(4), 0)


@pytest.mark.parametrize("family", [CovariantMap, InvariantState])
@pytest.mark.parametrize(
    "d, x, y, err",
    [
        (4, np.nan, 0.0, "non-finite"),
        (4, 0.1, np.inf, "non-finite"),
        (4, -np.inf, 0.1, "non-finite"),
        (4, 0.1, np.float32("nan"), "non-finite"),
        (4, True, 0.1, "boolean"),
        (4, 0.1, np.bool_(False), "boolean"),
        (2.5, 0.1, 0.1, "integer"),
        (np.float64(3.0), 0.1, 0.1, "integer"),
    ],
)
def test_the_families_refuse_a_non_finite_or_bool_point_and_a_non_integer_d(family, d, x, y, err):
    # a NaN state used to pass the witness search as "no violation"
    with pytest.raises(ValueError, match=err):
        family(d, x, y)
    assert family(np.int64(3), np.float32(0.1), 1).d == 3  # numpy scalars stay accepted
