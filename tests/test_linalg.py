import re

import numpy as np
import pytest

from schmidt_cone.linalg import (
    _haar_qr,
    as_hermitian,
    flip,
    is_psd,
    max_entangled,
    pairing,
    schmidt_spectrum,
)
from schmidt_cone.oracles import block_positivity_falsifier, random_frames
from schmidt_cone.symmetry import haar_orthogonal_batch, twirl_exact, twirl_monte_carlo


def test_is_psd_identity():
    for d in (1, 3, 7):
        assert is_psd(np.eye(d))


def test_is_psd_explicit_negative_eigenvalue():
    assert not is_psd(np.diag([1.0, -1e-3]), tol=1e-9)


def test_is_psd_rejects_bad_input():
    with pytest.raises(ValueError):
        is_psd(np.ones((2, 3)))
    with pytest.raises(ValueError):
        is_psd(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        is_psd(np.eye(2), tol=-1.0)


def test_is_psd_scale_free():
    # relative tolerance: a tiny negative eigenvalue next to a huge one passes
    assert is_psd(np.diag([1e12, -1.0]), tol=1e-9)
    assert not is_psd(np.diag([1.0, -1e-6]), tol=1e-9)


def test_schmidt_spectrum_max_entangled():
    for d in range(2, 9):
        sv = schmidt_spectrum(max_entangled(d), d, d)
        assert len(sv) == d
        assert np.allclose(sv, 1 / np.sqrt(d))


def test_schmidt_spectrum_product_vector():
    v = np.zeros(6, dtype=complex)
    v[0 * 3 + 1] = 1.0  # e_0 x e_1 in C^2 x C^3
    sv = schmidt_spectrum(v, 2, 3)
    assert len(sv) == 1
    assert np.isclose(sv[0], 1.0)


def test_schmidt_spectrum_random_vector_against_reduced_density():
    # oracle: squared coefficients are the eigenvalues of the reduced density matrix
    rng = np.random.default_rng(7)
    v = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    v /= np.linalg.norm(v)
    sv = schmidt_spectrum(v, 3, 3)
    assert len(sv) == 3  # generic rank
    assert np.isclose(np.sum(sv**2), 1.0, atol=1e-10)
    M = v.reshape(3, 3)
    red = M @ M.conj().T
    eig = np.sort(np.linalg.eigvalsh(red))[::-1]
    assert np.allclose(sv**2, eig, atol=1e-10)


def test_schmidt_spectrum_zero_vector():
    assert len(schmidt_spectrum(np.zeros(4), 2, 2)) == 0


def test_schmidt_spectrum_dimension_mismatch():
    with pytest.raises(ValueError):
        schmidt_spectrum(np.zeros(5), 2, 3)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_schmidt_spectrum_refuses_a_non_finite_entry(bad):
    # a NaN entry used to end in numpy's "SVD did not converge"
    v = np.array([bad, 0, 0, 1.0], dtype=complex)
    with pytest.raises(ValueError, match="non-finite entry"):
        schmidt_spectrum(v, 2, 2)


@pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0, True])
def test_schmidt_spectrum_refuses_a_nan_infinite_negative_or_bool_tolerance(tol):
    # tol=nan used to return no coefficients, read as Schmidt rank 0
    with pytest.raises(ValueError, match="input|negative tolerance"):
        schmidt_spectrum(np.array([1.0, 0, 0, 1.0]), 2, 2, tol=tol)


def test_as_hermitian_takes_no_tolerance():
    # tol=nan used to pass a non-Hermitian matrix; the tolerance is 1e-12 alone
    with pytest.raises(TypeError):
        as_hermitian([[0, 1], [0, 0]], tol=float("nan"))
    with pytest.raises(ValueError, match="not Hermitian"):
        as_hermitian([[0, 1], [0, 0]])
    assert as_hermitian([[1, 1 + 1e-13], [1, 1]]).dtype == complex


def _lapack_haar_qr(g):
    """The QR-plus-phase route: Q of np.linalg.qr times the conjugated phase of diag(R)."""
    q, r = np.linalg.qr(g)
    diag = np.einsum("...ii->...i", r)
    return q * (diag / np.abs(diag)).conj()[..., None, :]


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
def test_haar_qr_is_the_phase_fixed_qr_factor(complex_):
    for seed in range(3):
        rng = np.random.default_rng(seed)
        for d in range(1, 9):
            for k in range(1, d + 1):
                g = rng.standard_normal((20, d, k))
                if complex_:
                    g = g + 1j * rng.standard_normal((20, d, k))
                Q = _haar_qr(g)
                assert Q.shape == g.shape and Q.dtype == g.dtype
                assert np.max(np.abs(Q - _lapack_haar_qr(g))) <= 1e-12
                QhQ = Q.conj().swapaxes(-1, -2) @ Q
                assert np.max(np.abs(QhQ - np.eye(k))) <= 1e-14
                R = Q.conj().swapaxes(-1, -2) @ g
                assert np.max(np.abs(np.tril(R, -1))) <= 1e-12
                diag = np.einsum("nii->ni", R)
                assert np.max(np.abs(diag.imag)) <= 1e-12 and np.all(diag.real > 0)


def test_pairing_identity():
    assert pairing(np.eye(4), np.eye(4)) == pytest.approx(4.0)


def test_pairing_max_entangled_with_flip():
    for d in range(2, 7):
        om = max_entangled(d)
        P = np.outer(om, om.conj())
        assert pairing(P, flip(d)) == pytest.approx(1.0, abs=1e-12)


def test_pairing_symmetric_bilinear():
    rng = np.random.default_rng(3)
    for _ in range(5):
        g = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        X = (g + g.conj().T) / 2
        g = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        Y = (g + g.conj().T) / 2
        g = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        Z = (g + g.conj().T) / 2
        s = abs(pairing(X, Y)) + 1
        assert abs(pairing(X, Y) - pairing(Y, X)) < 1e-12 * s
        assert abs(pairing(X + 2 * Z, Y) - pairing(X, Y) - 2 * pairing(Z, Y)) < 1e-12 * s


def test_pairing_dim_mismatch():
    with pytest.raises(ValueError):
        pairing(np.eye(2), np.eye(3))


def test_flip_swaps_and_is_involution():
    F = flip(2)
    e01 = np.zeros(4)
    e01[0 * 2 + 1] = 1.0
    e10 = np.zeros(4)
    e10[1 * 2 + 0] = 1.0
    assert np.allclose(F @ e01, e10)
    for d in (2, 3, 5):
        F = flip(d)
        assert np.allclose(F, F.T)
        assert np.allclose(F @ F, np.eye(d * d))


def test_flip_eigenvalue_multiplicities():
    # symmetric/antisymmetric split: +1 with d(d+1)/2, -1 with d(d-1)/2
    for d in (2, 3, 4):
        w = np.linalg.eigvalsh(flip(d))
        assert np.sum(np.isclose(w, 1.0)) == d * (d + 1) // 2
        assert np.sum(np.isclose(w, -1.0)) == d * (d - 1) // 2


def test_max_entangled_norm():
    for d in (1, 3, 8):
        assert np.isclose(np.linalg.norm(max_entangled(d)), 1.0, atol=1e-12)
    with pytest.raises(ValueError):
        max_entangled(0)


def test_kron_index_convention():
    a = np.zeros(2)
    a[1] = 1.0
    b = np.zeros(3)
    b[2] = 1.0
    v = np.kron(a, b)
    assert v[1 * 3 + 2] == 1.0
    assert np.sum(np.abs(v)) == 1.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
@pytest.mark.parametrize(
    "call",
    [
        is_psd,
        lambda X: pairing(X, np.eye(4)),
        twirl_exact,
        lambda X: twirl_monte_carlo(X, 10),
        lambda X: block_positivity_falsifier(X, 1),
    ],
    ids=["is_psd", "pairing", "twirl_exact", "twirl_monte_carlo", "falsifier"],
)
def test_a_matrix_with_a_non_finite_entry_is_refused(call, bad):
    # a NaN diagonal entry used to read as PSD, pair to NaN and twirl to NaN
    X = np.eye(4, dtype=complex)
    X[1, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        call(X)


@pytest.mark.parametrize("tol", [np.nan, np.inf, True, np.float32("nan"), np.bool_(True)])
def test_is_psd_refuses_a_nan_infinite_or_bool_tolerance(tol):
    with pytest.raises(ValueError, match="input"):
        is_psd(np.eye(2), tol=tol)


def _count_cases():
    """(call, an accepted count, a refused one, the message) for each count without a refusal test."""
    sites = [
        ("falsifier-iters", 1, lambda n: block_positivity_falsifier(np.eye(4), 1, iters=n)),
        ("random_frames-n", 0, lambda n: random_frames(3, 2, n, np.random.default_rng(0))),
        ("haar-n", 0, lambda n: haar_orthogonal_batch(2, n, np.random.default_rng(0))),
        ("twirl-n_samples", 1, lambda n: twirl_monte_carlo(np.eye(4), n)),
        ("schmidt_spectrum-dim_a", 1, lambda n: schmidt_spectrum(np.ones(2), n, 2)),
        ("schmidt_spectrum-dim_b", 1, lambda n: schmidt_spectrum(np.ones(2), 2, n)),
        ("max_entangled-d", 1, max_entangled),
        ("flip-d", 1, flip),
    ]
    for name, least, call in sites:
        for bad in (least - 1, True, False, 2.0):
            yield pytest.param(call, least, bad, f"must be >= {least}, got {bad!r}", id=f"{name}-{bad!r}")
    yield pytest.param(
        lambda k: random_frames(3, k, 1, np.random.default_rng(0)), 3, 4, "k=4 out of range 1..3",
        id="random_frames-k-4",
    )


@pytest.mark.parametrize("call, good, bad, message", _count_cases())
def test_a_count_out_of_range_or_not_an_integer_is_refused(call, good, bad, message):
    # a bool used to count as 0 or 1, and a negative or zero count ran on
    # nothing (the falsifier returned None) or failed inside numpy
    call(np.int64(good))
    with pytest.raises(ValueError, match=re.escape(message)):
        call(bad)
