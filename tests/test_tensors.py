import itertools

import numpy as np
import pytest

from qbingham.tensors import (
    CLOSED_FORM_MIN, axial_parts, biaxiality, eig_sym3, eigenvalue_margin, from_matrix,
    qdot, qnorm, to_matrix, uniaxial,
)
from conftest import haar_rotations, random_physical, random_qvec, sym_traceless
from dense_ops import QBASIS, from_basis_coeffs, to_basis_coeffs


def test_zero_components_give_zero_tensor():
    assert np.array_equal(to_matrix(np.zeros(5)), np.zeros((3, 3)))


def test_uniaxial_component_form():
    s = 0.4
    q = uniaxial(s, [0.0, 0.0, 1.0])
    np.testing.assert_allclose(q, [-s / 3, -s / 3, 0.0, 0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(
        to_matrix(q), s * (np.diag([0.0, 0.0, 1.0]) - np.eye(3) / 3.0), atol=1e-15)


def test_matrix_round_trip(rng):
    m = sym_traceless(rng.normal(size=(50, 3, 3)))
    np.testing.assert_allclose(to_matrix(from_matrix(m)), m, atol=1e-15)


# the (row, column) entries each component of a qvec sets; q33 = -q11 - q22
ENTRIES = {0: [(0, 0), (2, 2)], 1: [(1, 1), (2, 2)], 2: [(0, 1), (1, 0)],
           3: [(0, 2), (2, 0)], 4: [(1, 2), (2, 1)]}


@pytest.mark.parametrize("shape", [(), (7,), (4, 3)])
def test_matrix_layout_and_round_trip(rng, shape):
    q = rng.normal(size=shape + (5,))
    m = to_matrix(q)
    assert m.shape == shape + (3, 3)
    q11, q22, q12, q13, q23 = np.moveaxis(q, -1, 0)
    want = np.stack([np.stack([q11, q12, q13], -1), np.stack([q12, q22, q23], -1),
                     np.stack([q13, q23, -q11 - q22], -1)], -2)
    assert np.array_equal(m, want)
    assert np.array_equal(from_matrix(m), q)


@pytest.mark.parametrize("component", range(5))
def test_nan_stays_in_its_component(component):
    q = np.ones((2, 5))
    q[1, component] = np.nan
    m = to_matrix(q)
    assert not np.isnan(m[0]).any()
    assert sorted(zip(*np.nonzero(np.isnan(m[1])))) == sorted(ENTRIES[component])
    mat = np.ones((2, 3, 3))
    mat[1][ENTRIES[component][0]] = np.nan
    back = from_matrix(mat)
    assert np.flatnonzero(np.isnan(back[1])).tolist() == [component]
    assert not np.isnan(back[0]).any()


def test_qdot_matches_full_contraction(rng):
    a = random_qvec(rng, 20)
    b = random_qvec(rng, 20)
    ref = np.einsum("nij,nij->n", to_matrix(a), to_matrix(b))
    np.testing.assert_allclose(qdot(a, b), ref, rtol=1e-13)


def test_qbasis_orthonormal():
    g = np.einsum("aij,bij->ab", QBASIS, QBASIS)
    np.testing.assert_allclose(g, np.eye(5), atol=1e-15)


def test_basis_coeff_round_trip(rng):
    q = random_qvec(rng, 30)
    np.testing.assert_allclose(from_basis_coeffs(to_basis_coeffs(q)), q, atol=1e-14)


def _three_parts(q, n):
    p1, p2 = axial_parts(q, n)
    return [p1, p2, q - p1 - p2]


def test_axial_parts_are_orthogonal_projections(rng):
    q, r = random_qvec(rng, 40, scale=1.0), random_qvec(rng, 40, scale=1.0)
    n = rng.normal(size=(40, 3))
    n /= np.linalg.norm(n, axis=-1, keepdims=True)
    parts, others = _three_parts(q, n), _three_parts(r, n)
    # P3 Q n = 0
    assert np.abs(np.einsum("...ij,...j->...i", to_matrix(parts[2]), n)).max() <= 1e-14
    for i, p in enumerate(parts):
        # Pi Pj = delta_ij Pi
        for j, pj in enumerate(_three_parts(p, n)):
            np.testing.assert_allclose(pj, p if i == j else 0.0, atol=1e-14)
        # mutual orthogonality
        for j, o in enumerate(others):
            if i != j:
                assert np.abs(qdot(p, o)).max() <= 1e-14
    # P1 keeps nn - I/3 and P2 keeps n e + e n = ((n + e)(n + e) - (n - e)(n - e)) / 2
    e = np.cross(n, rng.normal(size=(40, 3)))
    ne = uniaxial(0.5, n + e) - uniaxial(0.5, n - e)
    np.testing.assert_allclose(axial_parts(ne, n)[1], ne, atol=1e-14)
    np.testing.assert_allclose(axial_parts(uniaxial(0.7, n), n)[0], uniaxial(0.7, n),
                               atol=1e-14)


# ---------------------------------------------------------------------------
# eigendecomposition
# ---------------------------------------------------------------------------

def test_eig_zero_tensor():
    w, r = eig_sym3(np.zeros((3, 3)))
    np.testing.assert_allclose(w, 0.0, atol=1e-300)
    np.testing.assert_allclose(r @ r.T, np.eye(3), atol=1e-14)


def test_eig_uniaxial():
    s2 = 0.61
    n = np.array([1.0, 2.0, -1.0]) / np.sqrt(6.0)
    w, r = eig_sym3(to_matrix(uniaxial(s2, n)))
    np.testing.assert_allclose(w, [-s2 / 3, -s2 / 3, 2 * s2 / 3], atol=1e-13)
    top = r[:, 2]
    assert abs(abs(top @ n) - 1.0) < 1e-12


def test_eig_biaxial_closed_form():
    s, r_ = 0.35, 0.2
    m = s * (np.diag([0.0, 0.0, 1.0]) - np.eye(3) / 3.0) \
        + r_ * (np.diag([1.0, 0.0, 0.0]) - np.eye(3) / 3.0)
    w, _ = eig_sym3(m)
    expect = np.sort([2 * s / 3 - r_ / 3, -s / 3 + 2 * r_ / 3, -(s + r_) / 3])
    np.testing.assert_allclose(w, expect, atol=1e-14)


def test_eig_reconstruction_bulk(rng):
    m = sym_traceless(rng.normal(size=(10_000, 3, 3)))
    w, r = eig_sym3(m)
    rec = np.einsum("nik,nk,njk->nij", r, w, r)
    scale = np.abs(m).reshape(len(m), -1).max(axis=1) + 1e-300
    rel = np.abs(rec - m).reshape(len(m), -1).max(axis=1) / scale
    assert rel.max() < 1e-12
    assert np.all(np.diff(w, axis=1) >= -1e-14)
    np.testing.assert_allclose(w.sum(axis=1), 0.0, atol=1e-13 * scale.max())
    orth = np.einsum("nki,nkj->nij", r, r)
    assert np.abs(orth - np.eye(3)).max() < 1e-12
    assert np.abs(np.abs(np.linalg.det(r)) - 1.0).max() < 1e-6


def test_eig_near_degenerate(rng):
    # pairs of nearly equal eigenvalues, down to an exact double root
    for gap in [0.0, 1e-14, 1e-10, 1e-9]:
        w0 = np.array([-0.2, -0.2 + gap, 0.4 - gap])
        rot = np.linalg.qr(rng.normal(size=(3, 3)))[0]
        m = rot @ np.diag(w0) @ rot.T
        m = sym_traceless(m)
        w, r = eig_sym3(m)
        rec = r @ np.diag(w) @ r.T
        assert np.abs(rec - m).max() < 1e-12 * (np.abs(m).max() + 1.0)


def test_eig_shapes(rng):
    # (64, 64) takes the closed form, the others LAPACK; trace-free and not
    for shape, shift in itertools.product([(), (7,), (4, 4), (64, 64)], [0.0, 1.0]):
        m = sym_traceless(rng.normal(size=shape + (3, 3)))
        m = m + shift * rng.normal(size=shape + (1, 1)) * np.eye(3)
        w, r = eig_sym3(m)
        assert w.shape == shape + (3,)
        assert r.shape == shape + (3, 3)
        assert r.flags.c_contiguous
        rec = np.einsum("...ik,...k,...jk->...ij", r, w, r)
        assert np.abs(rec - m).max() < 1e-12


@pytest.mark.parametrize("m", [
    to_matrix(uniaxial(0.6, [0.0, 0.0, 1.0])),
    to_matrix(uniaxial(-0.3, [1.0, 0.0, 0.0])),
    to_matrix(uniaxial(0.45, np.array([1.0, 2.0, -1.0]) / np.sqrt(6.0))),
    0.25 * np.eye(3),
    np.eye(3),
    np.zeros((3, 3)),
], ids=["uniaxial-z", "uniaxial-x", "uniaxial-oblique", "isotropic-quarter",
        "identity", "zero"])
def test_eig_degenerate_frame_right_handed(m):
    # the frame is orthogonal, |det R| = 1; its handedness is LAPACK's, as no
    # consumer of a frame reads it
    w, r = eig_sym3(m)
    assert abs(abs(np.linalg.det(r)) - 1.0) < 1e-12
    assert np.abs(r @ np.diag(w) @ r.T - m).max() <= 1e-12


# unit roundoff
U = np.finfo(float).eps / 2.0


def _eig_paths(m):
    """eig_sym3 of m (N, 3, 3) on each path: LAPACK in chunks below
    CLOSED_FORM_MIN, the closed form on m tiled to at least that size."""
    k = CLOSED_FORM_MIN - 1
    parts = [eig_sym3(m[i:i + k]) for i in range(0, len(m), k)]
    lapack = tuple(np.concatenate(x) for x in zip(*parts))
    w, r = eig_sym3(np.tile(m, (-(-CLOSED_FORM_MIN // len(m)), 1, 1)))
    return {"lapack": lapack, "closed": (w[:len(m)], r[:len(m)])}


def _eig_inputs(rng):
    """Named (N, 3, 3) batches: random, non-trace-free, uniaxial, zero, c I,
    and pairs of eigenvalues 0 to 1e-9 apart, at both signs."""
    rand = sym_traceless(rng.normal(size=(2000, 3, 3)))
    dirs = rng.normal(size=(64, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    sets = {
        "random": rand,
        "shifted": rand + rng.uniform(-3.0, 3.0, size=(2000, 1, 1)) * np.eye(3),
        "uniaxial": to_matrix(uniaxial(rng.uniform(-0.5, 0.9, (64, 1, 1)), dirs)),
        "zero": np.zeros((4, 3, 3)),
        "cI": np.array([0.25, 1.0, -2.0, 1e-300])[:, None, None] * np.eye(3),
    }
    for gap in (0.0, 1e-14, 1e-10, 1e-9):
        for sign in (1.0, -1.0):
            rot = haar_rotations(rng, 200)
            ev = sign * np.array([-0.2, -0.2 + gap, 0.4 - gap])
            sets[f"gap {gap:g} sign {sign:+g}"] = np.einsum("nik,k,njk->nij", rot, ev, rot)
    return sets


@pytest.mark.parametrize("path", ["lapack", "closed"])
def test_eig_paths_meet_one_accuracy_contract(rng, path):
    # per matrix, with u the unit roundoff: ||R^T A R - diag w||, |w - eigvalsh|
    # <= 32 u max|A| and ||R^T R - I|| <= 32 u, entrywise; w ascending
    for name, m in _eig_inputs(rng).items():
        w, r = _eig_paths(m)[path]
        scale = np.maximum(np.abs(m).max(axis=(1, 2)), 1e-300)
        rt = np.swapaxes(r, 1, 2)
        recon = np.abs(rt @ m @ r - w[:, :, None] * np.eye(3)).max(axis=(1, 2)) / scale
        orth = np.abs(rt @ r - np.eye(3)).max(axis=(1, 2))
        eigs = np.abs(w - np.linalg.eigvalsh(m)).max(axis=1) / scale
        assert recon.max() <= 32 * U, name
        assert orth.max() <= 32 * U, name
        assert eigs.max() <= 32 * U, name
        assert (np.diff(w, axis=1) >= 0.0).all(), name


def test_eig_paths_agree_across_the_threshold(rng):
    # R diag(w) R^T of the two paths agree to 32 u max|A| per matrix
    for name, m in _eig_inputs(rng).items():
        recs = [np.einsum("nik,nk,njk->nij", r, w, r) for w, r in _eig_paths(m).values()]
        scale = np.maximum(np.abs(m).max(axis=(1, 2)), 1e-300)
        assert (np.abs(recs[0] - recs[1]).max(axis=(1, 2)) <= 32 * U * scale).all(), name


@pytest.mark.parametrize("path", ["lapack", "closed"])
def test_eig_keeps_a_planar_block_apart(rng, path):
    # a13 = a23 = 0: e_z is an exact eigenvector, the other two lie exactly
    # in the x-y plane, so R diag(w) R^T has q13 = q23 = 0 to the bit
    m = sym_traceless(rng.normal(size=(300, 3, 3)))
    m[:, 0, 2] = m[:, 2, 0] = m[:, 1, 2] = m[:, 2, 1] = 0.0
    w, r = _eig_paths(m)[path]
    ez = (r[:, :2, :] == 0.0).all(axis=1)
    assert (ez.sum(axis=1) == 1).all()
    assert (np.abs(r[:, 2, :])[ez] == 1.0).all()
    assert (r[:, 2, :][~ez] == 0.0).all()
    q5 = from_matrix(np.einsum("nik,nk,njk->nij", r, w, r))
    assert (q5[:, 3:] == 0.0).all()


def test_eig_dispatch_by_batch_size(monkeypatch):
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(len(a)) or eigh(a))
    m = np.tile(np.diag([0.1, 0.2, -0.3]), (CLOSED_FORM_MIN, 1, 1))
    eig_sym3(m[1:])
    eig_sym3(m)
    assert calls == [CLOSED_FORM_MIN - 1]


def test_eig_closed_form_warns_on_no_input():
    # pytest turns warnings into errors: a non-finite matrix gives NaN
    # eigenvalues in its own row only, as from LAPACK, and a row whose
    # trace overflows (entries 1e308) raises no warning either
    m = np.tile(np.diag([0.1, 0.2, -0.3]), (CLOSED_FORM_MIN, 1, 1))
    m[3, 0, 0] = np.nan
    m[5, 1, 2] = m[5, 2, 1] = np.inf
    m[7] = 1e308
    w, _ = eig_sym3(m)
    assert np.isnan(w[[3, 5]]).any(axis=1).all()
    assert np.abs(w[[0, 1, 2, 4, 6]] - [-0.3, 0.1, 0.2]).max() <= 1e-16


def test_eigenvalue_margin_matches_eig_sym3(rng):
    q = random_physical(rng, 10_000, 0.0)
    w, _ = eig_sym3(to_matrix(q))
    ref = np.minimum(w[:, 0] + 1.0 / 3.0, 2.0 / 3.0 - w[:, 2])
    assert np.abs(eigenvalue_margin(q) - ref).max() <= 1e-14


# ---------------------------------------------------------------------------
# physical margin and biaxiality
# ---------------------------------------------------------------------------

def test_eigenvalue_margin_at_physical_boundary():
    q = uniaxial(1.0, [0.0, 0.0, 1.0])  # top eigenvalue exactly 2/3
    assert 0.0 <= eigenvalue_margin(q) < 1e-12


def _eigs(q):
    return np.linalg.eigvalsh(to_matrix(q))


def test_biaxiality_uniaxial_and_extremes(rng):
    n = rng.normal(size=3)
    n /= np.linalg.norm(n)
    assert biaxiality(_eigs(uniaxial(0.5, n))) < 1e-12
    assert biaxiality(_eigs(uniaxial(-0.2, n))) < 1e-12
    q_max = from_matrix(np.diag([0.3, -0.3, 0.0]))
    np.testing.assert_allclose(biaxiality(_eigs(q_max)), 1.0, atol=1e-13)
    assert biaxiality(np.zeros(3)) == 0.0


def test_biaxiality_range(rng):
    q = random_qvec(rng, 200)
    b = biaxiality(_eigs(q))
    assert np.all((0.0 <= b) & (b <= 1.0))


def test_biaxiality_from_eigenvalues_matches_traces(rng):
    # near-uniaxial Q, where 1 - 6 t3^2 / t2^3 cancels most: the eigenvalue
    # form against the trace form of the same matrix in 40-digit arithmetic
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    n = rng.normal(size=(200, 3))
    n /= np.linalg.norm(n, axis=1, keepdims=True)
    q = uniaxial(rng.uniform(0.2, 0.6, size=(200, 1, 1)), n) + random_qvec(rng, 200, 1e-3)
    got = biaxiality(eig_sym3(to_matrix(q))[0])
    for qm, b in zip(to_matrix(q), got):
        m = mp.matrix(qm.tolist())
        m2 = m * m
        t2 = sum(m2[i, i] for i in range(3))
        t3 = sum((m2 * m)[i, i] for i in range(3))
        assert abs(b - float(1 - 6 * t3**2 / t2**3)) <= 1e-14
