import sys

import numpy as np
import pytest

from qbingham.tensors import from_matrix


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def sym_traceless(m):
    """Project arbitrary 3x3 matrices onto Q (symmetrize and remove trace)."""
    m = np.asarray(m, dtype=float)
    s = 0.5 * (m + np.swapaxes(m, -1, -2))
    tr = np.trace(s, axis1=-2, axis2=-1)[..., None, None]
    return s - tr * np.eye(3) / 3.0


def random_qvec(rng, n=None, scale=0.3):
    """Random elements of Q, batched when n is given."""
    shape = (3, 3) if n is None else (n, 3, 3)
    return from_matrix(sym_traceless(rng.normal(size=shape) * scale))


def random_physical(rng, n, margin):
    """Random physical Q with the given eigenvalue margin, as (n, 5)."""
    eigs = np.empty((n, 2))
    k = 0
    while k < n:
        cand = rng.uniform(-1 / 3 + margin, 2 / 3 - margin, size=(2 * n, 2))
        q3 = -cand.sum(axis=1)
        good = cand[(q3 >= -1 / 3 + margin) & (q3 <= 2 / 3 - margin)]
        take = min(n - k, len(good))
        eigs[k:k + take] = good[:take]
        k += take
    full = np.concatenate([eigs, -eigs.sum(axis=1, keepdims=True)], axis=1)
    rots = haar_rotations(rng, n)
    mats = np.einsum("nik,nk,njk->nij", rots, full, rots)
    return from_matrix(mats)


def count_calls(monkeypatch, fn, calls, key):
    """Count calls of fn under calls[key], through every qbingham module
    that binds it."""
    def counted(*args, **kwargs):
        calls[key] += 1
        return fn(*args, **kwargs)
    for mod in list(sys.modules.values()):
        if (getattr(mod, "__name__", "").startswith("qbingham")
                and getattr(mod, fn.__name__, None) is fn):
            monkeypatch.setattr(mod, fn.__name__, counted)


def haar_rotations(rng, n):
    a = rng.normal(size=(n, 3, 3))
    q, r = np.linalg.qr(a)
    sgn = np.sign(np.einsum("nii->ni", r))
    sgn[sgn == 0] = 1.0
    q = q * sgn[:, None, :]
    det = np.linalg.det(q)
    q[det < 0, :, 2] *= -1.0
    return q
