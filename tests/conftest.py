"""Shared helpers: hand-wired potentials with known gradient maps."""

from pathlib import Path

import numpy as np
import pytest

from lotnn.icnn import IcnnConfig, IcnnParams
from lotnn.otsolve import DualPair, Frame

# test_bundle.handmade_bundle() as the version-1 save_bundle wrote it
BUNDLE_V1 = Path(__file__).parent / "data" / "bundle_v1.json"


def quad_potential(dim, quad=1.0, tilt=None):
    """Potential quad*||x||^2/2 + <tilt, x>.

    The one hidden unit is dormant (wz = 0), so the gradient map is
    exactly x -> quad*x + tilt.
    """
    cfg = IcnnConfig(dim=dim, hidden=(1,), quad=quad)
    wx = [np.zeros((1, dim)), np.zeros((1, dim))]
    if tilt is not None:
        wx[1] = np.asarray(tilt, dtype=np.float64).reshape(1, dim)
    params = IcnnParams(wx, [np.zeros((1, 1))], [np.zeros(1)])
    return params, cfg


def quad_pair(dim, q_psi=1.0, psi_tilt=None, q_phi=1.0, phi_tilt=None):
    """DualPair of two hand-wired quadratic potentials (identity frame)."""
    psi, psi_cfg = quad_potential(dim, q_psi, psi_tilt)
    phi, phi_cfg = quad_potential(dim, q_phi, phi_tilt)
    return DualPair(psi, psi_cfg, phi, phi_cfg, Frame.identity(dim))


def shift_pair(dim, a):
    """Exact gradient maps of the shift x -> x + a and its inverse.

    psi = ||x||^2/2 + <a, x> and phi = ||y||^2/2 - <a, y>, which is the
    conjugate psi* up to its constant ||a||^2/2: no test reads phi's
    constant, and the dual objective cancels it.
    """
    a = np.asarray(a, dtype=np.float64)
    return quad_pair(dim, q_psi=1.0, psi_tilt=a, q_phi=1.0, phi_tilt=-a)


def blocks(params, theta=None, prefix=""):
    """(name, block) for every parameter block, named like "psi.wx0".

    With theta the blocks are views into that vector (a gradient, say)
    in params' layout instead of into params.theta.
    """
    p = params if theta is None else params.with_theta(theta)
    return [(f"{prefix}{group}{k}", a)
            for group in p.GROUPS for k, a in enumerate(getattr(p, group))]


def relerr(got, want):
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    denom = max(np.max(np.abs(got)), np.max(np.abs(want)), 1e-12)
    return float(np.max(np.abs(got - want)) / denom)


@pytest.fixture
def rng():
    from lotnn.nncore import Rng
    return Rng(20240801)
