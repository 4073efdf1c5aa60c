"""Shared helpers: hand-wired potentials with known gradient maps."""

from pathlib import Path

import numpy as np
import pytest

from lotnn.icnn import IcnnConfig, IcnnParams
from lotnn.otsolve import DualPair, Frame

# test_bundle.handmade_bundle() as the version-1 save_bundle wrote it
BUNDLE_V1 = Path(__file__).parent / "data" / "bundle_v1.json"


def quad_potential(dim, quad=1.0, tilt=None, bias=0.0):
    """Potential quad*||x||^2/2 + <tilt, x> + bias.

    The head has no bias of its own, so a positive bias is the relu of
    one hidden unit with a_0 = bias passed through wz = 1; with bias 0
    the hidden layer is dormant. Either way the gradient map is exactly
    x -> quad*x + tilt.
    """
    if bias < 0:
        raise ValueError("a relu unit holds only a bias >= 0")
    cfg = IcnnConfig(dim=dim, hidden=(1,), activation="relu", quad=quad)
    wx = [np.zeros((1, dim)), np.zeros((1, dim))]
    if tilt is not None:
        wx[1] = np.asarray(tilt, dtype=np.float64).reshape(1, dim)
    params = IcnnParams(wx, [np.full((1, 1), float(bias > 0))],
                        [np.array([float(bias)])])
    return params, cfg


def quad_pair(dim, q_psi=1.0, psi_tilt=None, psi_bias=0.0,
              q_phi=1.0, phi_tilt=None, phi_bias=0.0):
    """DualPair of two hand-wired quadratic potentials (identity frame)."""
    psi, psi_cfg = quad_potential(dim, q_psi, psi_tilt, psi_bias)
    phi, phi_cfg = quad_potential(dim, q_phi, phi_tilt, phi_bias)
    return DualPair(psi, psi_cfg, phi, phi_cfg, Frame.identity(dim))


def shift_pair(dim, a):
    """Exact potentials of the shift map x -> x + a.

    psi = ||x||^2/2 + <a, x>, phi = psi* = ||y||^2/2 - <a, y> + ||a||^2/2.
    """
    a = np.asarray(a, dtype=np.float64)
    return quad_pair(dim, q_psi=1.0, psi_tilt=a,
                     q_phi=1.0, phi_tilt=-a, phi_bias=0.5 * float(a @ a))


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
