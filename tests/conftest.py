"""Shared helpers: hand-wired potentials with known gradient maps."""

import functools
import importlib
import importlib.util
import os
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from lotnn import nncore
from lotnn.icnn import IcnnConfig, IcnnParams
from lotnn.lot import ReferenceMeasure
from lotnn.otsolve import DualPair, Frame


def load_benchmark(name):
    """benchmarks/<name>.py, a module of the benchmark, loaded by path.

    benchmarks/ is on sys.path while it loads, for the benchmark modules
    it imports (pipeline imports calibrate); its dataclasses look their
    module up in sys.modules while it loads.
    """
    bench_dir = str(Path(__file__).resolve().parents[1] / "benchmarks")
    spec = importlib.util.spec_from_file_location(f"lotnn_bench_{name}",
                                                  Path(bench_dir, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    sys.path.insert(0, bench_dir)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(bench_dir)
        del sys.modules[spec.name]
    return module


def unit_reference(dim, seed=0):
    """The reference with mean 0 and variance 1 in every coordinate."""
    return ReferenceMeasure(kind="fitted", dim=dim, mean=(0.0,) * dim,
                            var=(1.0,) * dim, seed=seed)


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


# the CPU count tests raise or lower with monkeypatch
USABLE_CPUS = nncore._usable_cpus()


@pytest.fixture(autouse=True)
def _no_extra_workers():
    """A test that raised nncore._usable_cpus leaves no extra worker processes."""
    yield
    nncore._WORKERS.trim(USABLE_CPUS - 1)


@pytest.fixture(autouse=True)
def _no_leftover_threads():
    """A test fails if a thread it started is still alive a second after it."""
    before = set(threading.enumerate())
    yield
    deadline = time.monotonic() + 1.0
    started = [t for t in threading.enumerate() if t not in before]
    for t in started:
        t.join(max(deadline - time.monotonic(), 0.0))
    left = [t.name for t in started if t.is_alive()]
    assert not left, f"threads still running after the test: {left}"


@pytest.fixture
def one_cpu(monkeypatch):
    """Everything runs in this process, where monkeypatched functions apply."""
    monkeypatch.setattr(nncore, "_usable_cpus", lambda: 1)


def start_workers(monkeypatch, cpus: int) -> None:
    """Raise nncore._usable_cpus to cpus and wait until its workers are up."""
    monkeypatch.setattr(nncore, "_usable_cpus", lambda: cpus)
    deadline = time.monotonic() + 60
    while True:
        with nncore.worker_processes(cpus) as conns:
            if len(conns) == cpus - 1:
                return
        assert time.monotonic() < deadline, "worker processes did not start"
        time.sleep(0.01)


def wrapped_inner_task(wrap, module, inner, name, conn, *args):
    """module.name(conn, *args) with module.inner replaced by wrap(module.inner).

    functools.partial(wrapped_inner_task, wrap, module, inner, name) is a
    worker process task; workers are spawned with this process's
    sys.path, so they import this module to run it, and wrap must pickle
    too: a function of this module or a partial of one. The task goes
    by name, as a function that a test has replaced in its module no
    longer pickles.
    """
    mod = importlib.import_module(module)
    run = getattr(mod, inner)
    setattr(mod, inner, wrap(run))
    try:
        getattr(mod, name)(conn, *args)
    finally:
        setattr(mod, inner, run)


def late_inner_task(delay, module, inner, name, conn, *args):
    """wrapped_inner_task with each call of module.inner `delay` seconds late.

    A task has read all the caller sent before it runs (nncore._serve),
    so only the work, and so the reply, comes late.
    """
    wrapped_inner_task(functools.partial(_late, delay), module, inner, name, conn, *args)


def _late(delay, run):
    def late(*a, **k):
        time.sleep(delay)
        return run(*a, **k)
    return late


def exit_inner_task(module, inner, name, conn, *args):
    """wrapped_inner_task whose process ends at the first call of
    module.inner: after nncore._serve has read all the caller sent,
    before the task replies."""
    wrapped_inner_task(_exit, module, inner, name, conn, *args)


def _exit(run):
    return lambda *a, **k: os._exit(1)


def nan_batch(step, rows, run):
    """otsolve._batch `run` with NaN in `rows` of step `step`'s reference
    batch. A process that draws its own batches (a worker running half
    of a lone cloud's steps) gets it through wrapped_inner_task."""
    def draw(sigma, seed, t, points, batch_size):
        X, Y = run(sigma, seed, t, points, batch_size)
        if t == step:
            X[list(rows), 0] = np.nan
        return X, Y
    return draw
