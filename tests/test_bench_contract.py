"""The benchmark's contract with the package.

`perfbench/tracing.py` wraps lindfit's public functions by module and name
and reads some of their arguments and results; `perfbench/setup_probe.py`
imports a few of them.  A rename or a moved argument would silently turn
the traced counters into zeros, so the names and argument positions the
benchmark relies on are pinned here.  perfbench is read by path, never
edited.
"""

import ast
import importlib
import importlib.util
import inspect
import os
from types import SimpleNamespace

import numpy as np
import pytest

from lindfit.lindblad_generator import (
    GeneratorParams,
    assemble_generator,
    precompute_dissipator_tensors,
    propagate_trajectory,
    propagate_with_cache,
)
from lindfit.many_body_sim import SpinChainModel, generate_trajectory
from lindfit.spin_algebra import build_pauli_basis

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")

# names layer_metrics reads spans of, beside the _ATTRS keys and POOL_TASKS
LAYER_METRIC_NAMES = (
    "many_body_sim.generate_trajectory",
    "many_body_sim.model_hamiltonian",
    "many_body_sim.save_trajectory",
    "many_body_sim.load_trajectory",
    "trainer.loss_and_gradient",
    "trainer.adam_step",
    "trainer.loss",
    "lindblad_generator.propagate_with_cache",
    "lindblad_generator.propagate_backward",
    "lindblad_generator.stationary_state",
    "lindblad_generator.precompute_dissipator_tensors",
    "lindblad_generator.propagate",
    "spin_algebra.build_pauli_basis",
)


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", os.path.join(PERFBENCH, "tracing.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _setup_probe_names():
    with open(os.path.join(PERFBENCH, "setup_probe.py")) as fh:
        tree = ast.parse(fh.read())
    return [f"{node.module.split('.', 1)[1]}.{alias.name}"
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module.startswith("lindfit.")
            for alias in node.names]


def _resolve(name):
    layer, attr = name.split(".", 1)
    module = importlib.import_module(f"lindfit.{layer}")
    return module, getattr(module, attr)


def test_traced_names_resolve(tracing):
    names = (set(LAYER_METRIC_NAMES) | set(tracing._ATTRS)
             | set(tracing.POOL_TASKS) | set(_setup_probe_names()))
    assert "cli.load_config" in names  # the probe's imports were found
    for name in sorted(names):
        module, fn = _resolve(name)
        # the tracer wraps only functions defined in the layer it names
        assert callable(fn) and not isinstance(fn, type), name
        assert fn.__module__ == module.__name__, name
        assert name.split(".", 1)[0] in tracing.LAYERS, name


def _attr_calls(tmp_path):
    """A real call of every function whose arguments _ATTRS reads."""
    basis = build_pauli_basis(2)
    tensors = precompute_dissipator_tensors(basis)
    params = GeneratorParams.random(basis.n, 0.1, np.random.default_rng(0))
    L = assemble_generator(params, basis, tensors)
    model = SpinChainModel("I", 4, 1.0, 0.5, V_prime=0.2)
    traj = generate_trajectory(model, 0.1, 20, 3)
    pred = SimpleNamespace(dt=0.1, snapshots=propagate_trajectory(
        L, traj.snapshots[0], 0.1, 20))
    v = traj.snapshots.T
    return {
        "many_body_sim.generate_trajectory": (model, 0.1, 20, 3),
        "many_body_sim.save_trajectory": (str(tmp_path / "t.csv"), traj),
        "trainer.loss_and_gradient": (params, v[:, :-1], v[:, 1:], 0.1, tensors),
        "lindblad_generator.propagate_with_cache": (L, 0.1),
        "metrics.i_err": (traj, pred, 0.0, 1.0),
        "metrics.fvu": (traj, pred),
        "metrics.stationary_error": ([traj], traj.snapshots[-1], 0.2, 2.0, 4.0),
    }


def test_attrs_read_arguments_where_they_are(tracing, tmp_path, monkeypatch):
    calls = _attr_calls(tmp_path)
    assert set(calls) == set(tracing._ATTRS), "a call is needed per _ATTRS entry"
    read = []
    real_arg = tracing._arg

    def recording_arg(args, kwargs, i, key):
        read.append((i, key))
        return real_arg(args, kwargs, i, key)

    monkeypatch.setattr(tracing, "_arg", recording_arg)
    for name, args in calls.items():
        _, fn = _resolve(name)
        result = fn(*args)
        params = list(inspect.signature(fn).parameters)
        read.clear()
        positional = tracing._ATTRS[name](args, {}, result)
        for i, key in read:
            assert params[i] == key, f"{name} reads {key!r} at position {i}"
        by_name = dict(zip(params, args))
        assert tracing._ATTRS[name]((), by_name, result) == positional, name


def test_propagate_with_cache_exposes_terms_and_squares():
    A = np.diag([-3.0, 0.5, 2.0])
    _, cache = propagate_with_cache(A, 1.0)
    assert len(cache.terms) > 1
    assert len(cache.squares) >= 1
