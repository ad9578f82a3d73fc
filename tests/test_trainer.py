"""Dataset splitting, loss/gradient correctness, Adam, lockstep training
and loss curves."""

from types import SimpleNamespace

import numpy as np
import pytest

from lindfit import trainer

from lindfit.lindblad_generator import (
    GeneratorParams,
    assemble_generator,
    precompute_dissipator_tensors,
    propagate,
    propagate_trajectory,
)
from lindfit.spin_algebra import build_pauli_basis, ginibre_density_matrix, rho_to_coherence
from lindfit.trainer import (
    AdamState,
    TrainConfig,
    adam_step,
    build_dataset,
    loss,
    loss_and_gradient,
    save_loss_curves,
    train,
)


def _traj(dt, snapshots):
    return SimpleNamespace(dt=dt, snapshots=np.asarray(snapshots, dtype=float))


def _synthetic_trajectories(params, basis, dt, n_steps, n_traj, seed):
    L = assemble_generator(params, basis)
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n_traj):
        v0 = rho_to_coherence(ginibre_density_matrix(basis.d, rng), basis)
        out.append(_traj(dt, propagate_trajectory(L, v0, dt, n_steps)))
    return out


def test_build_dataset_pair_alignment():
    snaps = np.arange(50, dtype=float).reshape(10, 5)
    ds = build_dataset([_traj(0.1, snaps)], split_fraction=1.0)
    assert len(ds.train) == 9 and len(ds.val) == 0
    assert ds.train.shape == (9, 10) and ds.val.shape == (0, 10)
    np.testing.assert_array_equal(ds.train[0, :5], snaps[0])
    np.testing.assert_array_equal(ds.train[0, 5:], snaps[1])
    np.testing.assert_array_equal(ds.train[8, :5], snaps[8])
    np.testing.assert_array_equal(ds.train[8, 5:], snaps[9])


def test_build_dataset_splits_whole_trajectories():
    # tag every trajectory with a constant so pair provenance is visible
    trajs = [_traj(0.1, np.full((6, 4), float(k))) for k in range(10)]
    ds = build_dataset(trajs, split_fraction=0.8, rng=np.random.default_rng(3))
    assert len(ds.train) == 8 * 5 and len(ds.val) == 2 * 5
    # no pair mixes snapshots of two trajectories
    assert np.all(ds.train[:, :4] == ds.train[:, 4:])
    train_tags = set(np.unique(ds.train))
    val_tags = set(np.unique(ds.val))
    assert len(train_tags) == 8 and len(val_tags) == 2
    assert train_tags | val_tags == set(map(float, range(10)))
    assert not train_tags & val_tags


def test_build_dataset_single_trajectory_no_val():
    ds = build_dataset([_traj(0.1, np.zeros((4, 4)))])
    assert len(ds.train) == 3 and len(ds.val) == 0


def test_build_dataset_rejects_bad_input():
    with pytest.raises(ValueError):
        build_dataset([])
    with pytest.raises(ValueError):
        build_dataset([_traj(0.1, np.zeros((4, 4)))], split_fraction=0.0)
    with pytest.raises(ValueError):
        build_dataset([_traj(0.1, np.zeros((4, 4))), _traj(0.2, np.zeros((4, 4)))])
    with pytest.raises(ValueError):
        build_dataset([_traj(0.1, np.zeros((1, 4)))])


def test_loss_zero_at_generating_params():
    basis = build_pauli_basis(1)
    tensors = precompute_dissipator_tensors(basis)
    rng = np.random.default_rng(11)
    params = GeneratorParams.random(basis.n, 0.4, rng)
    trajs = _synthetic_trajectories(params, basis, 0.05, 30, 3, seed=5)
    ds = build_dataset(trajs, split_fraction=1.0)
    v_in, v_out = ds.train[:, :4].T, ds.train[:, 4:].T
    val = loss(params, v_in, v_out, ds.dt, tensors)
    assert val < 1e-26
    g = loss_and_gradient(params, v_in, v_out, ds.dt, tensors)[1]
    assert max(np.abs(g.omega).max(), np.abs(g.X).max(), np.abs(g.Y).max()) < 1e-12


def test_loss_empty_batch_is_zero():
    basis = build_pauli_basis(1)
    tensors = precompute_dissipator_tensors(basis)
    params = GeneratorParams.from_theta(np.zeros(basis.n + 2 * basis.n ** 2))
    empty = np.zeros((4, 0))
    assert loss(params, empty, empty, 0.1, tensors) == 0.0


def test_gradient_matches_finite_differences():
    basis = build_pauli_basis(1)
    tensors = precompute_dissipator_tensors(basis)
    rng = np.random.default_rng(23)
    v_in = rng.standard_normal((4, 12))
    v_out = rng.standard_normal((4, 12))
    dt = 0.2
    for _ in range(3):
        params = GeneratorParams.random(basis.n, 0.5, rng)
        _, g = loss_and_gradient(params, v_in, v_out, dt, tensors)
        eps = 1e-6
        for leaf in ("omega", "X", "Y"):
            arr = getattr(params, leaf)
            ga = getattr(g, leaf)
            for flat in rng.choice(arr.size, size=min(5, arr.size), replace=False):
                idx = np.unravel_index(flat, arr.shape)
                save = arr[idx]
                arr[idx] = save + eps
                lp = loss(params, v_in, v_out, dt, tensors)
                arr[idx] = save - eps
                lm = loss(params, v_in, v_out, dt, tensors)
                arr[idx] = save
                fd = (lp - lm) / (2 * eps)
                assert abs(ga[idx] - fd) < 1e-6 * max(1.0, abs(fd))


def test_loss_and_gradient_propagates_once_each_way(monkeypatch):
    # one forward pass with its cache and one adjoint pass per call, through
    # the names the trainer looks up, for one cell and for a stack
    basis = build_pauli_basis(2)
    tensors = precompute_dissipator_tensors(basis)
    rng = np.random.default_rng(15)
    calls = []
    for name in ("propagate_with_cache", "propagate_backward"):
        def counting(*args, _real=getattr(trainer, name), _name=name):
            calls.append(_name)
            return _real(*args)
        monkeypatch.setattr(trainer, name, counting)
    for theta, dt in ((rng.standard_normal(465) * 0.1, 0.01),
                      (rng.standard_normal((3, 465)) * 0.1, np.full((3, 1, 1), 0.01))):
        calls.clear()
        C = 1 if theta.ndim == 1 else len(theta)
        v = rng.standard_normal((32, 8 * C))
        loss_and_gradient(GeneratorParams.from_theta(theta), v[:16], v[16:], dt, tensors)
        assert calls == ["propagate_with_cache", "propagate_backward"]


def test_loss_and_gradient_stack_equals_lone_calls():
    # each cell's loss and gradient in a stack are bit for bit a lone call's
    basis = build_pauli_basis(2)
    tensors = precompute_dissipator_tensors(basis)
    rng = np.random.default_rng(16)
    C, B = 3, 1024  # rows longer than numpy's 8192-element ufunc buffer
    theta = rng.standard_normal((C, 465)) * 0.1
    dts = np.array([0.01, 0.1, 0.01])[:, None, None]
    v = rng.standard_normal((32, B * C))
    losses, grads = loss_and_gradient(GeneratorParams.from_theta(theta),
                                      v[:16], v[16:], dts, tensors)
    for c in range(C):
        cols = slice(c * B, (c + 1) * B)
        lone_loss, lone_grads = loss_and_gradient(
            GeneratorParams.from_theta(theta[c].copy()), v[:16, cols].copy(),
            v[16:, cols].copy(), float(dts[c, 0, 0]), tensors)
        assert losses[c] == lone_loss
        np.testing.assert_array_equal(grads.theta[c], lone_grads.theta)


def test_loss_gauge_invariance():
    basis = build_pauli_basis(2)
    tensors = precompute_dissipator_tensors(basis)
    rng = np.random.default_rng(8)
    params = GeneratorParams.random(basis.n, 0.3, rng)
    q, _ = np.linalg.qr(rng.standard_normal((15, 15)))
    rotated = GeneratorParams(params.omega.copy(), q @ params.X, q @ params.Y)
    v_in = rng.standard_normal((16, 9))
    v_out = rng.standard_normal((16, 9))
    a = loss(params, v_in, v_out, 0.1, tensors)
    b = loss(rotated, v_in, v_out, 0.1, tensors)
    assert abs(a - b) < 1e-12 * max(1.0, a)


def test_adam_step_matches_reference_recurrence():
    cfg = TrainConfig(learning_rate=0.05, beta1=0.8, beta2=0.95, epsilon=1e-9)
    rng = np.random.default_rng(4)
    params = GeneratorParams.random(3, 1.0, rng)
    state = AdamState(m=np.zeros(21), v=np.zeros(21))
    # independent scalar recurrence carried alongside
    ref_p = {k: getattr(params, k).copy() for k in ("omega", "X", "Y")}
    ref_m = {k: np.zeros_like(v) for k, v in ref_p.items()}
    ref_v = {k: np.zeros_like(v) for k, v in ref_p.items()}
    for t in range(1, 4):
        grads = GeneratorParams.random(3, 1.0, rng)
        state, params = adam_step(state, params, grads, cfg)
        assert state.step == t
        for k in ("omega", "X", "Y"):
            g = getattr(grads, k)
            ref_m[k] = cfg.beta1 * ref_m[k] + (1 - cfg.beta1) * g
            ref_v[k] = cfg.beta2 * ref_v[k] + (1 - cfg.beta2) * g * g
            mh = ref_m[k] / (1 - cfg.beta1 ** t)
            vh = ref_v[k] / (1 - cfg.beta2 ** t)
            ref_p[k] = ref_p[k] - cfg.learning_rate * mh / (np.sqrt(vh) + cfg.epsilon)
            np.testing.assert_allclose(getattr(params, k), ref_p[k], atol=1e-14)


def test_adam_zero_learning_rate_freezes_params():
    cfg = TrainConfig(learning_rate=0.0)
    rng = np.random.default_rng(9)
    params = GeneratorParams.random(3, 1.0, rng)
    before = GeneratorParams.from_theta(params.theta.copy())
    state = AdamState(m=np.zeros(21), v=np.zeros(21))
    state, params = adam_step(state, params, GeneratorParams.random(3, 1.0, rng), cfg)
    np.testing.assert_array_equal(params.omega, before.omega)
    np.testing.assert_array_equal(params.X, before.X)
    np.testing.assert_array_equal(params.Y, before.Y)


def test_train_zero_epochs_returns_seeded_init():
    basis = build_pauli_basis(1)
    trajs = _synthetic_trajectories(
        GeneratorParams.random(3, 0.3, np.random.default_rng(2)), basis, 0.1, 10, 2, seed=3)
    ds = build_dataset(trajs, split_fraction=1.0)
    cfg = TrainConfig(epochs=0, init_scale=0.2, seed=17)
    res = train(cfg, ds)
    expect = GeneratorParams.random(basis.n, 0.2, np.random.default_rng(17))
    np.testing.assert_array_equal(res.params.omega, expect.omega)
    np.testing.assert_array_equal(res.params.X, expect.X)
    assert len(res.train_history) == 1 and len(res.val_history) == 1


def test_train_deterministic_and_histories():
    basis = build_pauli_basis(1)
    true = GeneratorParams.random(3, 0.4, np.random.default_rng(31))
    trajs = _synthetic_trajectories(true, basis, 0.05, 40, 5, seed=6)
    cfg = TrainConfig(epochs=5, batch_size=32, batches_per_epoch=200, seed=1, init_scale=0.05)
    ds = build_dataset(trajs, split_fraction=0.8, rng=np.random.default_rng(0))
    a = train(cfg, ds)
    b = train(cfg, ds)
    np.testing.assert_array_equal(a.params.omega, b.params.omega)
    np.testing.assert_array_equal(a.params.X, b.params.X)
    assert len(a.train_history) == cfg.epochs + 1
    assert len(a.val_history) == cfg.epochs + 1
    # training on clean synthetic data reduces the loss substantially
    assert a.train_history[-1] < a.train_history[0] / 10
    assert a.val_history[-1] < a.val_history[0] / 10


def test_train_raises_on_non_finite_loss():
    snaps = np.full((5, 4), np.inf)
    snaps[:, -1] = 1 / np.sqrt(2)
    ds = build_dataset([_traj(0.1, snaps)], split_fraction=1.0)
    with np.errstate(invalid="ignore"), pytest.raises(RuntimeError):
        train(TrainConfig(epochs=1, batches_per_epoch=1, batch_size=4), ds)


def _assert_same_result(a, b):
    np.testing.assert_array_equal(a.params.theta, b.params.theta)
    assert a.train_history == b.train_history
    np.testing.assert_array_equal(a.val_history, b.val_history)


def test_lockstep_cells_equal_lone_training(monkeypatch):
    basis = build_pauli_basis(1)
    # time steps 100x apart put the cells on different Taylor plans
    datasets = [build_dataset(_synthetic_trajectories(
        GeneratorParams.random(3, 0.5, np.random.default_rng(k)), basis, dt, 20, 4,
        seed=k), split_fraction=0.75, rng=np.random.default_rng(k))
        for k, dt in enumerate((0.01, 0.1, 1.0))]
    cfg = TrainConfig(epochs=2, batch_size=16, batches_per_epoch=30,
                      learning_rate=1e-2, init_scale=0.3, seed=4)
    alone = [train(cfg, ds) for ds in datasets]
    plans_per_step = []
    real = trainer.propagate_with_cache

    def recording(L, dt):
        M, cache = real(L, dt)
        plans_per_step.append(len(cache.groups))
        return M, cache

    monkeypatch.setattr(trainer, "propagate_with_cache", recording)
    together = train(cfg, datasets)
    assert max(plans_per_step) >= 2
    assert len(plans_per_step) == cfg.epochs * cfg.batches_per_epoch
    for a, b in zip(alone, together):
        _assert_same_result(a, b)


def test_lockstep_non_finite_cell_fails_alone():
    basis = build_pauli_basis(1)
    datasets = [build_dataset(_synthetic_trajectories(
        GeneratorParams.random(3, 0.4, np.random.default_rng(k)), basis, 0.05, 30, 3,
        seed=k), split_fraction=1.0) for k in range(3)]
    # one poisoned pair: the middle cell fails at the first batch that draws it
    datasets[1].train[40, 4:] = np.inf
    cfg = TrainConfig(epochs=3, batch_size=4, batches_per_epoch=20, seed=2)
    with np.errstate(invalid="ignore"):
        with pytest.raises(RuntimeError) as lone_failure:
            train(cfg, datasets[1])
        results = train(cfg, datasets)
    assert isinstance(results[1], RuntimeError)
    assert str(results[1]) == str(lone_failure.value)
    assert str(results[1]).startswith("non-finite loss at epoch")
    assert "step 0:" not in str(results[1])  # it failed mid-training
    for k in (0, 2):
        _assert_same_result(results[k], train(cfg, datasets[k]))


def test_save_loss_curves(tmp_path):
    path = tmp_path / "loss.csv"
    save_loss_curves(path, [2.0, 1.0, 0.5], [2.5, 1.5, float("nan")])
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "epoch,train_loss,val_loss"
    assert len(lines) == 4
    assert lines[1].startswith("0,")
    assert lines[3].split(",")[2] == "nan"
