"""Fitting a Lindblad generator to one-step propagation data.

Training matches the learned propagator M = exp(dt L) to consecutive
snapshot pairs: loss = mean over the batch of ||M v_in - v_out||^2.
Gradients are exact reverse-mode derivatives through the same truncated
Taylor series the forward pass uses; lindblad_generator maps them back
through the folded assembly map and the Kossakowski factors, so the
trainer sees the parameters only as one flat vector theta.  Optimization
is plain Adam on theta with fixed hyperparameters, updated in place, its
moments plain arrays shaped like theta; batches are drawn uniformly with
replacement.

A dataset holds each role's pairs once, as a table with one row
[v_in | v_out] per pair; a batch is a gather of rows, handed to
loss_and_gradient as columns, which works on them one pair per row.

train runs C problems in lockstep: parameters, Adam moments and batches
carry a leading cell axis, and each step is one loss_and_gradient and one
adam_step over all cells.  Cells are grouped by Taylor plan and every
matrix product is the one a lone cell takes, so a cell's result does not
depend on the cells trained beside it; a single problem is C = 1.

Trajectories are split into training and validation sets as whole
trajectories, never snapshot-wise, so validation measures generalization
to unseen initial conditions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lindblad_generator import (
    GeneratorParams,
    _generator,
    _theta_gradient,
    precompute_dissipator_tensors,
    propagate,
    propagate_backward,
    propagate_with_cache,
)
from .files import write_csv
from .spin_algebra import basis_for_dimension


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    epochs: int = 20
    batch_size: int = 256
    batches_per_epoch: int = 512
    init_scale: float = 0.1
    seed: int = 0


@dataclass
class Dataset:
    """Snapshot pairs split by trajectory: train and val hold one row
    [v_in | v_out] per pair, of 2 d^2 values."""

    dt: float
    train: np.ndarray
    val: np.ndarray


@dataclass
class AdamState:
    """Adam's first and second moments, arrays shaped like theta."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0


@dataclass
class TrainResult:
    params: GeneratorParams
    train_history: list
    val_history: list


def build_dataset(trajectories, split_fraction: float = 0.8,
                  rng: np.random.Generator | None = None) -> Dataset:
    """Tabulate consecutive-snapshot pairs, split by whole trajectories.

    Each role's table has one row [v_in | v_out] per pair, trajectory after
    trajectory in index order.  The trajectory-count split is rounded to
    the nearest achievable value; with a single trajectory the validation
    set is empty.
    """
    if not trajectories:
        raise ValueError("no trajectories given")
    if not 0.0 < split_fraction <= 1.0:
        raise ValueError(f"split fraction {split_fraction} outside (0, 1]")
    if rng is None:
        rng = np.random.default_rng(0)
    dt = float(trajectories[0].dt)
    for tr in trajectories:
        if abs(float(tr.dt) - dt) > 1e-15:
            raise ValueError("trajectories have mismatched dt")
        if tr.snapshots.shape[0] < 2:
            raise ValueError("trajectory with fewer than 2 snapshots")
    order = rng.permutation(len(trajectories))
    n_train = int(round(split_fraction * len(trajectories)))
    n_train = min(max(n_train, 1), len(trajectories))
    d2 = trajectories[0].snapshots.shape[1]

    def table(idx):
        rows = [np.hstack((v[:-1], v[1:])) for v in
                (np.asarray(trajectories[i].snapshots, dtype=float) for i in sorted(idx))]
        return np.concatenate(rows) if rows else np.zeros((0, 2 * d2))

    return Dataset(dt=dt, train=table(order[:n_train]), val=table(order[n_train:]))


def loss_and_gradient(params: GeneratorParams, v_in: np.ndarray, v_out: np.ndarray,
                      dt: float, tensors: np.ndarray):
    """Batch loss and its exact gradient with respect to (omega, X, Y).

    tensors is the assembly map G of precompute_dissipator_tensors; G times
    dLoss/dL gives the gradient with respect to the folded coefficients
    (omega, Re c, Im c).

    For C cells at once, params.theta has shape (C, n + 2n^2), v_in and
    v_out hold the cells' equal batches side by side (cell c in columns
    c*B to (c+1)*B - 1), dt is one time step or C of them shaped
    (C, 1, 1), and the loss is an array of C values.  One parameter set
    runs as a stack of one, through the same lines.  Each cell's loss and
    gradient come from the products a lone call makes, so they do not
    depend on the other cells.
    """
    theta = params.theta
    cells = params if theta.ndim == 2 else GeneratorParams.from_theta(theta[None])
    C = cells.theta.shape[0]
    d2, B = v_in.shape[0], v_in.shape[1] // C
    # one pair per row, (C, B, d2)
    x, y = v_in.T.reshape(C, B, d2), v_out.T.reshape(C, B, d2)
    M, cache = propagate_with_cache(_generator(cells, tensors), dt)
    resid = x @ M.swapaxes(-1, -2)
    resid -= y
    flat = resid.reshape(C, -1)
    # per-cell dot products, each the one a lone cell takes
    losses = (flat[:, None, :] @ flat[:, :, None])[:, 0, 0] / B
    M_bar = resid.swapaxes(-1, -2) @ x
    M_bar *= 2.0 / B
    grads = GeneratorParams.from_theta(_theta_gradient(
        cells, tensors, propagate_backward(cache, M_bar, dt)).reshape(theta.shape))
    if theta.ndim == 1:
        return float(losses[0]), grads
    return losses, grads


def loss(params: GeneratorParams, v_in: np.ndarray, v_out: np.ndarray,
         dt: float, tensors: np.ndarray) -> float:
    """Forward-only batch loss (empty batches score 0)."""
    B = v_in.shape[1]
    if B == 0:
        return 0.0
    resid = propagate(_generator(params, tensors), dt) @ v_in - v_out
    return float((resid * resid).sum() / B)


def adam_step(state: AdamState, params: GeneratorParams, grads: GeneratorParams,
              config: TrainConfig):
    """One bias-corrected Adam update of theta; returns (state, params).

    The update is in place: params.theta, state.m, state.v and state.step
    change, and the returned objects are the ones passed in.  Copy them
    first to keep the old values.

    The bias corrections are folded into the step size and epsilon
    (Kingma & Ba 2015, end of section 2).  Elementwise, so stacked
    parameter sets update as they would alone.
    """
    t = state.step = state.step + 1
    b1, b2 = config.beta1, config.beta2
    g = grads.theta
    m, v = state.m, state.v
    m *= b1
    m += (1.0 - b1) * g
    v *= b2
    v += (1.0 - b2) * g * g
    root_c2 = math.sqrt(1.0 - b2 ** t)
    step = np.sqrt(v)
    step += config.epsilon * root_c2
    np.divide(m, step, out=step)
    step *= config.learning_rate * root_c2 / (1.0 - b1 ** t)
    params.theta -= step
    return state, params


def train(config: TrainConfig, dataset):
    """Run the Adam loop; deterministic for a fixed seed.

    dataset is one Dataset, or a sequence of C datasets of one operator
    dimension trained in lockstep.  Each cell draws its initialization and
    batches from its own generator seeded with config.seed, and every step
    is one loss_and_gradient and one adam_step over the cells still
    training, so a cell ends bit for bit where it would alone.  A sequence
    returns a list with each cell's TrainResult, or the exception that
    stopped the cell (an empty training set, or a non-finite batch loss,
    after which the other cells go on); a single Dataset returns its
    TrainResult or raises that exception.

    Histories hold the loss over the complete training and validation
    sets, evaluated at initialization (epoch 0) and after every epoch.
    """
    single = isinstance(dataset, Dataset)
    datasets = [dataset] if single else list(dataset)
    results = [ValueError("empty training set") if len(ds.train) == 0 else None
               for ds in datasets]
    live = [i for i, r in enumerate(results) if r is None]
    if live:
        _train_cells(config, [datasets[i] for i in live], live, results)
    if single:
        if isinstance(results[0], Exception):
            raise results[0]
        return results[0]
    return results


def _train_cells(config, datasets, ids, results):
    """The lockstep Adam loop of train over non-empty datasets; writes
    results[ids[c]] for cell c."""
    d2 = datasets[0].train.shape[1] // 2
    if any(ds.train.shape[1] != 2 * d2 for ds in datasets):
        raise ValueError("datasets of different operator dimensions")
    basis = basis_for_dimension(int(round(np.sqrt(d2))))
    tensors = precompute_dissipator_tensors(basis)
    rngs = [np.random.default_rng(config.seed) for _ in datasets]
    params = GeneratorParams.from_theta(np.stack(
        [GeneratorParams.random(basis.n, config.init_scale, rng).theta for rng in rngs]))
    state = AdamState(m=np.zeros_like(params.theta), v=np.zeros_like(params.theta))
    # the training tables one after another; cell c's rows start at offsets[c]
    pairs = np.concatenate([ds.train for ds in datasets])
    sizes = [len(ds.train) for ds in datasets]
    offsets = [sum(sizes[:c]) for c in range(len(sizes))]
    dts = np.array([ds.dt for ds in datasets])[:, None, None]
    histories = [([], []) for _ in datasets]

    def record():
        for theta, ds, (train_h, val_h) in zip(params.theta, datasets, histories):
            cell = GeneratorParams.from_theta(theta)
            for table, history in ((ds.train, train_h), (ds.val, val_h)):
                history.append(float("nan") if len(table) == 0 else
                               loss(cell, table[:, :d2].T, table[:, d2:].T, ds.dt, tensors))

    record()
    idx = np.empty((len(datasets), config.batch_size), dtype=np.int64)
    for epoch in range(1, config.epochs + 1):
        for _ in range(config.batches_per_epoch):
            for c, rng in enumerate(rngs):
                idx[c] = rng.integers(offsets[c], offsets[c] + sizes[c],
                                      size=config.batch_size)
            # the cells' batches side by side, one column [v_in; v_out] per pair
            batch = pairs.take(idx.ravel(), axis=0).T
            losses, grads = loss_and_gradient(params, batch[:d2], batch[d2:], dts, tensors)
            bad = {c: x for c, x in enumerate(losses.tolist())
                   if not math.isfinite(x)}
            if bad:
                for c, x in bad.items():
                    results[ids[c]] = RuntimeError(
                        f"non-finite loss at epoch {epoch}, step {state.step}: {x}")
                keep = [c for c in range(len(ids)) if c not in bad]
                if not keep:
                    return
                params, grads = (GeneratorParams.from_theta(p.theta[keep])
                                 for p in (params, grads))
                state = AdamState(m=state.m[keep], v=state.v[keep], step=state.step)
                datasets, ids, rngs, histories, sizes, offsets = (
                    [x[c] for c in keep]
                    for x in (datasets, ids, rngs, histories, sizes, offsets))
                dts, idx = dts[keep], idx[keep]
            state, params = adam_step(state, params, grads, config)
        record()

    for c, (train_h, val_h) in enumerate(histories):
        results[ids[c]] = TrainResult(
            params=GeneratorParams.from_theta(params.theta[c].copy()),
            train_history=train_h, val_history=val_h)


def save_loss_curves(path, train_history, val_history) -> None:
    """CSV with one row per epoch: epoch, train_loss, val_loss."""
    write_csv(path, ["epoch", "train_loss", "val_loss"],
              [(epoch, tr, va) for epoch, (tr, va)
               in enumerate(zip(train_history, val_history))])
