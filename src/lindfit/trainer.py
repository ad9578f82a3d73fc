"""Fitting a Lindblad generator to one-step propagation data.

Training matches the learned propagator M = exp(dt L) to consecutive
snapshot pairs: loss = mean over the batch of ||M v_in - v_out||^2.
Gradients are exact reverse-mode derivatives through the Kossakowski
factors, the assembly map, and the same truncated Taylor series the
forward pass uses.  Optimization is plain Adam on the flat parameter
vector with fixed hyperparameters; batches are drawn uniformly with
replacement.

Trajectories are split into training and validation sets as whole
trajectories, never snapshot-wise, so validation measures generalization
to unseen initial conditions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .lindblad_generator import (
    GeneratorParams,
    _generator,
    precompute_dissipator_tensors,
    propagate,
    propagate_backward,
    propagate_with_cache,
)
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
    """Snapshot pairs (columns of the in/out arrays), split by trajectory."""

    dt: float
    train_in: np.ndarray
    train_out: np.ndarray
    val_in: np.ndarray
    val_out: np.ndarray
    train_trajectories: list
    val_trajectories: list

    @property
    def n_train_pairs(self) -> int:
        return self.train_in.shape[1]

    @property
    def n_val_pairs(self) -> int:
        return self.val_in.shape[1]


@dataclass
class AdamState:
    m: GeneratorParams
    v: GeneratorParams
    step: int = 0

    @classmethod
    def zeros(cls, n: int) -> "AdamState":
        return cls(m=GeneratorParams.zeros(n), v=GeneratorParams.zeros(n), step=0)


@dataclass
class TrainResult:
    params: GeneratorParams
    train_history: list
    val_history: list
    checkpoints: list = field(default_factory=list)
    final_state: AdamState = None


def _pairs_of(snapshots: np.ndarray):
    v = np.asarray(snapshots, dtype=float)
    return v[:-1].T.copy(), v[1:].T.copy()


def build_dataset(trajectories, split_fraction: float = 0.8,
                  rng: np.random.Generator | None = None) -> Dataset:
    """Stack consecutive-snapshot pairs and split by whole trajectories.

    The trajectory-count split is rounded to the nearest achievable value;
    with a single trajectory the validation set is empty.
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
    train_idx = sorted(order[:n_train])
    val_idx = sorted(order[n_train:])
    d2 = trajectories[0].snapshots.shape[1]

    def stack(idx):
        if not idx:
            z = np.zeros((d2, 0))
            return z, z.copy()
        ins, outs = zip(*(_pairs_of(trajectories[i].snapshots) for i in idx))
        return np.concatenate(ins, axis=1), np.concatenate(outs, axis=1)

    train_in, train_out = stack(train_idx)
    val_in, val_out = stack(val_idx)
    return Dataset(dt=dt, train_in=train_in, train_out=train_out,
                   val_in=val_in, val_out=val_out,
                   train_trajectories=list(train_idx), val_trajectories=list(val_idx))


def loss_and_gradient(params: GeneratorParams, v_in: np.ndarray, v_out: np.ndarray,
                      dt: float, tensors: np.ndarray):
    """Batch loss and its exact gradient with respect to (omega, X, Y).

    tensors is the assembly map G of precompute_dissipator_tensors; G times
    dLoss/dL gives the gradient with respect to (omega, Re c, Im c).
    """
    B = v_in.shape[1]
    M, cache = propagate_with_cache(_generator(params, tensors), dt)
    resid = M @ v_in - v_out
    loss = float((resid * resid).sum() / B)

    L_bar = propagate_backward(cache, (2.0 / B) * (resid @ v_in.T), dt)
    n = params.n
    g = tensors @ L_bar.ravel()
    r_bar = g[n:n + n * n].reshape(n, n)
    i_bar = g[n + n * n:].reshape(n, n)
    sym = r_bar + r_bar.T
    anti = i_bar - i_bar.T
    X, Y = params.X, params.Y
    return loss, GeneratorParams(g[:n], X @ sym - Y @ anti, Y @ sym + X @ anti)


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
    """One bias-corrected Adam update of theta; returns fresh (state, params)."""
    t = state.step + 1
    b1, b2 = config.beta1, config.beta2
    g = grads.theta
    m = b1 * state.m.theta + (1.0 - b1) * g
    v = b2 * state.v.theta + (1.0 - b2) * g * g
    m_hat = m / (1.0 - b1 ** t)
    v_hat = v / (1.0 - b2 ** t)
    theta = params.theta - config.learning_rate * m_hat / (np.sqrt(v_hat) + config.epsilon)
    return (AdamState(m=GeneratorParams.from_theta(m), v=GeneratorParams.from_theta(v), step=t),
            GeneratorParams.from_theta(theta))


def train(config: TrainConfig, dataset: Dataset) -> TrainResult:
    """Run the full Adam loop; deterministic for a fixed seed.

    Histories hold the loss over the complete training and validation
    sets, evaluated at initialization (epoch 0) and after every epoch.
    A handful of parameter checkpoints is kept for physicality audits.
    """
    d2 = dataset.train_in.shape[0]
    basis = basis_for_dimension(int(round(np.sqrt(d2))))
    tensors = precompute_dissipator_tensors(basis)
    n = basis.n
    rng = np.random.default_rng(config.seed)
    params = GeneratorParams.random(n, config.init_scale, rng)
    state = AdamState.zeros(n)
    n_pairs = dataset.n_train_pairs
    if n_pairs == 0:
        raise ValueError("empty training set")

    def full_loss(v_in, v_out):
        if v_in.shape[1] == 0:
            return float("nan")
        return loss(params, v_in, v_out, dataset.dt, tensors)

    train_history = [full_loss(dataset.train_in, dataset.train_out)]
    val_history = [full_loss(dataset.val_in, dataset.val_out)]
    checkpoints = [(0, params.copy())]
    mark_every = max(1, config.epochs // 4)

    for epoch in range(1, config.epochs + 1):
        for _ in range(config.batches_per_epoch):
            idx = rng.integers(0, n_pairs, size=config.batch_size)
            batch_loss, grads = loss_and_gradient(
                params, dataset.train_in[:, idx], dataset.train_out[:, idx],
                dataset.dt, tensors)
            if not np.isfinite(batch_loss):
                raise RuntimeError(
                    f"non-finite loss at epoch {epoch}, step {state.step}: {batch_loss}")
            state, params = adam_step(state, params, grads, config)
        train_history.append(full_loss(dataset.train_in, dataset.train_out))
        val_history.append(full_loss(dataset.val_in, dataset.val_out))
        if epoch % mark_every == 0 or epoch == config.epochs:
            checkpoints.append((epoch, params.copy()))

    return TrainResult(params=params, train_history=train_history,
                       val_history=val_history, checkpoints=checkpoints,
                       final_state=state)


def save_loss_curves(path, train_history, val_history) -> None:
    """CSV with one row per epoch: epoch, train_loss, val_loss."""
    with open(path, "w") as fh:
        fh.write("epoch,train_loss,val_loss\n")
        for epoch, (tr, va) in enumerate(zip(train_history, val_history)):
            fh.write(f"{epoch},{tr:.17g},{va:.17g}\n")


def _leaves(params: GeneratorParams) -> dict:
    return {"omega": params.omega.tolist(), "X": params.X.tolist(),
            "Y": params.Y.tolist()}


def _from_leaves(leaves: dict) -> GeneratorParams:
    return GeneratorParams(**{k: np.array(v, dtype=float) for k, v in leaves.items()})


def save_checkpoint(path, params: GeneratorParams, state: AdamState,
                    train_history, val_history, dt: float, convention_id: str) -> None:
    """Everything needed to resume or audit a run, as JSON."""
    import json

    payload = {
        "format": "lindfit-checkpoint-v1",
        "convention_id": convention_id,
        "dt": dt,
        "params": _leaves(params),
        "adam": {"step": state.step, "m": _leaves(state.m), "v": _leaves(state.v)},
        "train_history": list(map(float, train_history)),
        "val_history": [float(x) for x in val_history],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True)
        fh.write("\n")


def load_checkpoint(path):
    import json

    with open(path) as fh:
        payload = json.load(fh)
    if payload.get("format") != "lindfit-checkpoint-v1":
        raise ValueError(f"unrecognized checkpoint format in {path}")
    adam = payload["adam"]
    state = AdamState(m=_from_leaves(adam["m"]), v=_from_leaves(adam["v"]),
                      step=int(adam["step"]))
    return _from_leaves(payload["params"]), state, payload
