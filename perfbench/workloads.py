"""Workload definitions: seeded configs and the command sequence of each.

The chain physics of a workload is fixed; the seed picks the random
subsystem initial states, the train/validation split and the optimizer's
initialization and batches.  Every config bounds the stationary-state
windows (`metrics.max_window_steps`, `metrics.n_initial_conditions`): left
at their defaults, eval and stationary would simulate b*tau/dt steps per
initial condition, and the run length would follow the learned tau instead
of the benchmark.  Why each workload was chosen is recorded in
BENCHMARK.json.
"""

import random

PIPELINE = ("gen-data", "train", "eval", "stationary", "interpret")
DT = 0.01

# "full" is what the benchmark measures; "tiny" only checks that every
# metric is emitted and that the correctness gate trips.
_SIZES = {
    "fit": {
        "full": dict(n_sites=6, T_train=5.0, T_extrapolate=10.0, n_traj=10,
                     n_eval=2, epochs=12, batches=256, batch_size=256,
                     windows=1000, n_ic=2),
        "tiny": dict(n_sites=4, T_train=0.5, T_extrapolate=1.0, n_traj=3,
                     n_eval=1, epochs=2, batches=8, batch_size=32,
                     windows=50, n_ic=1),
    },
    "simulate": {
        "full": dict(n_sites=8, T_train=1.0, T_extrapolate=2.0, n_traj=6,
                     n_eval=2, epochs=2, batches=256, batch_size=256,
                     windows=200, n_ic=2),
        "tiny": dict(n_sites=4, T_train=0.5, T_extrapolate=1.0, n_traj=3,
                     n_eval=1, epochs=1, batches=8, batch_size=32,
                     windows=50, n_ic=1),
    },
    "scan": {
        "full": dict(n_sites=6, T_train=2.0, T_extrapolate=4.0, n_traj=4,
                     n_eval=2, epochs=4, batches=64, batch_size=256,
                     windows=500, n_ic=2,
                     alpha=(0.5, 1.0, 1.5, 2.0), V=(0.5, 1.0, 2.0)),
        "tiny": dict(n_sites=4, T_train=0.5, T_extrapolate=1.0, n_traj=2,
                     n_eval=1, epochs=1, batches=4, batch_size=32,
                     windows=50, n_ic=1, alpha=(0.5, 1.0), V=(0.5, 1.0, 2.0)),
    },
}


def make_config(workload, seed, size="full"):
    """The JSON config one repetition of `workload` runs from."""
    s = _SIZES[workload][size]
    rng = random.Random(f"{workload}:{seed}")
    if workload == "fit":
        model = {"variant": "I", "n_sites": s["n_sites"], "omega": 1.0,
                 "V": 1.0, "V_prime": 0.3, "beta": 0.0}
    else:
        model = {"variant": "II", "n_sites": s["n_sites"], "omega": 1.0,
                 "V": 1.0, "alpha": 1.0, "beta": 0.0}
    cfg = {
        "model": model,
        "simulation": {"dt": DT, "T_train": s["T_train"],
                       "T_extrapolate": s["T_extrapolate"],
                       "n_trajectories": s["n_traj"],
                       "n_eval_trajectories": s["n_eval"],
                       "seed": rng.randrange(1 << 31)},
        "training": {"epochs": s["epochs"], "batches_per_epoch": s["batches"],
                     "batch_size": s["batch_size"], "learning_rate": 1e-2,
                     "init_scale": 0.05, "seed": rng.randrange(1 << 31)},
        "metrics": {"max_window_steps": s["windows"],
                    "n_initial_conditions": s["n_ic"]},
    }
    if workload == "scan":
        cfg["scan"] = {"axis1_name": "alpha", "axis1_values": list(s["alpha"]),
                       "axis2_name": "V", "axis2_values": list(s["V"])}
    return cfg


def commands(workload):
    return ("scan",) if workload == "scan" else PIPELINE


def input_sizes(workload, size="full"):
    """Work each command is given, printed next to its time."""
    s = _SIZES[workload][size]
    n_steps = int(round(s["T_extrapolate"] / DT))
    adam = s["epochs"] * s["batches"]
    window = f"{s['n_ic']} x <={s['windows'] + 1} snapshots"
    sim = f"{s['n_traj'] + s['n_eval']} x {n_steps + 1} snapshots, m={2 ** s['n_sites']}"
    if workload == "scan":
        cells = len(s["alpha"]) * len(s["V"])
        return {"wall_s": f"{cells} cells, each {sim}, {adam} Adam steps, "
                          f"window {window}"}
    return {"gen_data_s": sim, "train_s": f"{adam} Adam steps",
            "eval_s": f"{s['n_eval']} trajectories, window {window}",
            "stationary_s": f"window {window}",
            "wall_s": f"{len(PIPELINE)} commands"}
