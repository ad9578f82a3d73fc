"""Span tracing of the lindfit package from outside it, and the per-layer
numbers derived from the spans.

Run as a script, this module stands in for `python -m lindfit.cli`:

    PERFBENCH_SPANS=<dir> python perfbench/tracing.py --config c.json gen-data

It wraps every public function of every lindfit module at every name it is
looked up by (the defining module's attribute and each `from` import of it
into another module), records one span per call in memory with the id of
the enclosing span, and writes the spans of the process to
`<dir>/<pid>.jsonl` when the command ends.  Pool workers exit without
running atexit handlers, so a worker writes its spans before each pool task
returns.  Nothing in the package is edited.
"""

import importlib
import json
import multiprocessing
import os
import statistics
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from functools import wraps

SPANS_ENV = "PERFBENCH_SPANS"
LAYERS = ("spin_algebra", "many_body_sim", "lindblad_generator", "trainer",
          "metrics", "cli")
# private cli functions that run as pool tasks: their spans are the workers'
# busy time, and a worker writes its spans when one returns
POOL_TASKS = ("cli._gen_worker", "cli._scan_cell")


class _Recorder:
    """In-memory span store of one process."""

    def __init__(self, out_dir):
        self.out_dir = out_dir
        self.reset()

    def reset(self):
        self.pid = os.getpid()
        self.spans = []
        self.stack = []
        self.next_id = 0

    def open(self):
        self.next_id += 1
        sid = f"{self.pid}.{self.next_id}"
        parent = self.stack[-1] if self.stack else None
        self.stack.append(sid)
        return sid, parent

    def close(self, sid, parent, name, t0, t1, attrs=None):
        self.stack.pop()
        self.spans.append({"id": sid, "parent": parent, "name": name,
                           "t0": t0, "t1": t1, "pid": self.pid,
                           "attrs": attrs})

    def flush(self):
        if not self.spans:
            return
        with open(os.path.join(self.out_dir, f"{self.pid}.jsonl"), "a") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
        self.spans = []


_REC = None


def _arg(args, kwargs, i, key):
    return args[i] if len(args) > i else kwargs[key]


def _traj_attrs(a, k, _):
    model, dt, n_steps, seed = (_arg(a, k, i, key) for i, key in
                                enumerate(("model", "dt", "n_steps", "seed")))
    return {"snapshots": n_steps + 1, "m": 1 << model.n_sites,
            "key": f"{model!r}|{seed}|{dt!r}|{n_steps}"}


def _i_err_attrs(a, k, _):
    exact, t_in, t_fin = (_arg(a, k, 0, "exact"), _arg(a, k, 2, "t_in"),
                          _arg(a, k, 3, "t_fin"))
    return {"snapshots": int(round((t_fin - t_in) / exact.dt)) + 1}


# work counts read from a call's arguments or result, by span name
_ATTRS = {
    "many_body_sim.generate_trajectory": _traj_attrs,
    "many_body_sim.save_trajectory":
        lambda a, k, _: {"bytes": os.path.getsize(_arg(a, k, 0, "path"))},
    "trainer.loss_and_gradient":
        lambda a, k, _: {"pairs": int(_arg(a, k, 1, "v_in").shape[1])},
    "lindblad_generator.propagate_with_cache":
        lambda a, k, r: {"terms": len(r[1].terms) - 1,
                         "squarings": len(r[1].squares)},
    "metrics.i_err": _i_err_attrs,
    "metrics.fvu":
        lambda a, k, _: {"snapshots": int(_arg(a, k, 0, "exact").snapshots.shape[0])},
    "metrics.stationary_error":
        lambda a, k, _: {"snapshots": sum(int(t.snapshots.shape[0]) for t in
                                          _arg(a, k, 0, "exact_trajectories"))},
}


def _wrap(fn, name):
    attrs_of = _ATTRS.get(name)
    is_task = name in POOL_TASKS

    @wraps(fn)
    def traced(*args, **kwargs):
        rec = _REC
        sid, parent = rec.open()
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            rec.close(sid, parent, name, t0, time.perf_counter(),
                      {"raised": True})
            raise
        t1 = time.perf_counter()
        rec.close(sid, parent, name, t0, t1,
                  attrs_of(args, kwargs, result) if attrs_of else None)
        if is_task and multiprocessing.parent_process() is not None:
            rec.flush()
        return result
    return traced


class _TracedPool(ProcessPoolExecutor):
    """The pool's whole `with` block is one span: time the command waits."""

    def __enter__(self):
        self._span = _REC.open()
        self._t0 = time.perf_counter()
        return super().__enter__()

    def __exit__(self, *exc):
        out = super().__exit__(*exc)
        _REC.close(*self._span, "cli.pool", self._t0, time.perf_counter(),
                   {"workers": self._max_workers})
        return out


def install(out_dir):
    """Wrap the package's public functions; once per process."""
    global _REC
    if _REC is not None:
        return
    _REC = _Recorder(out_dir)
    os.register_at_fork(after_in_child=_REC.reset)
    import lindfit
    mods = {layer: importlib.import_module(f"lindfit.{layer}")
            for layer in LAYERS}
    wrapped = {}
    for layer, mod in mods.items():
        for attr, obj in vars(mod).items():
            name = f"{layer}.{attr}"
            if (callable(obj) and not isinstance(obj, type)
                    and getattr(obj, "__module__", None) == mod.__name__
                    and (not attr.startswith("_") or name in POOL_TASKS)):
                wrapped[id(obj)] = (obj, _wrap(obj, name))
    for mod in [lindfit, *mods.values()]:
        for attr, obj in list(vars(mod).items()):
            hit = wrapped.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])
    mods["cli"].ProcessPoolExecutor = _TracedPool


def _run_cli():
    install(os.environ[SPANS_ENV])
    import lindfit.cli
    rec = _REC
    sid, parent = rec.open()
    t0 = time.perf_counter()
    try:
        return lindfit.cli.main(sys.argv[1:])
    finally:
        rec.close(sid, parent, "cli.main", t0, time.perf_counter())
        rec.flush()


# ---------------------------------------------------------------- analysis

def load_spans(out_dir):
    spans = []
    for name in sorted(os.listdir(out_dir)):
        if name.endswith(".jsonl"):
            with open(os.path.join(out_dir, name)) as fh:
                spans.extend(json.loads(line) for line in fh)
    return spans


def _pct(values, q):
    """Nearest-rank percentile, q in (0, 100]; 0 for no samples."""
    vals = sorted(values)
    if not vals:
        return 0.0
    return vals[max(0, -(-q * len(vals) // 100) - 1)]


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans):
    """Per-layer numbers of one traced repetition.

    Returns {metric name: (value, unit, sample count)}.
    """
    by_id = {s["id"]: s for s in spans}
    by_name = {}
    child_time = {}
    for s in spans:
        s["dur"] = s["t1"] - s["t0"]
        by_name.setdefault(s["name"], []).append(s)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["dur"]
    main_of_pid = {s["pid"]: s for s in by_name.get("cli.main", ())}

    def durs(name):
        return [s["dur"] for s in by_name.get(name, ())]

    def attr_sum(name, key):
        return sum((s["attrs"] or {}).get(key, 0) for s in by_name.get(name, ()))

    out = {}

    def put(metric, value, unit, n):
        out[metric] = (float(value), unit, int(n))

    def put_calls(name):
        put(f"{name}.calls", len(durs(name)), "count", len(durs(name)))

    def put_busy(name):
        put(f"{name}.busy_s", sum(durs(name)), "s", len(durs(name)))

    # self time of each layer; the pool's with-block is waiting, not cli work
    self_t = dict.fromkeys(LAYERS, 0.0)
    pool_wait = 0.0
    for s in spans:
        own = s["dur"] - child_time.get(s["id"], 0.0)
        if s["name"] == "cli.pool":
            pool_wait += own
        else:
            self_t[s["name"].split(".", 1)[0]] += own
    for layer in LAYERS:
        put(f"{layer}.self_s", self_t[layer], "s", len(spans))

    g = "many_body_sim.generate_trajectory"
    gd = durs(g)
    put_calls(g)
    put_busy(g)
    put(f"{g}.p50_s", _pct(gd, 50), "s", len(gd))
    put(f"{g}.p90_s", _pct(gd, 90), "s", len(gd))
    elems = sum(s["attrs"]["snapshots"] * s["attrs"]["m"] ** 2
                for s in by_name.get(g, ()) if s["attrs"] and "m" in s["attrs"])
    put("many_body_sim.gelem_per_s_computed", _ratio(elems / 1e9, sum(gd)),
        "Gelem/s", len(gd))
    keys = [s["attrs"]["key"] for s in by_name.get(g, ())
            if s["attrs"] and "key" in s["attrs"]]
    put("many_body_sim.unique_traj_ratio", _ratio(len(set(keys)), len(keys)),
        "ratio", len(keys))
    put_calls("many_body_sim.model_hamiltonian")
    put_busy("many_body_sim.save_trajectory")
    put_busy("many_body_sim.load_trajectory")
    put("many_body_sim.bytes_written",
        attr_sum("many_body_sim.save_trajectory", "bytes"), "B",
        len(durs("many_body_sim.save_trajectory")))

    lg = "trainer.loss_and_gradient"
    lgd = durs(lg)
    put_calls(lg)
    put(f"{lg}.p50_s", _pct(lgd, 50), "s", len(lgd))
    put(f"{lg}.p99_s", _pct(lgd, 99), "s", len(lgd))
    put_busy("trainer.adam_step")
    put("trainer.pairs_per_s", _ratio(attr_sum(lg, "pairs"), sum(lgd)), "1/s",
        len(lgd))
    put_calls("trainer.loss")
    put_busy("trainer.loss")
    # gradients Adam consumes over gradients computed: loss() computes one
    # and throws it away
    put("trainer.gradient_useful_ratio",
        _ratio(len(durs("trainer.adam_step")), len(lgd)), "ratio", len(lgd))

    lb = "lindblad_generator."
    for f in ("propagate_with_cache", "propagate_backward", "stationary_state",
              "precompute_dissipator_tensors"):
        put_busy(lb + f)
    put_calls(lb + "propagate")
    n_pw = len(durs(lb + "propagate_with_cache"))
    put(lb + "expm_terms_mean",
        _ratio(attr_sum(lb + "propagate_with_cache", "terms"), n_pw),
        "count", n_pw)
    put(lb + "expm_squarings_mean",
        _ratio(attr_sum(lb + "propagate_with_cache", "squarings"), n_pw),
        "count", n_pw)

    # metrics: time in the layer counted once, at its outermost spans
    outer = [s for s in spans if s["name"].startswith("metrics.")
             and not by_id.get(s["parent"], {"name": ""})["name"]
             .startswith("metrics.")]
    put("metrics.busy_s", sum(s["dur"] for s in outer), "s", len(outer))
    put("metrics.snapshots_scored",
        sum((s["attrs"] or {}).get("snapshots", 0) for s in outer), "count",
        len(outer))

    b = "spin_algebra.build_pauli_basis"
    put_calls(b)
    put_busy(b)

    put("cli.pool_wait_s", pool_wait, "s", len(durs("cli.pool")))
    # outermost task spans of worker processes: a scan cell runs gen-data's
    # task function inline, inside its own task
    task_time = sum(s["dur"] for name in POOL_TASKS
                    for s in by_name.get(name, ())
                    if s["pid"] not in main_of_pid and s["parent"] is None)
    capacity = sum(p["attrs"]["workers"] * main_of_pid[p["pid"]]["dur"]
                   for p in by_name.get("cli.pool", ()))
    put("cli.pool_busy_frac", _ratio(task_time, capacity), "ratio",
        len(durs("cli.pool")))
    return out


def median_metrics(per_rep):
    """Median over repetitions of each per-layer metric."""
    return {name: (statistics.median(rep[name][0] for rep in per_rep),
                   unit, n)
            for name, (_, unit, n) in per_rep[0].items()}


if os.environ.get(SPANS_ENV) and __name__ == "__mp_main__":
    # a spawned pool worker re-imports the main script under this name
    install(os.environ[SPANS_ENV])

if __name__ == "__main__":
    sys.exit(_run_cli())
