"""Self-test of the benchmark at tiny sizes (about a minute).

    python3 perfbench/selftest.py

For each workload it runs one untraced and one traced pass at tiny size and
checks that every metric BENCHMARK.json names, and every end-to-end metric
the benchmark prints, is emitted with its unit or listed as dropped with a
reason.  Then it corrupts copies of one pass's outputs (a non-PSD snapshot,
a snapshot off the exact dynamics, a non-PSD model prediction, a non-finite
report, a failed scan cell) and checks that each one trips the correctness
gate and that a tripped gate marks the result incorrect.
"""

import csv
import glob
import json
import os
import shutil
import sys

import checks
import run

PRINTED_END_TO_END = {
    "setup_s": "s", "wall_s": "s", "gen_data_s": "s", "train_s": "s",
    "eval_s": "s", "stationary_s": "s", "peak_rss_mb": "MB",
    "i_err_interp": "1", "i_err_extrap": "1", "epsilon_stationary": "1",
    "final_train_loss": "1", "failed_frac": "ratio",
}


def _fail(msg):
    print(f"SELFTEST FAILED: {msg}")
    sys.exit(1)


def _check_emitted(result, spec):
    wl = result["workload"]
    if result["trace"]:
        got = run.per_layer(result)
        want = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        got = run.end_to_end(result)
        want = dict(PRINTED_END_TO_END,
                    **{m["name"]: m["unit"] for m in spec["end_to_end"]})
    dropped = run.DROPPED.get(wl, {}) if not result["trace"] else {}
    for name, unit in want.items():
        if name in got:
            if got[name][1] != unit:
                _fail(f"{wl}: {name} has unit {got[name][1]}, expected {unit}")
        elif not dropped.get(name):
            _fail(f"{wl}: {name} neither emitted nor dropped with a reason")
    line = run.report(result)
    if not line["correct"] or line["failed"]:
        _fail(f"{wl} trace={result['trace']}: clean tiny run not correct")


def _corrupt_csv_row(path, row, fn):
    """Apply fn to the cells of data row `row` of a trajectory or series CSV."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    head = next(k for k, ln in enumerate(lines)
                if ln.startswith(("step,", "t_over_omega_inv,")))
    lines[head + 1 + row] = ",".join(fn(lines[head + 1 + row].split(",")))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _scale_bloch(first, last):
    """Blow up the traceless components so the state has a negative eigenvalue."""
    def fn(cells):
        return [c if not first <= k <= last else repr(10 * float(c))
                for k, c in enumerate(cells)]
    return fn


def _nudge(col):
    def fn(cells):
        cells[col] = repr(float(cells[col]) + 1e-6)
        return cells
    return fn


def _set_report_nan(out):
    path = os.path.join(out, "reports", "eval_report.csv")
    with open(path) as fh:
        rows = list(csv.reader(fh))
    rows[1][0] = "nan"
    with open(path, "w") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _fail_scan_cell(out):
    path = os.path.join(out, "scan", "scan_results.csv")
    with open(path) as fh:
        text = fh.read()
    with open(path, "w") as fh:
        fh.write(text.replace(",ok\n", ",failed: injected\n", 1))


def _expect_trip(workload, out, corrupt, expected):
    scratch = out.rstrip("/") + "-corrupt"
    shutil.rmtree(scratch, ignore_errors=True)
    shutil.copytree(out, scratch)
    corrupt(scratch)
    tripped = [name for name, msg in checks.check_outputs(workload, scratch)
               if msg]
    if not any(name.startswith(expected) for name in tripped):
        _fail(f"{workload}: corruption for {expected} tripped {tripped}")
    shutil.rmtree(scratch)
    print(f"selftest: {workload}: {expected} trips the gate")


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    kept = {}
    for wl in run.WORKLOADS:
        for trace in (0, 1):
            result = run.run_workload(wl, seed=0, seconds=1, trace=trace,
                                      size="tiny", keep=trace == 0)
            if result["failed"]:
                _fail(f"{wl}: clean tiny run failed: {result['failures']}")
            _check_emitted(result, spec)
            if trace == 0:
                kept[wl] = result
        print(f"selftest: {wl}: every metric emitted or dropped with a reason")

    try:
        fit_out = kept["fit"]["reps"][0][0]
        data = sorted(glob.glob(os.path.join(fit_out, "data", "*.csv")))
        _expect_trip("fit", fit_out, lambda o: _corrupt_csv_row(
            os.path.join(o, "data", os.path.basename(data[-1])), 3,
            _scale_bloch(1, 15)), "reduced_states_psd")
        _expect_trip("fit", fit_out, lambda o: _corrupt_csv_row(
            os.path.join(o, "data", os.path.basename(data[0])), 0,
            _nudge(1)), "oracle_expm")
        _expect_trip("fit", fit_out, lambda o: _corrupt_csv_row(
            os.path.join(o, "reports", "timeseries_eval_000.csv"), 2,
            _scale_bloch(17, 31)), "model_states_psd")
        _expect_trip("simulate", kept["simulate"]["reps"][0][0],
                     _set_report_nan, "eval_report_finite")
        _expect_trip("scan", kept["scan"]["reps"][0][0], _fail_scan_cell,
                     "scan_cell")

        tripped = dict(kept["fit"], failed=1, failures=["injected"])
        if run.report(tripped)["correct"]:
            _fail("a failed check did not mark the result incorrect")
    finally:
        for result in kept.values():
            shutil.rmtree(result["work"], ignore_errors=True)
        try:
            os.rmdir(run.WORK)
        except OSError:
            pass
    print("selftest: ok")


if __name__ == "__main__":
    main()
