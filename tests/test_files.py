"""Every output writer replaces its file whole or leaves it as it was."""

import os

import numpy as np
import pytest

from lindfit import files
from lindfit.lindblad_generator import GeneratorParams, save_model
from lindfit.many_body_sim import SpinChainModel, Trajectory, save_trajectory
from lindfit.spin_algebra import build_pauli_basis
from lindfit.trainer import save_loss_curves


def _params(scale):
    return GeneratorParams.random(15, scale, np.random.default_rng(3))


def _trajectory(scale):
    return Trajectory(model=SpinChainModel("I", 4, 1.0, 0.5, V_prime=0.2), dt=0.1,
                      snapshots=scale * np.ones((4, 16)), seed=1)


# each writer, called so that a second call writes different bytes
WRITERS = {
    "write_csv": lambda path, k: files.write_csv(path, ["a", "b"], [[k, "x"], [2.0, "y"]]),
    "write_json": lambda path, k: files.write_json(path, {"k": k, "rows": list(range(50))}),
    "save_trajectory": lambda path, k: save_trajectory(path, _trajectory(k)),
    "save_model": lambda path, k: save_model(path, _params(k), build_pauli_basis(2), 0.01),
    "save_loss_curves": lambda path, k: save_loss_curves(path, [1.0, k], [2.0, k]),
}


class _FailingFile:
    """A text file whose first write stores half its text, then raises."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()
        return False

    def write(self, text):
        self.fh.write(text[:len(text) // 2])
        raise OSError("disk full")


@pytest.mark.parametrize("writer", WRITERS.values(), ids=WRITERS.keys())
def test_failed_write_keeps_previous_file(tmp_path, monkeypatch, writer):
    path = tmp_path / "out.dat"
    writer(path, 0.25)
    before = path.read_bytes()
    writer(tmp_path / "again.dat", 0.25)
    assert (tmp_path / "again.dat").read_bytes() == before  # deterministic bytes
    os.remove(tmp_path / "again.dat")

    real_open = open
    monkeypatch.setattr(files, "open", lambda p, mode: _FailingFile(real_open(p, mode)),
                        raising=False)
    with pytest.raises(OSError, match="disk full"):
        writer(path, 0.75)
    with pytest.raises(OSError, match="disk full"):
        writer(tmp_path / "fresh.dat", 0.75)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["out.dat"]

    monkeypatch.undo()
    writer(path, 0.75)
    assert path.read_bytes() != before
    assert os.listdir(tmp_path) == ["out.dat"]


def test_temporary_name_matches_no_output_pattern(tmp_path, monkeypatch):
    seen = []
    real_open = open

    def recording_open(p, mode):
        seen.append(os.path.basename(p))
        return real_open(p, mode)

    monkeypatch.setattr(files, "open", recording_open, raising=False)
    for name in ("train_000.csv", "manifest.json"):
        with files.replacing(tmp_path / name) as fh:
            fh.write("x\n")
    assert len(seen) == 2
    assert not any(n.endswith((".csv", ".json")) for n in seen)
    assert sorted(os.listdir(tmp_path)) == ["manifest.json", "train_000.csv"]
