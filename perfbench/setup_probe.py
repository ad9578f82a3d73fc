"""Set-up a user pays before the first command does work: import lindfit,
load the config, build the two-spin basis and the dissipator tensors.

    python perfbench/setup_probe.py <config.json>

Prints where lindfit was imported from, so the caller can check that it is
the checkout's own source.
"""

import json
import sys

import lindfit
from lindfit.cli import load_config
from lindfit.lindblad_generator import precompute_dissipator_tensors
from lindfit.spin_algebra import build_pauli_basis

load_config(sys.argv[1])
precompute_dissipator_tensors(build_pauli_basis(2))
print(json.dumps({"lindfit": lindfit.__file__}))
