"""Shared instance builders for the suite."""

import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from pepslhv import configio


def recipe2_config(lattice="cycle:3", epsilon=0.2, measurements="noisy-pauli:2:0.5"):
    return {
        "lattice": lattice,
        "basis": "aligned:2:zero",
        "measurements": measurements,
        "psi": "plus-diag:2",
        "site_map": {"recipe": 2, "epsilon": epsilon},
    }


def build(config):
    # round-trip through JSON so tests exercise exactly what files carry
    return configio.build_instance(json.loads(json.dumps(config)))


@pytest.fixture
def cycle3_instance():
    return build(recipe2_config())


@pytest.fixture
def chain2_instance():
    return build(recipe2_config(lattice="chain:2"))


@pytest.fixture
def identity_bell_config():
    return {
        "lattice": "cycle:3",
        "basis": "phase-point",
        "measurements": "bell",
        "site_map": {"recipe": "identity"},
    }


# address space of a capped child: room for Python and numpy, and a
# MemoryError within a second for a lattice built with 10^11 sites
CAPPED_BYTES = 1 << 30


def run_capped(*args, timeout=60):
    """python *args with src on the path, its address space capped at CAPPED_BYTES."""

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (CAPPED_BYTES, CAPPED_BYTES))

    src = Path(configio.__file__).resolve().parent.parent
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
        preexec_fn=cap,
        timeout=timeout,
    )
