"""Shared test helpers."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import pesvlab

SRC = str(Path(pesvlab.__file__).resolve().parent.parent)


@pytest.fixture
def warm_call_faults():
    """A function ``count(setup, call)`` that runs the Python statements
    ``setup`` and then ``call`` twice in a fresh interpreter and returns the
    minor page faults of the second ``call``: a warm call, whose faults come
    from memory the call itself maps anew.  Skips the test off Linux, where
    ``ru_minflt`` is not such a count."""
    if not sys.platform.startswith("linux"):
        pytest.skip("reads Linux page faults")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC, *filter(None, [os.environ.get("PYTHONPATH")])]
    ))

    def count(setup: str, call: str) -> int:
        script = (
            f"import resource\n{setup}\n{call}\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            f"{call}\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        )
        return int(done.stdout)

    return count
