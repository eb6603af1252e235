"""Each package imports cleanly when a fresh interpreter meets it first.

The TrustZone codec imports ``repro.core.evidence``, which loads the
whole ``repro.core`` package, verifier included. So the verifier imports
the codec inside its msg2 path: importing the codec's names at the
verifier's module top fails whenever a fresh interpreter imports the
codec (or ``repro.appraisal.synthetic``) first, because the codec is
then still half initialised.
"""

import os
import subprocess
import sys

import pytest

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir,
                                   os.pardir, "src"))


@pytest.mark.parametrize("module", [
    "repro.appraisal.codecs.trustzone",
    "repro.appraisal.synthetic",
    "repro.core",
    "repro.fleet",
])
def test_module_imports_first_in_a_fresh_interpreter(module):
    env = dict(os.environ, PYTHONPATH=SRC)
    result = subprocess.run([sys.executable, "-c", f"import {module}"],
                            env=env, capture_output=True, text=True,
                            timeout=120)
    assert result.returncode == 0, result.stderr
