import os
import subprocess
import sys
from pathlib import Path

import pytest

import gridrisk
from gridrisk import cases

SRC = str(Path(gridrisk.__file__).resolve().parents[1])


@pytest.fixture(scope="session")
def two_bus():
    return cases.two_bus()


@pytest.fixture(scope="session")
def triangle():
    return cases.triangle()


@pytest.fixture(scope="session")
def toy6():
    return cases.toy6()


@pytest.fixture(scope="session")
def rts96():
    return cases.rts96()


@pytest.fixture()
def fresh_python():
    """Run Python code in a new interpreter with gridrisk importable and
    return its stdout; import state is per process, so import checks run
    there. `flags` go to the interpreter before `-c`."""
    def run(code: str, *flags: str) -> str:
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [SRC, *filter(None, [os.environ.get("PYTHONPATH")])])}
        done = subprocess.run([sys.executable, *flags, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        return done.stdout
    return run
