import os
import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# every property test is reproducible and leaves no example database
# behind; a test sets only its own max_examples
settings.register_profile("gossipsim", derandomize=True, database=None, deadline=None)
settings.load_profile("gossipsim")

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def child_env():
    """Environment for a Python subprocess that must import this checkout's
    `gossipsim` from any working directory: the absolute `src` goes first on
    `PYTHONPATH`, ahead of every inherited entry."""
    path = [str(SRC), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
