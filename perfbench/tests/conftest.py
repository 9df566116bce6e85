import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]


@pytest.fixture(scope="session")
def lib():
    import harness

    return harness.import_program()
