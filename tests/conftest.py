import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from fraccore import tu_solver  # noqa: E402


@pytest.fixture(autouse=True)
def _fresh_balancing_lp_memo():
    # the TU balancing LP memo outlives a test; without clearing it a test
    # that counts LPs depends on which game the previous test solved last
    tu_solver._balancing_lp.cache_clear()
