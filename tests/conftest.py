import sys
from pathlib import Path

import pytest

from chip_diffusion import Graph

sys.path.insert(0, str(Path(__file__).parent))  # let tests import naive/strategies


# 6-vertex graph whose only nonempty step-2-restoring subset is the full
# vertex set, despite domination number 2.
RIGID_SIX_EDGES = [(5, 4), (4, 3), (4, 2), (4, 1), (3, 1), (3, 0), (2, 1), (1, 0)]


@pytest.fixture
def rigid_six():
    return Graph(6, RIGID_SIX_EDGES)
