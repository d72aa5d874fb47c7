"""Library pins for the block scans that no CLI command runs: the values of
domination_number, pq2 and paths.check_endpoint_lemma on graphs whose scans
span several blocks, so a change to the block kernels or to the least-size
and lower-half scans shows as a changed value. The companion of the CLI
byte-identity sweep in test_cli_sweep.py, and built on the same 4-cube Q4.
"""

import pytest

from chip_diffusion import Graph, check_endpoint_lemma, domination_number, parse_graph_spec, pq2

from test_cli_sweep import Q4_EDGES

Q4 = Graph(16, Q4_EDGES)

DOMINATION = [
    ("path:24", 8), ("path:30", 10), ("cycle:20", 7), ("kbip:8,8", 2), ("complete:30", 1),
]
PQ2 = [("path:30", 10), ("kbip:8,8", 2), ("complete:63", 1)]


@pytest.mark.parametrize("spec, value", DOMINATION)
def test_domination_number_is_pinned(spec, value):
    assert domination_number(parse_graph_spec(spec)) == value


def test_domination_number_of_q4_is_pinned():
    assert domination_number(Q4) == 4


@pytest.mark.parametrize("spec, value", PQ2)
def test_pq2_is_pinned(spec, value):
    assert pq2(parse_graph_spec(spec)) == value


@pytest.mark.parametrize("n", range(2, 27))
def test_endpoint_lemma_is_pinned(n):
    assert check_endpoint_lemma(n) is True
