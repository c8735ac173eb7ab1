"""Shared fixtures: a hand-built six-variable network with known widths."""

import pytest

from bucketforge import parse_network

# Six binary variables 0..5 with arcs 0->1, 0->2, {0,1}->3, {1,2}->4, 4->5.
# Small enough to enumerate, wide enough to exercise fill edges and buckets.
DIAG_TEXT = """BAYES
6
2 2 2 2 2 2
6
1 0
2 0 1
2 0 2
3 0 1 3
3 1 2 4
2 4 5
2 0.6 0.4
4 0.3 0.7 0.8 0.2
4 0.1 0.9 0.5 0.5
8 0.2 0.8 0.4 0.6 0.7 0.3 0.9 0.1
8 0.15 0.85 0.25 0.75 0.35 0.65 0.45 0.55
4 0.05 0.95 0.6 0.4
"""

# Two influence diagrams whose expected utility overflows only as the sweep
# folds it into its running sum: two empty-scope utilities of 1e308, and a
# chance bucket's average and a decision bucket's maximum of 1e308 each.
OVERFLOW_DIAGRAMS = {
    "inf.id": "ID\n1\n2\n1 0\n0\n2\n0\n1 1e308\n0\n1 1e308\n",
    "inf2.id": ("ID\n2\n2 2\n1 0\n1\n1 1\n2 0.5 0.5\n2\n1 1\n2 1e308 1e308\n"
                "1 0\n2 1e308 1e308\n"),
}

# An influence diagram whose two utility tables over {var} sum to more than
# the largest float in np.add: in the decision bucket when var is 0, in the
# chance bucket when it is 1.
UTILITY_OVERFLOW = """ID
2
2 2
1 0
1
2 0 1
4 0.2 0.8 0.9 0.1
2
1 {var}
2 1e308 1.0
1 {var}
2 1e308 1.0
"""

DIAG_MORAL_EDGES = {(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (1, 4), (2, 4),
                    (4, 5)}

# A good ordering (width 2) and its reversal (width 3).
DIAG_GOOD_ORDER = (0, 1, 2, 4, 3, 5)
DIAG_BAD_ORDER = (5, 3, 4, 2, 1, 0)


@pytest.fixture
def diag_text():
    return DIAG_TEXT


@pytest.fixture
def diag_net():
    return parse_network(DIAG_TEXT)
