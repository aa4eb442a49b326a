"""Sparsest-permutation structure learning for linear Gaussian models.

The package learns DAG equivalence classes by searching vertex orderings
for the sparsest induced graph. It ships the search itself (query-based
and Cholesky-based routes), conditional-independence backends from exact
oracles down to finite-sample tests, the SGS and PC reference learners,
checkers for the identifiability assumptions that separate the methods,
and a seeded simulation harness behind the ``sp`` command line tool.

Each module declares its public names in its own ``__all__``; the package
re-exports all of them.
"""

from . import assumptions, baselines, exceptions, graph, harness, oracle, sem, sp
from .exceptions import *
from .graph import *
from .oracle import *
from .sem import *
from .sp import *
from .baselines import *
from .assumptions import *
from .harness import *

__version__ = "0.1.0"

__all__ = [
    name
    for module in (exceptions, graph, oracle, sem, sp, baselines, assumptions, harness)
    for name in module.__all__
]
