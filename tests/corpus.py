"""Shared fixtures: named graphs, hand-listed CI sets, engineered models.

The three explicit backends here are the workhorse counterexamples used
across the suite:

* ``edge_cancellation``: the 4-cycle's d-separations plus the extra
  independence (0, 1 | {3}). Realizable by weights that cancel the
  direct edge 0 -> 1 against the path through 3; the ordering search
  still recovers the true class but the deleted edge breaks
  adjacency-style testing.
* ``marginal_cancellation``: the 4-cycle's d-separations plus the extra
  marginal independence (0, 3 | {}). Realizable by weights that cancel
  the edge 0 -> 3 against the path 0 -> 1 -> 2 -> 3; here the search
  ties between two classes.
* ``missed_independence``: all d-separations of the chain 0->1->2->3
  except (0, 3 | {1, 2}), the shape of a single false rejection by a
  finite-sample test.

The matching covariance constructions solve the one-equation
cancellations with magnitudes inside [0.25, 1], so the same behavior is
reproducible from an exact Gaussian backend.
"""

from itertools import combinations

import numpy as np

from spdag.graph import Dag
from spdag.oracle import ExplicitBackend, explicit_backend
from spdag.sem import GenConfig, LinearSem, random_dag, random_weights

FOUR_CYCLE = Dag(4, [(0, 1), (0, 3), (1, 2), (2, 3)])
CHAIN4 = Dag(4, [(0, 1), (1, 2), (2, 3)])
CHAIN3 = Dag(3, [(0, 1), (1, 2)])

FOUR_CYCLE_DSEPS = frozenset(
    {(0, 2, frozenset({1})), (1, 3, frozenset({0, 2}))}
)
CHAIN4_DSEPS = frozenset(
    {
        (0, 2, frozenset({1})),
        (0, 2, frozenset({1, 3})),
        (0, 3, frozenset({1})),
        (0, 3, frozenset({2})),
        (0, 3, frozenset({1, 2})),
        (1, 3, frozenset({2})),
        (1, 3, frozenset({0, 2})),
    }
)

EDGE_CANCEL_TRIPLES = FOUR_CYCLE_DSEPS | {(0, 1, frozenset({3}))}
MARGINAL_CANCEL_TRIPLES = FOUR_CYCLE_DSEPS | {(0, 3, frozenset())}
MISSED_INDEPENDENCE_TRIPLES = CHAIN4_DSEPS - {(0, 3, frozenset({1, 2}))}


def edge_cancellation_backend() -> ExplicitBackend:
    return explicit_backend(4, EDGE_CANCEL_TRIPLES)


def marginal_cancellation_backend() -> ExplicitBackend:
    return explicit_backend(4, MARGINAL_CANCEL_TRIPLES)


def missed_independence_backend() -> ExplicitBackend:
    return explicit_backend(4, MISSED_INDEPENDENCE_TRIPLES)


def edge_cancellation_sem(beta=0.9, gamma=0.9, delta=0.9) -> LinearSem:
    """4-cycle weights with the direct effect 0 -> 1 cancelled given {3}.

    Solving cov(X0, X1 | X3) = 0 gives a01 = b*g*d / (1 + d^2); with the
    defaults that is about 0.403, inside the magnitude range.
    """
    alpha = beta * gamma * delta / (1 + delta * delta)
    return LinearSem(
        FOUR_CYCLE,
        {(0, 1): alpha, (0, 3): beta, (1, 2): gamma, (2, 3): delta},
    )


def marginal_cancellation_sem(alpha=0.8, gamma=0.8, delta=0.8) -> LinearSem:
    """4-cycle weights with the marginal covariance of (0, 3) cancelled.

    cov(X0, X3) = a03 + a01*a12*a23, so a03 = -alpha*gamma*delta; the
    defaults give -0.512.
    """
    beta = -alpha * gamma * delta
    return LinearSem(
        FOUR_CYCLE,
        {(0, 1): alpha, (0, 3): beta, (1, 2): gamma, (2, 3): delta},
    )


def random_dag_pool(seed, count, p_values=(3, 4, 5), q_range=(0.25, 0.85)):
    """Seeded list of random DAGs cycling through the given sizes."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        p = int(p_values[i % len(p_values)])
        q = float(rng.uniform(*q_range))
        edges = [(j, k) for j, k in combinations(range(p), 2) if rng.random() < q]
        out.append(Dag(p, edges))
    return out


def random_sem_pool(seed, count, p_values=(3, 4, 5), nbhd=1.5):
    """Seeded list of random linear models over the benchmark family."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        p = int(p_values[i % len(p_values)])
        cfg = GenConfig(p=p, expected_nbhd=min(nbhd, p - 1))
        out.append(random_weights(random_dag(cfg, rng), rng))
    return out


def collinear_samples(rng, p, mode, n=40):
    """n rows in random units whose last column copies another (mode 1) or,
    up to noise from 1e-9 to 1e-2 of its size, combines the others (mode 2)."""
    mix = np.where(rng.random((p, p)) < 0.5, rng.standard_normal((p, p)), 0.0) + np.eye(p)
    x = rng.standard_normal((n, p)) @ mix
    if mode == 1:
        x[:, -1] = x[:, rng.integers(p - 1)]
    elif mode == 2:
        x[:, -1] = x[:, :-1] @ (rng.standard_normal(p - 1) * 10.0 ** rng.uniform(-1, 1, p - 1))
        x[:, -1] += 10.0 ** rng.uniform(-9, -2) * x[:, -1].std() * rng.standard_normal(n)
    return x * 10.0 ** rng.uniform(-3, 3, p)
