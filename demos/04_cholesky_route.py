"""The search without a single independence test.

For Gaussian models the induced graph of an ordering can be read off a
triangular factorization of the permuted precision matrix: reorder,
factor, count nonzeros above the diagonal. Sparsest ordering = fewest
fill-in, which connects structure learning to a classic sparse linear
algebra question. The search never factors whole matrices one ordering
at a time: column k of the factor only depends on the set of vertices
before k, so sp_search_cholesky reads each column once per prefix set.
Both routes return identical answers.
"""

import numpy as np

from spdag import (
    GenConfig,
    build_dag_for_permutation,
    caching_wrapper,
    covariance_of,
    gaussian_exact_backend,
    precision_of,
    random_sem,
    sp_search,
    sp_search_cholesky,
)
from spdag.sp import CHOL_TOL

np.set_printoptions(precision=3, suppress=True)


def unit_upper_factor(k):
    """U with K = U D U', U upper unitriangular: numpy's lower factor of K reversed."""
    low = np.linalg.cholesky(k[::-1, ::-1])[::-1, ::-1]
    return low / np.diag(low)


def fill_edges(k, order):
    """Nonzeros above the diagonal of U for K permuted by order, as edges."""
    u = unit_upper_factor(k[np.ix_(order, order)])
    rows, cols = np.nonzero(np.triu(np.abs(u) > CHOL_TOL, 1))
    return sorted((order[a], order[b]) for a, b in zip(rows, cols))


rng = np.random.default_rng(8)
sem = random_sem(GenConfig(p=5, expected_nbhd=2.0), rng)
sigma = covariance_of(sem)
print("model edges:", sorted(sem.dag.edges))

# The precision matrix K couples exactly the moral pairs: parents of a
# common child pick up an entry even without an edge.
k = np.asarray(precision_of(sem))
print("\nprecision nonzero pattern:")
print((np.abs(k) > 1e-9).astype(int))

# Factor K in the label order: K = U D U', U upper unitriangular. The
# strict upper pattern of U is the induced graph of that ordering.
identity = list(range(5))
print("\nU for the identity ordering:")
print(unit_upper_factor(k))
print("edges read off U:", fill_edges(k, identity))
by_queries = build_dag_for_permutation(identity, gaussian_exact_backend(sigma))
print("same as the CI route:", fill_edges(k, identity) == sorted(by_queries.edges))

# A bad ordering forces fill-in: more nonzeros, more edges.
worst = identity[::-1]
print(f"\nnonzeros above diagonal, identity order: {len(fill_edges(k, identity))}")
print(f"nonzeros above diagonal, reversed order: {len(fill_edges(k, worst))}")

# Search all orderings through factor columns alone, then through CI queries.
via_factor = sp_search_cholesky(sigma)
via_queries = sp_search(caching_wrapper(gaussian_exact_backend(sigma)))
print("\nfactorization route min edges:", via_factor.min_edges)
print("query route min edges:", via_queries.min_edges)
print("same winner set:", via_factor.winners == via_queries.winners)
print("same class set:", via_factor.classes == via_queries.classes)
