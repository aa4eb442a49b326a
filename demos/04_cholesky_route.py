"""The search without a single independence test.

For Gaussian models the induced graph of an ordering can be read off a
triangular factorization of the permuted precision matrix: reorder,
factor, count nonzeros above the diagonal. Sparsest ordering = fewest
fill-in, which connects structure learning to a classic sparse linear
algebra question. Both routes return identical answers.
"""

import numpy as np

from spdag import (
    GenConfig,
    caching_wrapper,
    covariance_of,
    gaussian_exact_backend,
    permuted_precision,
    precision_of,
    random_sem,
    sp_search,
    sp_search_cholesky,
    upper_cholesky,
)

np.set_printoptions(precision=3, suppress=True)

rng = np.random.default_rng(8)
sem = random_sem(GenConfig(p=5, expected_nbhd=2.0), rng)
sigma = covariance_of(sem)
print("model edges:", sorted(sem.dag.edges))

# The precision matrix K couples exactly the moral pairs: parents of a
# common child pick up an entry even without an edge.
k = precision_of(sem)
print("\nprecision nonzero pattern:")
print((np.abs(np.asarray(k)) > 1e-9).astype(int))

# Factor K in the label order: K = U D U', U upper unitriangular. The
# strict upper pattern of U is the induced graph of that ordering.
factor = upper_cholesky(np.asarray(k))
print("\nU for the identity ordering:")
print(factor.U)
print("edges read off U:", sorted(factor.edges_for(tuple(range(5)))))

# A bad ordering forces fill-in: more nonzeros, more edges.
worst = tuple(reversed(range(5)))
bad = upper_cholesky(permuted_precision(sigma, worst))
print(f"\nnonzeros above diagonal, identity order: {factor.num_nonzero}")
print(f"nonzeros above diagonal, reversed order: {bad.num_nonzero}")

# Search all orderings through factor columns alone, then through CI queries.
via_factor = sp_search_cholesky(sigma)
via_queries = sp_search(caching_wrapper(gaussian_exact_backend(sigma)))
print("\nfactorization route min edges:", via_factor.min_edges)
print("query route min edges:", via_queries.min_edges)
print("same winner set:", via_factor.winners == via_queries.winners)
print("same class set:", via_factor.classes == via_queries.classes)

