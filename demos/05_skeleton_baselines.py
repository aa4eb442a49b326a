"""The constraint-based reference learners, and where they break.

SGS deletes an edge whenever any conditioning set separates the pair;
PC only consults current neighbourhoods, trading exhaustiveness for
test count. Both then orient colliders from the recorded separating
sets. On faithful models they agree with each other and with the truth;
a single cancelled correlation sends them quietly wrong, in a way the
ordering search either survives or at least reports.
"""

import numpy as np

from spdag import (
    Dag,
    LinearSem,
    caching_wrapper,
    covariance_of,
    dsep_backend,
    gaussian_exact_backend,
    orient_v_structures,
    pattern_of,
    pc_pattern,
    pc_skeleton,
    sgs_skeleton,
    skeleton,
    sp_search,
)

# Faithful warm-up: the classic collider 0 -> 2 <- 1.
collider = Dag(3, [(0, 2), (1, 2)])
ci = caching_wrapper(dsep_backend(collider))

skel, sepsets = sgs_skeleton(ci)
print("skeleton:", sorted(skel))
print("separating set for (0,1):", set(sepsets[0, 1]))
print("pattern:", orient_v_structures(skel, sepsets))

# The separating set is the whole story: 0 and 1 split marginally, so 2
# is not in the set, so the triple must point at 2.

# PC gets the same answer with far fewer queries on sparse graphs,
# because it only conditions on current neighbours. Count distinct
# queries through the cache on a 7-vertex chain.
chain = Dag(7, [(i, i + 1) for i in range(6)])
ci = caching_wrapper(dsep_backend(chain))
pc_pattern(ci)
pc_queries = ci.cache_size
ci = caching_wrapper(dsep_backend(chain))
sgs_skeleton(ci)
sgs_queries = ci.cache_size
print(f"\ndistinct queries on a 7-chain: pc={pc_queries} sgs={sgs_queries}")

# Sanity at scale: on a random faithful model both pipelines match the
# true class exactly.
from spdag import GenConfig, random_sem  # noqa: E402

sem = random_sem(GenConfig(p=6, expected_nbhd=1.5), np.random.default_rng(4))
ci = caching_wrapper(gaussian_exact_backend(covariance_of(sem)))
print("\nrandom faithful model, p=6:")
print("  pc hits the truth:", pc_pattern(ci) == pattern_of(sem.dag))

# Now the poisoned well. Weights on the 4-cycle are rigged so X0 and X1
# turn independent given {3}: a separating set exists for a pair that
# IS adjacent in the truth. SGS takes the bait and deletes the edge.
truth = Dag(4, [(0, 1), (0, 3), (1, 2), (2, 3)])
b = 0.9
rigged = LinearSem(
    truth,
    {(0, 1): b**3 / (1 + b * b), (0, 3): b, (1, 2): b, (2, 3): b},
)
ci = caching_wrapper(gaussian_exact_backend(covariance_of(rigged)))

skel, sepsets = sgs_skeleton(ci)
print("\ncancelled-edge model:")
print("  true skeleton:   ", sorted(skeleton(truth)))
print("  learned skeleton:", sorted(skel))
print("  witness for the deletion:", set(sepsets[0, 1]))

# The same queries drive the ordering search to the right answer: no
# ordering can exploit the single cancelled triple without paying more
# edges elsewhere.
r = sp_search(ci)
print("  ordering search recovers the class:",
      r.unique_class and r.ordered_classes() == [pattern_of(truth)])

# PC inherits the deletion too; the baselines fail together here.
print("  pc drops the same edge:", (0, 1) not in pc_skeleton(ci)[0])
