"""Graphs, d-separation, and equivalence classes.

Walks through the core vocabulary: building a DAG, asking which
conditioning sets block which pairs, and grouping graphs that encode
identical independence structure.
"""

from spdag import (
    Dag,
    d_separated,
    enumerate_all_dags,
    markov_equivalent,
    pattern_of,
    topological_orders,
)

# The running example: an undirected 4-cycle once directions are
# dropped. 0 feeds 1 and 3, and the chain 1 -> 2 -> 3 closes the loop.
g = Dag(4, [(0, 1), (0, 3), (1, 2), (2, 3)])
print("edges:", sorted(g.edges))

# Marginally, 1 and 3 are dependent: they share the ancestor 0 and the
# directed path through 2. Conditioning on {0, 2} blocks both routes.
print("\n1 vs 3 given {}:     separated =", d_separated(g, 1, 3, ()))
print("1 vs 3 given {0,2}: separated =", d_separated(g, 1, 3, {0, 2}))

# Conditioning can also open paths. On the route 0 -> 3 <- 2 the vertex
# 3 is a collider: ignoring it keeps the route blocked, conditioning on
# it lets dependence flow.
print("0 vs 2 given {1}:   separated =", d_separated(g, 0, 2, {1}))
print("0 vs 2 given {1,3}: separated =", d_separated(g, 0, 2, {1, 3}))

# Every DAG admits at least one vertex ordering consistent with its
# edges; this one admits several.
orders = list(topological_orders(g))
print("\ntopological orders:", len(orders))
print("first:", orders[0])

# Two DAGs are indistinguishable from independence data alone iff they
# share skeleton and v-structures. Flipping the edge 0 -> 1 preserves
# both here.
h = Dag(4, [(1, 0), (0, 3), (1, 2), (2, 3)])
print("\npattern components:", pattern_of(g))
print("equivalent after flipping 0->1:", markov_equivalent(g, h))

# But flipping 2 -> 3 creates the collider 0 -> 3 <- 2, a new
# v-structure, so the flipped graph is distinguishable.
k = Dag(4, [(0, 1), (0, 3), (1, 2), (3, 2)])
print("equivalent after flipping 2->3:", markov_equivalent(g, k))

# Small-world census: all labeled DAGs on 3 vertices, grouped by class.
classes = {}
for dag in enumerate_all_dags(3):
    classes.setdefault(pattern_of(dag), []).append(dag)
print("\nDAGs on 3 vertices:", sum(len(v) for v in classes.values()))
print("equivalence classes:", len(classes))
sizes = sorted((len(v) for v in classes.values()), reverse=True)
print("class sizes:", sizes)
