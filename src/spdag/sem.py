"""Gaussian linear structural-equation models on DAGs.

Each vertex is a linear function of its parents plus independent
Gaussian noise: X_k = sum_j a_jk X_j + eps_k with eps_k ~ N(0, sigma_k^2).
Collecting the weights in a matrix A (A[j, k] = a_jk) and the noise
variances in D gives

    Sigma = (I - A)^-T D (I - A)^-1        K = (I - A) D^-1 (I - A)^T

in any labelling: A is nilpotent for every DAG, so I - A is always
invertible and the functions here work on it in label order.

The random generators reproduce a simple benchmark family: each pair
j < k receives an edge independently with probability
expected_nbhd / (p - 1), weights are uniform on [-1, -0.25] u [0.25, 1],
and noise variances default to one. All randomness flows through an
explicit numpy Generator handle, so callers control the streams; draws
use the generator's native uniform and standard_normal transforms
(documented so a reimplementation can match distributions, though not
bit patterns).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .graph import Dag
from .oracle import CovarianceMatrix

__all__ = [
    "GenConfig",
    "LinearSem",
    "random_dag",
    "random_weights",
    "random_sem",
    "covariance_of",
    "precision_of",
    "sample",
]

WEIGHT_LO = 0.25
WEIGHT_HI = 1.0


@dataclass(frozen=True)
class GenConfig:
    """Parameters of the random model family.

    expected_nbhd is the expected undirected degree of a vertex; the
    pairwise edge probability is expected_nbhd / (p - 1). The random
    stream and the sample count are not part of the family: callers pass
    a Generator to the draws and n to :func:`sample`.
    """

    p: int
    expected_nbhd: float

    def __post_init__(self):
        if self.p < 2:
            raise ValueError(f"need at least two vertices, got p={self.p}")
        if not 0 < self.expected_nbhd <= self.p - 1:
            raise ValueError(
                f"expected_nbhd must lie in (0, p-1] = (0, {self.p - 1}], "
                f"got {self.expected_nbhd}"
            )

    @property
    def edge_probability(self) -> float:
        return self.expected_nbhd / (self.p - 1)


@dataclass(frozen=True, eq=True)
class LinearSem:
    """A DAG with edge weights and per-vertex noise variances.

    Weight magnitudes are confined to [0.25, 1] (the benchmark family's
    support, keeping effects bounded away from zero) and keys must match
    the edge set exactly. Instances are value objects; never hash them.
    """

    dag: Dag
    weights: dict
    noise_vars: tuple = ()

    __hash__ = None

    def __post_init__(self):
        weights = {(int(j), int(k)): float(w) for (j, k), w in self.weights.items()}
        if set(weights) != set(self.dag.edges):
            raise ValueError("weight keys must be exactly the edge set")
        for edge, w in weights.items():
            if not WEIGHT_LO - 1e-12 <= abs(w) <= WEIGHT_HI + 1e-12:
                raise ValueError(
                    f"weight {w} on edge {edge} outside magnitude range "
                    f"[{WEIGHT_LO}, {WEIGHT_HI}]"
                )
        noise = self.noise_vars if len(self.noise_vars) else (1.0,) * self.dag.p
        noise = tuple(float(v) for v in noise)
        if len(noise) != self.dag.p:
            raise ValueError(
                f"need {self.dag.p} noise variances, got {len(noise)}"
            )
        if any(v <= 0 for v in noise):
            raise ValueError("noise variances must be positive")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "noise_vars", noise)

    @property
    def p(self) -> int:
        return self.dag.p

    def weight_matrix(self) -> np.ndarray:
        """Dense A with A[j, k] = a_jk, zero elsewhere."""
        a = np.zeros((self.p, self.p))
        for (j, k), w in self.weights.items():
            a[j, k] = w
        return a


def random_dag(cfg: GenConfig, rng: np.random.Generator) -> Dag:
    """Draw a DAG on the identity ordering: each pair j < k independently."""
    q = cfg.edge_probability
    edges = [(j, k) for j, k in combinations(range(cfg.p), 2) if rng.random() < q]
    return Dag(cfg.p, edges)


def random_weights(
    dag: Dag, rng: np.random.Generator, *, noise_vars=None
) -> LinearSem:
    """Assign uniform two-interval weights to ``dag``; unit noise by default.

    Each edge, visited in sorted order, draws a magnitude uniform on
    [0.25, 1] and a fair sign.
    """
    weights = {}
    for edge in sorted(dag.edges):
        mag = rng.uniform(WEIGHT_LO, WEIGHT_HI)
        sign = -1.0 if rng.random() < 0.5 else 1.0
        weights[edge] = sign * mag
    noise = () if noise_vars is None else tuple(noise_vars)
    return LinearSem(dag, weights, noise)


def random_sem(cfg: GenConfig, rng: np.random.Generator) -> LinearSem:
    """Draw a graph, then weights, off one stream."""
    return random_weights(random_dag(cfg, rng), rng)


def covariance_of(sem: LinearSem) -> CovarianceMatrix:
    """Population covariance (I - A)^-T D (I - A)^-1 in label order.

    >>> sem = LinearSem(Dag(2, [(0, 1)]), {(0, 1): 0.5}, (2.0, 3.0))
    >>> covariance_of(sem).values.tolist()
    [[2.0, 1.0], [1.0, 3.5]]
    """
    b = np.linalg.inv(np.eye(sem.p) - sem.weight_matrix())
    sig = b.T @ (np.asarray(sem.noise_vars)[:, None] * b)
    return CovarianceMatrix((sig + sig.T) / 2.0)


def precision_of(sem: LinearSem) -> CovarianceMatrix:
    """Population precision (I - A) D^-1 (I - A)^T in label order."""
    u = np.eye(sem.p) - sem.weight_matrix()
    k = (u / np.asarray(sem.noise_vars)[None, :]) @ u.T
    return CovarianceMatrix((k + k.T) / 2.0)


def sample(sem: LinearSem, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``n`` rows of the structural equations X = X A + eps.

    Noise for all vertices is drawn first, in label order; each row then
    solves x (I - A) = eps as one product with (I - A)^-1. Same seed,
    same bytes.
    """
    n = int(n)
    if n < 1:
        raise ValueError(f"sample count must be positive, got {n}")
    eps = rng.standard_normal((n, sem.p)) * np.sqrt(np.asarray(sem.noise_vars))
    return eps @ np.linalg.inv(np.eye(sem.p) - sem.weight_matrix())

