"""Every public name the package and its modules declare can be imported."""

import importlib

import pytest

import spdag

MODULES = (
    "spdag",
    "spdag.assumptions",
    "spdag.baselines",
    "spdag.graph",
    "spdag.harness",
    "spdag.oracle",
    "spdag.sem",
    "spdag.sp",
)


@pytest.mark.parametrize("name", MODULES)
def test_every_declared_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)


def test_the_per_ordering_factorization_is_not_exported():
    for gone in ("CholeskyFactor", "permuted_precision", "upper_cholesky"):
        assert gone not in spdag.__all__
        assert not hasattr(spdag, gone)
