"""Every public name the package and its modules declare can be imported."""

import importlib

import pytest

import spdag

MODULES = (
    "spdag",
    "spdag.assumptions",
    "spdag.baselines",
    "spdag.exceptions",
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


def test_orderings_are_plain_tuples_not_a_class():
    for gone in ("Permutation", "as_permutation", "consistent_order"):
        assert not hasattr(spdag, gone)
        assert not hasattr(importlib.import_module("spdag.graph"), gone)


def test_separating_sets_are_a_plain_dict_not_a_class():
    for gone in ("SepsetTable", "MissingSepsetError"):
        assert gone not in spdag.__all__
        assert not hasattr(spdag, gone)
    assert not hasattr(importlib.import_module("spdag.baselines"), "SepsetTable")
    assert not hasattr(importlib.import_module("spdag.exceptions"), "MissingSepsetError")


# the package re-exports its modules' lists in this order
PACKAGE_ORDER = (
    "exceptions", "graph", "oracle", "sem", "sp", "baselines", "assumptions", "harness",
)


def test_the_package_list_concatenates_the_module_lists():
    modules = [importlib.import_module(f"spdag.{m}") for m in PACKAGE_ORDER]
    assert spdag.__all__ == [name for m in modules for name in m.__all__]
    for module in modules:
        for name in module.__all__:
            assert getattr(spdag, name) is getattr(module, name), (module.__name__, name)
