"""The package's export list: sorted, without duplicates, and every name resolves."""
from __future__ import annotations

import entailshift


def test_all_is_sorted_and_unique():
    assert entailshift.__all__ == sorted(set(entailshift.__all__))


def test_star_import_binds_every_exported_name():
    """A name left in ``__all__`` after its definition is deleted fails here."""
    namespace: dict = {}
    exec("from entailshift import *", namespace)
    for name in entailshift.__all__:
        assert namespace[name] is getattr(entailshift, name)
