"""The package's export lists: every listed name resolves, once."""

import pytest

import ndcmesh
import ndcmesh.nn


@pytest.mark.parametrize("module", [ndcmesh, ndcmesh.nn], ids=lambda m: m.__name__)
def test_every_exported_name_resolves_once(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)
