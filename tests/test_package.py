"""The package's export table: ``asqn`` loads each exported name from its
submodule on first access, so a stale entry shows only when it is read."""

import pytest

import asqn


def test_every_name_in_all_resolves():
    missing = [name for name in asqn.__all__ if not hasattr(asqn, name)]
    assert missing == []


def test_update_vector_is_not_exported():
    # an update is a (2, d) array; the class that wrapped its rows is gone
    assert "UpdateVector" not in asqn.__all__
    with pytest.raises(AttributeError):
        asqn.UpdateVector
