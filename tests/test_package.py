"""The package's public namespace."""

import ssdml


def test_all_names_resolve_once():
    assert len(ssdml.__all__) == len(set(ssdml.__all__))
    missing = [name for name in ssdml.__all__ if not hasattr(ssdml, name)]
    assert not missing
