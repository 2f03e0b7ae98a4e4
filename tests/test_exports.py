"""The package's public names."""

import hskahler


def test_star_import_resolves_every_public_name():
    namespace: dict = {}
    exec("from hskahler import *", namespace)  # raises on a name in __all__ that is gone
    assert set(hskahler.__all__) <= set(namespace)
    assert len(set(hskahler.__all__)) == len(hskahler.__all__)
