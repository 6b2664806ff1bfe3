"""The package's public names: each resolves, so a stale export fails here."""

import efbtag


def test_every_public_name_resolves():
    assert len(set(efbtag.__all__)) == len(efbtag.__all__)
    for name in efbtag.__all__:
        getattr(efbtag, name)


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from efbtag import *", namespace)
    assert set(efbtag.__all__) <= set(namespace)
