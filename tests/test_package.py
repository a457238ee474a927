"""The package's public names."""

import gridloc


def test_every_export_resolves():
    assert [name for name in gridloc.__all__ if not hasattr(gridloc, name)] == []
    assert len(set(gridloc.__all__)) == len(gridloc.__all__)


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from gridloc import *", namespace)
    assert set(gridloc.__all__) <= namespace.keys()
