import importlib

import rotavg

MODULES = ("so3", "averaging", "bench", "registration")


def test_package_exports_every_module_export():
    for name in MODULES:
        module = importlib.import_module(f"rotavg.{name}")
        for export in module.__all__:
            assert export in rotavg.__all__, (name, export)
            assert getattr(rotavg, export) is getattr(module, export), (name, export)
    assert len(rotavg.__all__) == len(set(rotavg.__all__))


def test_fileio_stays_a_submodule():
    from rotavg import fileio

    assert "fileio" not in rotavg.__all__
    for export in fileio.__all__:
        assert export not in rotavg.__all__
        assert not hasattr(rotavg, export)
