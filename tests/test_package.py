import types

import toepspec as ts


def test_all_is_every_public_non_module_name():
    public = {n for n, v in vars(ts).items() if not n.startswith("_") and not isinstance(v, types.ModuleType)}
    assert set(ts.__all__) == public
    assert len(ts.__all__) == 37


def test_all_holds_only_toepspec_objects():
    for name in ts.__all__:
        assert getattr(ts, name).__module__.startswith("toepspec."), name


def test_star_import_binds_all():
    ns = {}
    exec("from toepspec import *", ns)
    del ns["__builtins__"]
    assert sorted(ns) == sorted(ts.__all__)
