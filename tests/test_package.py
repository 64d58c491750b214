import ast
import types
from pathlib import Path

import toepspec as ts

# each module imports only modules before it
LAYERS = ("symbols", "sections", "linalg", "spectra", "analysis", "cli")


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


def test_modules_import_only_lower_layers():
    # every relative import counts, also one inside a function
    for path in sorted(Path(ts.__file__).parent.glob("*.py")):
        if path.stem == "__init__":
            continue
        assert path.stem in LAYERS, path.name
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for target in [node.module] if node.module else [a.name for a in node.names]:
                    assert LAYERS.index(target.split(".")[0]) < LAYERS.index(path.stem), (path.stem, target)
