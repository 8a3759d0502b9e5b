"""Every name the perfbench tracer patches still resolves in permdec.

The tracer wraps functions by module and attribute path. A renamed or
deleted target would otherwise surface only when the benchmark runs.
"""

import importlib
import importlib.util
import pathlib

import pytest

TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# patched by name in Tracer.install, besides the SPANS table
HOT_TARGETS = [
    ("permdec.group", "PermGroup.chain"),
    ("permdec.group", "PermGroup.contains"),
    ("permdec.perm", "Permutation.__mul__"),
    ("permdec.perm", "Permutation.inverse"),
]
TARGETS = [(module, path) for _, module, path, _ in _load_tracer().SPANS] + HOT_TARGETS


@pytest.mark.parametrize("module_name,path", TARGETS, ids=[f"{m}:{p}" for m, p in TARGETS])
def test_tracer_target_resolves(module_name, path):
    owner = importlib.import_module(module_name)
    *cls_path, attr = path.split(".")
    for part in cls_path:
        owner = getattr(owner, part)
    # a class attribute is read from the class dict, as the tracer patches it there
    target = owner.__dict__.get(attr) if cls_path else getattr(owner, attr, None)
    assert target is not None, f"{module_name}.{path} is gone"
    assert callable(target) or isinstance(target, property)
