"""The only JSON reader and writer in permdec.

Every file is read through ``load_json`` and the ``*_from_json`` readers,
which raise ``InvalidInput`` on malformed data. Every report is written
through ``dump_json``: a report dataclass prints as its fields, a partition
as its blocks, a decomposition as its partitions, a system as its group,
base point and subgroup generators. Keys are sorted and tuples print as lists.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib

from .cartesian import CartesianDecomposition, CartesianSystem
from .errors import InvalidInput
from .group import PermGroup
from .perm import Partition, Permutation, check_count


def group_to_json(g):
    out = {"degree": g.degree, "generators": [list(p.images) for p in g.generators]}
    if g.name:
        out["name"] = g.name
    return out


def fields(data, *keys):
    """The values of keys in a JSON object, or InvalidInput naming them."""
    try:
        return [data[key] for key in keys]
    except (KeyError, TypeError) as exc:
        raise InvalidInput(f"expected an object with {', '.join(keys)}, got {data!r:.80}") from exc


def _perms(image_lists):
    try:
        return [Permutation(images) for images in image_lists]
    except TypeError as exc:
        raise InvalidInput(f"expected lists of images, got {image_lists!r:.80}") from exc


def group_from_json(data):
    degree, generators = fields(data, "degree", "generators")
    return PermGroup(_perms(generators), degree=check_count(degree, "degree"), name=data.get("name"))


def decomposition_from_json(data):
    if not isinstance(data, list):
        raise InvalidInput(f"expected a list of partitions, got {data!r:.80}")
    return CartesianDecomposition([Partition(blocks) for blocks in data])


def system_from_json(data):
    group, base_point, subgroups = fields(data, "group", "base_point", "subgroups")
    if not isinstance(subgroups, list):
        raise InvalidInput(f"expected a list of generator lists, got {subgroups!r:.80}")
    group = group_from_json(group)
    return CartesianSystem(
        group,
        check_count(base_point, "base_point"),
        [PermGroup(_perms(gens), degree=group.degree) for gens in subgroups],
    )


def _to_json(obj):
    if isinstance(obj, Partition):
        return obj.blocks
    if isinstance(obj, CartesianDecomposition):
        return obj.partitions
    if isinstance(obj, CartesianSystem):
        return {
            "group": {**group_to_json(obj.ambient), "name": obj.ambient.name},
            "base_point": obj.base_point,
            "subgroups": [[list(g.images) for g in k.generators] for k in obj.subgroups],
        }
    if dataclasses.is_dataclass(obj):
        return vars(obj)
    raise TypeError(f"cannot write {type(obj).__name__} as JSON")


def load_json(path):
    try:
        return json.loads(pathlib.Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise InvalidInput(f"cannot read JSON from {path}: {exc}") from exc


def check_writable(path):
    """InvalidInput unless path names a file, new or not, in an existing directory."""
    if pathlib.Path(path).is_dir() or not pathlib.Path(path).parent.is_dir():
        raise InvalidInput(f"cannot write JSON to {path}: not a file in an existing directory")


def dump_json(data, path=None, pretty=False):
    text = json.dumps(data, indent=2 if pretty else None, sort_keys=True, default=_to_json)
    if path is not None:
        try:
            pathlib.Path(path).write_text(text + "\n")
        except OSError as exc:
            raise InvalidInput(f"cannot write JSON to {path}: {exc}") from exc
    return text
