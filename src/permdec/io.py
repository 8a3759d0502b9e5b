"""JSON serialisation for groups and systems, and JSON file input and output."""

from __future__ import annotations

import json
import pathlib

from .cartesian import CartesianSystem
from .errors import InvalidInput
from .group import PermGroup
from .perm import Permutation


def group_to_json(g):
    out = {"degree": g.degree, "generators": [list(p.images) for p in g.generators]}
    if g.name:
        out["name"] = g.name
    return out


def _fields(data, *keys):
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
    degree, generators = _fields(data, "degree", "generators")
    return PermGroup(_perms(generators), degree=degree, name=data.get("name"))


def system_from_json(data):
    group, base_point, subgroups = _fields(data, "group", "base_point", "subgroups")
    group = group_from_json(group)
    return CartesianSystem(
        group, base_point, [PermGroup(_perms(gens), degree=group.degree) for gens in subgroups]
    )


def load_json(path):
    try:
        return json.loads(pathlib.Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise InvalidInput(f"cannot read JSON from {path}: {exc}") from exc


def dump_json(data, path=None, pretty=False):
    text = json.dumps(data, indent=2 if pretty else None, sort_keys=True)
    if path is not None:
        pathlib.Path(path).write_text(text + "\n")
    return text
