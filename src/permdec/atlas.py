"""Bundled case data and automated verification of the classification rows.

Desk-scale cases carry explicit generators that are re-verified on load
(recomputed group orders must match the record, so corrupted data is
caught immediately). Rows beyond desk scale are bundled as expected
metadata only and flagged as such.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, field

from . import io
from .cartesian import round_trip_check, validate_system
from .errors import BudgetExceeded, InvalidInput, OrderMismatch, UnknownCase
from .factor import (
    Automorphism,
    _eq2,
    _find_conjugator,
    conjugation_transitivity_check,
    equivalent_factorisations,
    is_full_factorisation,
    is_strong_multiple_factorisation,
)
from .group import PermGroup, on_base
from .structure import CosetAction, intersect, normaliser_in
from .wreath import full_stabiliser

DEFAULT_DATA_DIR = pathlib.Path(__file__).resolve().parent / "data"
# The fields a desk-scale record's load and each construction's rows read, by dotted
# path, and what each may hold: a JSON type, list[t] or dict[str, t] of a type's values,
# a literal value, or None for absent. Every record holds a bool desk_scale.
_HEAD = {"desk_scale": bool}
_CASE = {"group": dict, "subgroups": dict, "expected": dict, "expected.T_order": int,
         "expected.subgroup_orders": dict[str, int]}
_DECOMPOSITION = {**_CASE, "expected.intersection_order": int, "expected.cd_count": int,
                  "expected.index": int, "expected.K_orders": list[int], "expected.W_order": int}
_FIELDS = {
    "direct": _DECOMPOSITION,
    "coset_action": {**_DECOMPOSITION, "expected.omega_size": int,
                     "expected.quasiprimitive": (bool, None),
                     "expected.full_factorisation": (bool, None),
                     "outer_automorphism": ("coset_action_on_B", None)},
    "abstract_system": {**_CASE, "expected.pairwise_intersections": dict[str, int],
                        "expected.triple_intersection": int,
                        "expected.strong_multiple_factorisation": bool,
                        "expected.indices": list[int], "expected.omega_size": int},
}


@dataclass
class CaseRecord:
    name: str
    desk_scale: bool
    citation: str
    expected: dict
    construction: str | None = None
    group: PermGroup | None = None
    subgroups: dict = field(default_factory=dict)
    outer_automorphism: Automorphism | None = None
    note: str | None = None


def _cases_dir(data_dir):
    """The cases/ directory of data_dir, the bundled data by default."""
    base = pathlib.Path(data_dir) if data_dir else DEFAULT_DATA_DIR
    if not (base / "cases").is_dir():
        raise InvalidInput(f"data directory {base} has no cases/ directory")
    return base / "cases"


def _case_path(name, data_dir):
    cases = _cases_dir(data_dir)
    known = sorted(p.stem for p in cases.glob("*.json"))
    if name not in known:
        raise UnknownCase(f"no case {name!r}; known: {', '.join(known)}")
    return cases / f"{name}.json"


def _read(path, read):
    """read(the record at path), with any InvalidInput naming the case and its file."""
    try:
        return read(io.load_json(path))
    except InvalidInput as exc:
        raise InvalidInput(f"case {path.stem} ({path}): {exc}") from exc


def list_cases(data_dir=None):
    """All bundled cases as (name, citation, desk_scale), sorted by name."""
    return [_read(path, lambda data: (*io.fields(data, "name", "citation"),
                                      _checked(data, _HEAD)["desk_scale"]))
            for path in sorted(_cases_dir(data_dir).glob("*.json"))]


def load_case(name, data_dir=None):
    """Load a bundled case, recomputing and checking every recorded order."""
    return _read(_case_path(name, data_dir), lambda data: _read_case(name, data))


def _fits(value, kind):
    """Whether a JSON value is of a kind: a literal string, a type, list[t] or dict[str, t]."""
    if type(kind) is str:
        return value == kind
    if type(kind) is type:
        return type(value) is kind
    items = value.values() if type(value) is dict else value
    return type(value) is kind.__origin__ and all(_fits(x, kind.__args__[-1]) for x in items)


def _checked(data, fields):
    """The value at each path of fields that data holds; InvalidInput naming the path
    unless it is one of the kinds its entry names."""
    found = {}
    for path, kinds in fields.items():
        *outer, key = path.split(".")
        [obj] = io.fields(data, *outer) if outer else [data]
        kinds = kinds if isinstance(kinds, tuple) else (kinds,)
        if key in obj or None not in kinds:
            [value] = io.fields(obj, key)
            if not any(_fits(value, k) for k in kinds if k is not None):
                names = ["absent" if k is None else repr(k) if type(k) is str else
                         f"of type {k.__name__ if type(k) is type else k}" for k in kinds]
                raise InvalidInput(f"{path} must be {' or '.join(names)}, got {value!r:.80}")
            found[path] = value
    return found


def _read_case(name, data):
    _checked(data, _HEAD)
    record = CaseRecord(*io.fields(data, "name", "desk_scale", "citation", "expected"),
                        construction=data.get("construction"), note=data.get("note"))
    if not record.desk_scale:
        return record
    if record.construction not in _FIELDS:
        raise UnknownCase(f"{name}: unknown construction {record.construction!r}")
    found = _checked(data, _FIELDS[record.construction])
    if record.construction == "coset_action":
        io.fields(found["subgroups"], "A", "B")
    group, t_order = io.group_from_json(found["group"]), found["expected.T_order"]
    if group.order() != t_order:
        raise OrderMismatch(f"{name}: group order {group.order()} != recorded {t_order}")
    record.group, record.subgroups = group, {}
    # each subgroup is laid out on T's base, as intersections read it
    for label, gens in found["subgroups"].items():
        parsed = io.group_from_json({"degree": group.degree, "generators": gens, "name": label})
        sub = on_base(parsed.generators, group.degree, group.base, name=label)
        [want] = io.fields(found["expected.subgroup_orders"], label)
        if sub.order() != want:
            raise OrderMismatch(f"{name}: |{label}| = {sub.order()} != recorded {want}")
        record.subgroups[label] = sub
    if "outer_automorphism" in found:  # the one value it may hold: the action on the cosets of B
        action = CosetAction(group, record.subgroups["B"])
        if not (action.is_faithful() and action.degree == group.degree):
            raise OrderMismatch(f"{name}: the action on the cosets of B is not a faithful "
                                f"action of degree {group.degree}")
        record.outer_automorphism = Automorphism(action.act)
    return record


def verify_case(name, data_dir=None, budget=None):
    """Run the full pipeline on a case and diff against the recorded values."""
    record = load_case(name, data_dir)
    if not record.desk_scale:
        return {"case": name, "ok": True, "skipped": True,
                "note": record.note or "not desk scale; metadata only"}
    checks = [{"check": label, "expected": want, "computed": got, "ok": want == got}
              for label, want, got in _ROWS[record.construction](record, budget)]
    report = {"case": name, "ok": all(c["ok"] for c in checks), "checks": checks}
    if not report["ok"]:
        report["failures"] = [c["check"] for c in checks if not c["ok"]]
    return report


def _direct_rows(record, budget):
    exp, g = record.expected, record.group
    subs = [record.subgroups[k] for k in sorted(record.subgroups)]
    yield "T_order", exp["T_order"], g.order()
    yield "intersection_order", exp["intersection_order"], _eq2(g, subs)[0].order()
    rt = round_trip_check(g, plinth=g)
    yield "cd_count", exp["cd_count"], rt.decomposition_count
    if rt.decompositions:
        e = rt.decompositions[0]
        yield "index", exp["index"], e.index
        yield "K_orders", exp["K_orders"], sorted(k.order() for k in rt.systems[0].subgroups)
        yield "W_order", exp["W_order"], full_stabiliser(e).group.order()
    yield "round_trip", True, rt.ok


def _coset_rows(record, budget):
    exp, t = record.expected, record.group
    a, b = record.subgroups["A"], record.subgroups["B"]
    yield "T_order", exp["T_order"], t.order()
    inter = intersect(a, b)
    yield "intersection_order", exp["intersection_order"], inter.order()
    omega_size = t.order() // inter.order()
    if budget is not None and omega_size > budget:
        raise BudgetExceeded(f"{record.name}: coset space size {omega_size} above {budget}")
    yield "omega_size", exp["omega_size"], omega_size

    action = CosetAction(t, inter)
    g = action.image
    yield "coset_action_faithful", True, action.is_faithful()
    yield "coset_action_transitive", True, g.is_transitive()
    yield "point_stabiliser_order", exp["intersection_order"], g.point_stabiliser(0).order()

    rt = round_trip_check(g, plinth=g)
    yield "cd_count", exp["cd_count"], rt.decomposition_count
    if rt.decompositions:
        e = rt.decompositions[0]
        yield "index", exp["index"], e.index
        yield "homogeneous", True, e.is_homogeneous()
        report = validate_system(rt.systems[0])
        yield "K_orders", exp["K_orders"], sorted(report.orders)
        yield "system_valid", True, report.valid
        yield "W_order", exp["W_order"], full_stabiliser(e).group.order()
    yield "round_trip", True, rt.ok
    # |N_T(A∩B) : A∩B| = |C_Sym(Ω)(g)| (Dixon & Mortimer, Thm 4.2A); one search serves two rows
    index = None
    if exp.get("quasiprimitive"):
        index = normaliser_in(t, inter).order() // inter.order()
        yield "trivial_centraliser", 1, index
    theta, full = record.outer_automorphism, exp.get("full_factorisation")
    if full or theta is not None:
        holds = is_full_factorisation(t, a, b).holds  # the rows below raise unless T = AB
        yield "full_factorisation", True, holds
        if holds and full:
            yield "conjugation_transitivity", (True, True), (
                conjugation_transitivity_check(t, a, b), conjugation_transitivity_check(t, b, a))
            index = index or normaliser_in(t, inter).order() // inter.order()
            yield "self_normalising_intersection", True, index == 1
        if holds and theta is not None:
            swapped = _find_conjugator(t, theta.apply_group(a), b)
            yield "outer_automorphism_swaps_classes", (True, True), (
                swapped is not None, _find_conjugator(t, a, b) is None)
            yield "pair_equivalent_under_theta", True, equivalent_factorisations(
                t, (a, b), (b, a), [theta])


def _abstract_rows(record, budget):
    exp, t = record.expected, record.group
    labels = sorted(record.subgroups)
    subs = [record.subgroups[k] for k in labels]
    yield "T_order", exp["T_order"], t.order()
    report = is_strong_multiple_factorisation(t, subs)
    # for three subgroups the intersection of the others is a pairwise one
    pairs = sorted(("&".join(labels[:i] + labels[i + 1:]), order)
                   for i, order in enumerate(report.others_orders))
    yield "pairwise_intersections", exp["pairwise_intersections"], dict(pairs)
    yield "triple_intersection", exp["triple_intersection"], report.intersection_order
    yield "strong_multiple_factorisation", exp["strong_multiple_factorisation"], report.holds
    yield "indices", sorted(exp["indices"]), sorted(t.order() // k.order() for k in subs)
    yield "omega_size", exp["omega_size"], report.omega_prediction


# each construction's rows as (label, expected, computed); budget bounds a coset space
_ROWS = {"direct": _direct_rows, "coset_action": _coset_rows, "abstract_system": _abstract_rows}
