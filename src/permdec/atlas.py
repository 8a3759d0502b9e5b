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
from .structure import CosetAction, centraliser_in_symmetric, intersect, normaliser_in
from .wreath import full_stabiliser

DEFAULT_DATA_DIR = pathlib.Path(__file__).resolve().parent / "data"
_EXPECTED_KEYS = {  # the expected values each construction's _verify_* reads
    "direct": ("intersection_order", "cd_count", "index", "K_orders", "W_order"),
    "coset_action": ("intersection_order", "omega_size", "cd_count", "index", "K_orders", "W_order"),
    "abstract_system": ("pairwise_intersections", "triple_intersection",
                        "strong_multiple_factorisation", "indices", "omega_size"),
}
_EXPECTED_TYPES = {  # the JSON type each of those values is compared as; lists hold integers
    "intersection_order": int, "omega_size": int, "cd_count": int, "index": int, "W_order": int,
    "triple_intersection": int, "K_orders": list, "indices": list,
    "pairwise_intersections": dict, "strong_multiple_factorisation": bool,
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


def list_cases(data_dir=None):
    """All bundled cases as (name, citation, desk_scale), sorted by name."""
    return [tuple(io.fields(io.load_json(path), "name", "citation", "desk_scale"))
            for path in sorted(_cases_dir(data_dir).glob("*.json"))]


def load_case(name, data_dir=None):
    """Load a bundled case, recomputing and checking every recorded order."""
    path = _case_path(name, data_dir)
    try:
        return _read_case(name, io.load_json(path))
    except InvalidInput as exc:  # name the case and its file
        raise InvalidInput(f"case {name} ({path}): {exc}") from exc


def _read_case(name, data):
    record = CaseRecord(*io.fields(data, "name", "desk_scale", "citation", "expected"),
                        construction=data.get("construction"), note=data.get("note"))
    if not record.desk_scale:
        return record

    group_data, subgroup_gens = io.fields(data, "group", "subgroups")
    t_order, subgroup_orders = io.fields(record.expected, "T_order", "subgroup_orders")
    keys = _EXPECTED_KEYS.get(record.construction, ())
    for key, value in zip(keys, io.fields(record.expected, *keys)):
        want = _EXPECTED_TYPES[key]
        if type(value) is not want or (want is list and any(type(x) is not int for x in value)):
            kind = "list of int" if want is list else want.__name__
            raise InvalidInput(f"expected.{key} must be of type {kind}, got {value!r:.80}")
    if not isinstance(subgroup_gens, dict):
        raise InvalidInput("subgroups must map labels to generators")
    if record.construction == "coset_action":
        io.fields(subgroup_gens, "A", "B")
    group = io.group_from_json(group_data)
    if group.order() != t_order:
        raise OrderMismatch(f"{name}: group order {group.order()} != recorded {t_order}")
    subgroups = {}
    for label, gens in subgroup_gens.items():  # each laid out on T's base, as intersections read it
        parsed = io.group_from_json({"degree": group.degree, "generators": gens, "name": label})
        sub = on_base(parsed.generators, group.degree, group.base, name=label)
        [want] = io.fields(subgroup_orders, label)
        if sub.order() != want:
            raise OrderMismatch(f"{name}: |{label}| = {sub.order()} != recorded {want}")
        subgroups[label] = sub
    record.group = group
    record.subgroups = subgroups
    if data.get("outer_automorphism") == "coset_action_on_B":
        action = CosetAction(group, *io.fields(subgroups, "B"))
        if not (action.is_faithful() and action.degree == group.degree):
            raise OrderMismatch(f"{name}: the action on the cosets of B is not a faithful "
                                f"action of degree {group.degree}")
        record.outer_automorphism = Automorphism(action.act, name="theta")
    return record


class _Diff:
    def __init__(self):
        self.checks = []

    def add(self, label, expected, computed):
        self.checks.append(
            {"check": label, "expected": expected, "computed": computed,
             "ok": expected == computed}
        )

    def report(self, name):
        return {
            "case": name,
            "ok": all(c["ok"] for c in self.checks),
            "checks": self.checks,
        }


def verify_case(name, data_dir=None, budget=None):
    """Run the full pipeline on a case and diff against the recorded values."""
    record = load_case(name, data_dir)
    if not record.desk_scale:
        return {"case": name, "ok": True, "skipped": True,
                "note": record.note or "not desk scale; metadata only"}
    diff = _Diff()
    if record.construction == "coset_action":
        _verify_coset_case(record, diff, budget)
    elif record.construction == "abstract_system":
        _verify_abstract_case(record, diff)
    elif record.construction == "direct":
        _verify_direct_case(record, diff)
    else:
        raise UnknownCase(f"{name}: unknown construction {record.construction!r}")
    report = diff.report(name)
    if not report["ok"]:
        bad = [c["check"] for c in report["checks"] if not c["ok"]]
        report["failures"] = bad
    return report


def _verify_direct_case(record, diff):
    exp = record.expected
    g = record.group
    subs = [record.subgroups[k] for k in sorted(record.subgroups)]
    diff.add("T_order", exp["T_order"], g.order())
    diff.add("intersection_order", exp["intersection_order"], _eq2(g, subs)[0].order())
    rt = round_trip_check(g, plinth=g)
    diff.add("cd_count", exp["cd_count"], rt.decomposition_count)
    if rt.decompositions:
        e = rt.decompositions[0]
        diff.add("index", exp["index"], e.index)
        diff.add("K_orders", exp["K_orders"], sorted(k.order() for k in rt.systems[0].subgroups))
        diff.add("W_order", exp["W_order"], full_stabiliser(e).group.order())
    diff.add("round_trip", True, rt.ok)


def _verify_coset_case(record, diff, budget):
    exp = record.expected
    t = record.group
    a, b = record.subgroups["A"], record.subgroups["B"]
    diff.add("T_order", exp["T_order"], t.order())
    inter = intersect(a, b)
    diff.add("intersection_order", exp["intersection_order"], inter.order())
    omega_size = t.order() // inter.order()
    if budget is not None and omega_size > budget:
        raise BudgetExceeded(f"{record.name}: coset space size {omega_size} above {budget}")
    diff.add("omega_size", exp["omega_size"], omega_size)

    action = CosetAction(t, inter)
    g = action.image
    diff.add("coset_action_faithful", True, action.is_faithful())
    diff.add("coset_action_transitive", True, g.is_transitive())
    diff.add("point_stabiliser_order", exp["intersection_order"],
             g.point_stabiliser(0).order())

    rt = round_trip_check(g, plinth=g)
    diff.add("cd_count", exp["cd_count"], rt.decomposition_count)
    if rt.decompositions:
        e = rt.decompositions[0]
        diff.add("index", exp["index"], e.index)
        diff.add("homogeneous", True, e.is_homogeneous())
        report = validate_system(rt.systems[0])
        diff.add("K_orders", exp["K_orders"], sorted(report.orders))
        diff.add("system_valid", True, report.valid)
        diff.add("W_order", exp["W_order"], full_stabiliser(e).group.order())
    diff.add("round_trip", True, rt.ok)
    if exp.get("quasiprimitive"):
        diff.add("trivial_centraliser", 1, centraliser_in_symmetric(g).order())
    needs_ab = exp.get("full_factorisation") or record.outer_automorphism is not None
    full = needs_ab and is_full_factorisation(t, a, b).holds  # the rows below raise unless T = AB
    if needs_ab:
        diff.add("full_factorisation", True, full)
    if full and exp.get("full_factorisation"):
        diff.add("conjugation_transitivity", (True, True),
                 (conjugation_transitivity_check(t, a, b),
                  conjugation_transitivity_check(t, b, a)))
        n = normaliser_in(t, inter)
        diff.add("self_normalising_intersection", True, n.same_group(inter))
    if full and record.outer_automorphism is not None:
        theta = record.outer_automorphism
        swapped = _find_conjugator(t, theta.apply_group(a), b)
        unswapped = _find_conjugator(t, a, b)
        diff.add("outer_automorphism_swaps_classes", (True, True),
                 (swapped is not None, unswapped is None))
        diff.add("pair_equivalent_under_theta", True,
                 equivalent_factorisations(t, (a, b), (b, a), [theta]))


def _verify_abstract_case(record, diff):
    exp = record.expected
    t = record.group
    labels = sorted(record.subgroups)
    subs = [record.subgroups[k] for k in labels]
    diff.add("T_order", exp["T_order"], t.order())
    report = is_strong_multiple_factorisation(t, subs)
    # for three subgroups the intersection of the others is a pairwise one
    pairs = sorted(("&".join(labels[:i] + labels[i + 1:]), order)
                   for i, order in enumerate(report.others_orders))
    diff.add("pairwise_intersections", exp["pairwise_intersections"], dict(pairs))
    diff.add("triple_intersection", exp["triple_intersection"], report.intersection_order)
    diff.add("strong_multiple_factorisation", exp["strong_multiple_factorisation"],
             report.holds)
    diff.add("indices", sorted(exp["indices"]),
             sorted(t.order() // k.order() for k in subs))
    diff.add("omega_size", exp["omega_size"], report.omega_prediction)
