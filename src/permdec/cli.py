"""Command-line front end. JSON on stdout; --pretty renders the same JSON.

Exit codes: 0 all checks passed, 1 computation failure or failed check,
2 usage error.
"""

from __future__ import annotations

import argparse
import sys

from . import atlas, brute, io
from .cartesian import (
    enumerate_cartesian_decompositions,
    is_invariant,
    to_decomposition,
    to_system,
    validate_decomposition,
    validate_system,
)
from .errors import InvalidInput, PermdecError
from .factor import is_full_factorisation, is_strong_multiple_factorisation
from .structure import ORDER_BOUND
from .wreath import DEGREE_BUDGET, WreathSpec, product_action_wreath


def _emit(data, args):
    print(io.dump_json(data, path=args.out, pretty=args.pretty))


def _load_group(path):
    return io.group_from_json(io.load_json(path))


def _parse_wreath_spec(text):
    base, _, ell = text.removeprefix("wr:").partition("^")
    if not text.startswith("wr:") or not (base.isdecimal() and ell.isdecimal()):
        raise InvalidInput(f"bad wreath spec {text!r:.80}; expected wr:<base>^<ell>")
    try:
        base, ell = int(base), int(ell)
    except ValueError as exc:  # more digits than Python converts to an int
        raise InvalidInput(f"bad wreath spec {text!r:.80}: {exc}") from exc
    return WreathSpec(base, ell)


def cmd_verify_decomp(args):
    e = io.decomposition_from_json(io.load_json(args.decomp))
    report = validate_decomposition(e)
    ok = report.valid
    if args.group:
        inv = is_invariant(_load_group(args.group), e)
        report = {**vars(report), "invariance": inv}
        ok = ok and inv.invariant
    _emit(report, args)
    return 0 if ok else 1


def cmd_verify_system(args):
    k = io.system_from_json(io.load_json(args.system))
    report = validate_system(k)
    _emit(report, args)
    return 0 if report.valid else 1


def cmd_to_system(args):
    g = _load_group(args.group)
    e = io.decomposition_from_json(io.load_json(args.decomp))
    _emit(to_system(g, e, args.omega), args)
    return 0


def cmd_to_decomp(args):
    k = io.system_from_json(io.load_json(args.system))
    e = to_decomposition(k)
    _emit({"decomposition": e, "index": e.index}, args)
    return 0


def cmd_enumerate(args):
    g = _load_group(args.group)
    plinth = _load_group(args.plinth) if args.plinth else None
    decs = enumerate_cartesian_decompositions(
        g, omega=args.omega, plinth=plinth, bound=args.budget or ORDER_BOUND
    )
    report = {
        "count": len(decs),
        "decompositions": [
            {"index": e.index, "homogeneous": e.is_homogeneous(), "partitions": e}
            for e in decs
        ],
    }
    ok = True
    if args.oracle:
        want = brute.brute_force_decompositions(g)
        report["oracle_count"] = len(want)
        report["oracle_match"] = want == decs
        ok = report["oracle_match"]
    _emit(report, args)
    return 0 if ok else 1


def cmd_wreath(args):
    spec = _parse_wreath_spec(args.spec)
    w, e_nat = product_action_wreath(spec, degree_budget=args.budget or DEGREE_BUDGET)
    report = {
        "group": io.group_to_json(w),
        "degree": w.degree,
        "order": w.order() if w.degree <= 2500 else None,
        "natural_decomposition": e_nat,
    }
    _emit(report, args)
    return 0


def cmd_factcheck(args):
    g = _load_group(args.group)
    subs = [_load_group(p) for p in args.subgroups]
    if len(subs) == 2:
        report = is_full_factorisation(g, subs[0], subs[1])
    else:
        report = is_strong_multiple_factorisation(g, subs)
    _emit(report, args)
    return 0 if report.holds else 1


def cmd_atlas(args):
    if args.action == "list":
        rows = [
            {"name": n, "citation": c, "desk_scale": d}
            for n, c, d in atlas.list_cases(args.data_dir)
        ]
        _emit({"cases": rows}, args)
        return 0
    report = atlas.verify_case(args.name, data_dir=args.data_dir, budget=args.budget)
    _emit(report, args)
    return 0 if report["ok"] else 1


def cmd_corpus(args):
    results = []
    ok = True
    for name, _, desk in atlas.list_cases(args.data_dir):
        if not desk:
            continue
        try:
            rep = atlas.verify_case(name, data_dir=args.data_dir, budget=args.budget)
            passed = rep["ok"]
        except PermdecError as exc:
            passed = False
            rep = {"case": name, "ok": False, "error": type(exc).__name__, "message": str(exc)}
        results.append(rep)
        ok = ok and passed
    oracle = _run_oracle_suite()
    results.extend(oracle)
    ok = ok and all(r["ok"] for r in oracle)
    report = {"results": results, "ok": ok}
    if args.pretty:
        for r in results:
            print(f"{r['case']:12s} {'PASS' if r['ok'] else 'FAIL'}")
        if args.out:
            io.dump_json(report, path=args.out, pretty=True)
    else:
        _emit(report, args)
    return 0 if ok else 1


def _run_oracle_suite():
    out = []
    for entry in io.load_json(atlas.DEFAULT_DATA_DIR / "corpus.json"):
        g = io.group_from_json(entry)
        plinth = None
        if "plinth" in entry:
            plinth = io.group_from_json({"degree": entry["degree"], "generators": entry["plinth"]})
        got = enumerate_cartesian_decompositions(g, plinth=plinth)
        want = brute.brute_force_decompositions(g)
        out.append(
            {
                "case": f"oracle:{entry['name']}",
                "ok": got == want and len(got) == entry["expected_cd_count"],
                "count": len(got),
                "oracle_count": len(want),
            }
        )
    return out


def build_parser():
    parser = argparse.ArgumentParser(
        prog="permdec",
        description="Cartesian decompositions and systems of finite permutation groups",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p, budget=False):
        p.add_argument("--pretty", action="store_true")
        p.add_argument("--out")
        if budget:
            p.add_argument("--budget", type=int, default=None)

    p = sub.add_parser("verify-decomp")
    p.add_argument("--decomp", required=True)
    p.add_argument("--group")
    common(p)
    p.set_defaults(fn=cmd_verify_decomp)

    p = sub.add_parser("verify-system")
    p.add_argument("--system", required=True)
    common(p)
    p.set_defaults(fn=cmd_verify_system)

    p = sub.add_parser("to-system")
    p.add_argument("--group", required=True)
    p.add_argument("--decomp", required=True)
    p.add_argument("--omega", type=int, default=0)
    common(p)
    p.set_defaults(fn=cmd_to_system)

    p = sub.add_parser("to-decomp")
    p.add_argument("--system", required=True)
    common(p)
    p.set_defaults(fn=cmd_to_decomp)

    p = sub.add_parser("enumerate")
    p.add_argument("--group", required=True)
    p.add_argument("--omega", type=int, default=0)
    p.add_argument("--plinth")
    p.add_argument("--oracle", action="store_true")
    common(p, budget=True)
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("wreath")
    p.add_argument("spec")
    common(p, budget=True)
    p.set_defaults(fn=cmd_wreath)

    p = sub.add_parser("factcheck")
    p.add_argument("--group", required=True)
    p.add_argument("subgroups", nargs="+")
    common(p)
    p.set_defaults(fn=cmd_factcheck)

    p = sub.add_parser("atlas")
    p.add_argument("action", choices=["list", "verify"])
    p.add_argument("name", nargs="?")
    p.add_argument("--data-dir")
    common(p, budget=True)
    p.set_defaults(fn=cmd_atlas)

    p = sub.add_parser("corpus")
    p.add_argument("--data-dir")
    common(p, budget=True)
    p.set_defaults(fn=cmd_corpus)

    return parser


def run(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.verb == "atlas" and args.action == "verify" and not args.name:
        parser.error("atlas verify requires a case name")
    try:
        if getattr(args, "budget", None) is not None and args.budget < 1:
            raise InvalidInput(f"--budget must be at least 1, got {args.budget}")
        if args.out is not None:  # before the verb runs, which may take long
            io.check_writable(args.out)
        return args.fn(args)
    except PermdecError as exc:
        print(io.dump_json({"error": type(exc).__name__, "message": str(exc)}))
        return 1


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
