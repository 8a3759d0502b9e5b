"""Regenerate the bundled case data under src/permdec/data/.

Constructions are deterministic: explicit generator words where known,
plus seeded random subgroup searches (seed 20260823) for the two
subgroups that are easiest to find that way. Every generated record is
verified against the expected orders and read back through the atlas
loader, which checks its fields and recomputes its orders, before anything
is written, so a failed regeneration never overwrites good data. The
checks raise explicitly and so hold under ``python -O`` as well.

Run from the repository root: ``python3 tools/gen_case_data.py``.
"""

import json
import pathlib
import random
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from permdec.atlas import _read_case  # noqa: E402
from permdec.group import PermGroup, group_from_generators  # noqa: E402
from permdec.perm import Permutation  # noqa: E402
from permdec.structure import intersect  # noqa: E402

DATA = ROOT / "src" / "permdec" / "data"
SEED = 20260823

C = Permutation.from_cycles


def require(condition, what):
    if not condition:
        raise RuntimeError(f"case data check failed: {what}")


def gens_json(group):
    return [list(g.images) for g in group.generators]


def perm_json(p):
    return list(p.images)


# --- Klein grid --------------------------------------------------------------


def klein_case():
    g = PermGroup([C(4, [(0, 1), (2, 3)]), C(4, [(0, 2), (1, 3)])], name="V4")
    k1 = PermGroup([C(4, [(0, 1), (2, 3)])])
    k2 = PermGroup([C(4, [(0, 2), (1, 3)])])
    require(g.order() == 4 and k1.order() == 2 and k2.order() == 2, "Klein orders")
    return {
        "name": "KLEIN_GRID",
        "desk_scale": True,
        "citation": "regular Klein four-group on a 2x2 grid; three grid decompositions",
        "construction": "direct",
        "group": {"degree": 4, "name": "V4", "generators": gens_json(g)},
        "subgroups": {"K1": gens_json(k1), "K2": gens_json(k2)},
        "expected": {
            "T_order": 4,
            "subgroup_orders": {"K1": 2, "K2": 2},
            "intersection_order": 1,
            "omega_size": 4,
            "index": 2,
            "cd_count": 3,
            "K_orders": [2, 2],
            "W_order": 8,
            "W": "S2 wr S2",
        },
    }


# --- A6 on 36 points ---------------------------------------------------------


def a6_case():
    t = PermGroup([C(6, [(0, 1, 2, 3, 4)]), C(6, [(1, 2, 3, 4, 5)])], name="A6")
    a = PermGroup([C(6, [(0, 1, 2, 3, 4)]), C(6, [(0, 1, 2)])], name="A5")
    b = PermGroup([C(6, [(0, 1, 2, 3, 4)]), C(6, [(0, 5), (1, 4)])], name="L2(5)")
    require(t.order() == 360, "|A6| = 360")
    require(a.order() == 60 and all(g.images[5] == 5 for g in a.generators), "A5 fixes 5")
    require(b.order() == 60 and b.is_transitive(), "L2(5) is transitive of order 60")
    require(intersect(a, b).order() == 10, "|A5 ∩ L2(5)| = 10")
    return {
        "name": "A6_36",
        "desk_scale": True,
        "citation": "almost simple case T = A6: two classes of A5 subgroups, coset space of size 36",
        "construction": "coset_action",
        "group": {"degree": 6, "name": "A6", "generators": gens_json(t)},
        "subgroups": {"A": gens_json(a), "B": gens_json(b)},
        "outer_automorphism": "coset_action_on_B",
        "expected": {
            "T_order": 360,
            "subgroup_orders": {"A": 60, "B": 60},
            "intersection_order": 10,
            "omega_size": 36,
            "index": 2,
            "cd_count": 1,
            "K_orders": [60, 60],
            "W_order": 1036800,
            "W": "S6 wr S2",
            "quasiprimitive": True,
            "full_factorisation": True,
        },
    }


# --- M12 on 144 points -------------------------------------------------------


def m12_case():
    n = 12
    a = C(n, [tuple(range(11))])
    b = C(n, [(2, 6, 10, 7), (3, 9, 4, 5)])
    c = C(n, [(0, 11), (1, 10), (2, 5), (3, 7), (4, 8), (6, 9)])
    t = PermGroup([a, b, c], name="M12")
    require(t.order() == 95040, "|M12| = 95040")
    sub_a = PermGroup([a, b], name="M11")
    require(sub_a.order() == 7920 and all(g.images[11] == 11 for g in sub_a.generators),
            "M11 fixes 11")

    rng = random.Random(SEED)
    sub_b = None
    for trial in range(200):
        y = t.random_element(rng)
        cand = PermGroup([a, y])
        if cand.order() == 7920 and cand.is_transitive():
            sub_b = cand
            print(f"M12: transitive M11 found at trial {trial}")
            break
    require(sub_b is not None, "a transitive M11 is found")
    require(intersect(sub_a, sub_b).order() == 660, "|M11 ∩ M11'| = 660")
    return {
        "name": "M12_144",
        "desk_scale": True,
        "citation": "almost simple case T = M12: two classes of M11 subgroups, coset space of size 144",
        "construction": "coset_action",
        "group": {"degree": 12, "name": "M12", "generators": gens_json(t)},
        "subgroups": {"A": gens_json(sub_a), "B": gens_json(sub_b)},
        "expected": {
            "T_order": 95040,
            "subgroup_orders": {"A": 7920, "B": 7920},
            "intersection_order": 660,
            "omega_size": 144,
            "index": 2,
            "cd_count": 1,
            "K_orders": [7920, 7920],
            "W_order": 2 * 479001600**2,
            "W": "S12 wr S2",
            "quasiprimitive": True,
            "full_factorisation": True,
        },
    }


# --- Sp6(2) on 63 points -----------------------------------------------------

PAIRS = ((0, 1), (2, 3), (4, 5))


def form(x, y):
    out = 0
    for i, j in PAIRS:
        out ^= ((x >> i) & 1) & ((y >> j) & 1)
        out ^= ((x >> j) & 1) & ((y >> i) & 1)
    return out


def q_plus(x):
    b = [(x >> i) & 1 for i in range(6)]
    return b[0] & b[1] ^ b[2] & b[3] ^ b[4] & b[5]


def q_minus(x):
    b = [(x >> i) & 1 for i in range(6)]
    return b[0] & b[1] ^ b[2] & b[3] ^ b[4] ^ b[4] & b[5] ^ b[5]


def transvection(v):
    # x -> x + <x,v> v on the 63 nonzero vectors; point p encodes vector p+1
    images = []
    for p in range(63):
        x = p + 1
        if form(x, v):
            x ^= v
        images.append(x - 1)
    return Permutation(images)


def sp62_case():
    all_t = [transvection(v) for v in range(1, 64)]
    t = group_from_generators(all_t, 63, name="Sp6(2)")
    require(t.order() == 1451520 and t.is_transitive(), "Sp6(2) is transitive of order 1451520")

    o_plus = group_from_generators(
        [transvection(v) for v in range(1, 64) if q_plus(v)], 63, name="O6+(2)"
    )
    o_minus = group_from_generators(
        [transvection(v) for v in range(1, 64) if q_minus(v)], 63, name="O6-(2)"
    )
    require(o_plus.order() == 40320, "|O6+(2)| = 40320")
    require(o_minus.order() == 51840, "|O6-(2)| = 51840")

    rng = random.Random(SEED)
    g2 = None
    for trial in range(2000):
        x = t.random_element(rng)
        y = t.random_element(rng)
        cand = PermGroup([x, y])
        if cand.order() == 12096:
            g2 = cand
            print(f"Sp6(2): order-12096 subgroup found at trial {trial}")
            break
    require(g2 is not None, "an order-12096 subgroup is found")

    i12 = intersect(g2, o_minus)
    i13 = intersect(g2, o_plus)
    i23 = intersect(o_minus, o_plus)
    triple = intersect(i12, o_plus)
    require((i12.order(), i13.order(), i23.order(), triple.order()) == (432, 336, 1440, 12),
            "Sp6(2) intersection orders")
    return {
        "name": "SP62_63",
        "desk_scale": True,
        "citation": "index-3 case T = Sp6(2): subgroups G2(2), O6-(2), O6+(2); predicted point count 120960",
        "construction": "abstract_system",
        "group": {"degree": 63, "name": "Sp6(2)", "generators": gens_json(t)},
        "subgroups": {
            "K1": gens_json(g2),
            "K2": gens_json(o_minus),
            "K3": gens_json(o_plus),
        },
        "expected": {
            "T_order": 1451520,
            "subgroup_orders": {"K1": 12096, "K2": 51840, "K3": 40320},
            "pairwise_intersections": {"K1&K2": 432, "K1&K3": 336, "K2&K3": 1440},
            "triple_intersection": 12,
            "indices": [120, 28, 36],
            "omega_size": 120960,
            "index": 3,
            "strong_multiple_factorisation": True,
            "W": "S120 x S28 x S36",
            "omega_materialised": False,
        },
    }


# --- metadata-only rows ------------------------------------------------------


def metadata_cases():
    return [
        {
            "name": "POMEGA8_Q",
            "desk_scale": False,
            "citation": "almost simple case T = POmega8+(q): K = Omega7(q), homogeneous index 2",
            "expected": {
                "T": "POmega8+(q)",
                "K": "Omega7(q)",
                "W": "S_{(d/2)q^3(q^4-1)} wr S2, d = gcd(4, q^4-1)",
                "omega_size": "(d^2/4) q^6 (q^4-1)^2",
                "cd_count_note": "exactly 3 when POmega8+(q) <= G <= POmega8+(q).Phi<theta>, else 1",
            },
            "note": "not reproducible at desk scale; recorded as expected metadata only",
        },
        {
            "name": "POMEGA8_3",
            "desk_scale": False,
            "citation": "index-3 case T = POmega8+(3): Omega7(3), 3^6:PSL4(3), POmega8+(2)",
            "expected": {
                "T": "POmega8+(3)",
                "subgroups": ["Omega7(3)", "3^6:PSL4(3)", "POmega8+(2)"],
                "W": "S1080 x S1120 x S28431",
                "omega_size": 34390137600,
                "index": 3,
            },
            "note": "not reproducible at desk scale; recorded as expected metadata only",
        },
        {
            "name": "SP4Q_EVEN",
            "desk_scale": False,
            "citation": "almost simple case T = Sp4(q), q >= 4 even: K = Sp2(q^2).2, homogeneous index 2",
            "expected": {
                "T": "Sp4(q), q >= 4 even",
                "K": "Sp2(q^2).2",
                "W": "S_{q^2(q^2-1)} wr S2",
                "omega_size": "q^4 (q^2-1)^2",
            },
            "note": "not reproducible at desk scale; recorded as expected metadata only",
        },
        {
            "name": "SP4A2_MULT",
            "desk_scale": False,
            "citation": "index-3 case T = Sp(4a,2), a >= 2: Sp(2a,4).2, O-(4a,2), O+(4a,2)",
            "expected": {
                "T": "Sp(4a,2), a >= 2",
                "subgroups": ["Sp(2a,4).2", "O-(4a,2)", "O+(4a,2)"],
                "W": "S_n1 x S_n2 x S_n3",
                "omega_size": "n1*n2*n3 with n_i the corresponding subgroup indices",
                "index": 3,
            },
            "note": "not reproducible at desk scale; recorded as expected metadata only",
        },
    ]


# --- degree <= 9 oracle corpus -------------------------------------------------


def xor_perm(n_bits, mask):
    return Permutation([p ^ mask for p in range(1 << n_bits)])


def corpus():
    entries = []

    def add(name, gens, degree, plinth_gens=None, expected_cd=None):
        g = PermGroup(gens, degree=degree, name=name)
        require(g.is_transitive(), f"{name} is transitive")
        entry = {
            "name": name,
            "degree": degree,
            "generators": [list(p.images) for p in gens],
            "expected_cd_count": expected_cd,
        }
        if plinth_gens is not None:
            m = PermGroup(plinth_gens, degree=degree)
            require(m.is_transitive() and m.is_subgroup_of(g),
                    f"{name}: the plinth is a transitive subgroup")
            entry["plinth"] = [list(p.images) for p in plinth_gens]
        entries.append(entry)

    v = [C(4, [(0, 1), (2, 3)]), C(4, [(0, 2), (1, 3)])]
    add("KLEIN4", v, 4, plinth_gens=v, expected_cd=3)
    add("D8_4", [C(4, [(0, 1, 2, 3)]), C(4, [(1, 3)])], 4,
        plinth_gens=[C(4, [(0, 1), (2, 3)]), C(4, [(0, 2), (1, 3)])], expected_cd=1)
    add("S4", [C(4, [(0, 1, 2, 3)]), C(4, [(0, 1)])], 4, expected_cd=0)
    add("A4", [C(4, [(0, 1, 2)]), C(4, [(0, 1), (2, 3)])], 4, expected_cd=0)
    add("C6", [C(6, [(0, 1, 2, 3, 4, 5)])], 6,
        plinth_gens=[C(6, [(0, 1, 2, 3, 4, 5)])], expected_cd=1)
    e8 = [xor_perm(3, 1), xor_perm(3, 2), xor_perm(3, 4)]
    add("E8", e8, 8, plinth_gens=e8, expected_cd=56)
    s3s3 = [
        C(9, [(0, 3, 6), (1, 4, 7), (2, 5, 8)]),
        C(9, [(3, 6), (4, 7), (5, 8)]),
        C(9, [(0, 1, 2), (3, 4, 5), (6, 7, 8)]),
        C(9, [(1, 2), (4, 5), (7, 8)]),
    ]
    add("S3xS3_9", s3s3, 9,
        plinth_gens=[s3s3[0], s3s3[2]], expected_cd=2)
    return entries


def rendered():
    """Every bundled data file as {path: text}, built and checked; nothing is written."""
    cases = [klein_case(), a6_case(), m12_case(), sp62_case()] + metadata_cases()
    for case in cases:  # as the atlas will read it back from its file
        _read_case(case["name"], json.loads(json.dumps(case)))
    files = {DATA / "cases" / f"{case['name']}.json": case for case in cases}
    files[DATA / "corpus.json"] = corpus()
    return {path: json.dumps(data, indent=1) + "\n" for path, data in files.items()}


def main():
    files = rendered()
    (DATA / "cases").mkdir(parents=True, exist_ok=True)
    for path, text in files.items():
        path.write_text(text)
        print("wrote", path)


if __name__ == "__main__":
    main()
