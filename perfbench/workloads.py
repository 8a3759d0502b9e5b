"""Seeded inputs and checked operations for the permdec benchmark.

``build(name, seed, root)`` turns a seed into a ``Workload``: the generated
inputs and an ordered list of operations. Every operation makes one call
into permdec's public API on those inputs and checks the answer against a
reference that permdec did not produce: the recorded case JSON, a closed
form (n!, 2^k, the number of direct-sum decompositions of F_p^n), or
membership known by construction. The seed relabels points and draws the
sift queries; permdec only ever sees the generated permutations.

Why each workload exists:

- ``m12_coset``: large groups at degree 144 (M12 on the cosets of
  M11 ∩ M11'), where the search kernel, the sift path and products at
  degree 144 dominate.
- ``atlas_small``: every other desk-scale atlas case and all three
  construction kinds, each under four relabellings; intersections in
  Sp6(2) dominate, and the factor layer's conjugator search runs only here.
- ``regular_roundtrip``: the many-small-groups case, about 37 k tiny
  chains through to_system, to_decomposition and validate_system, with no
  normaliser.
- ``chain_scale``: the group and perm layers alone, chain builds and sifts
  up to degree 128 with no cartesian code.

With ``small=True`` each workload keeps its shape at a size that runs in
about a second; the benchmark's own tests use it.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import shutil
import tempfile
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import permdec
from permdec import atlas

NAMES = ("m12_coset", "atlas_small", "regular_roundtrip", "chain_scale")


@dataclass
class Operation:
    """One public-API call; ``run()`` returns ``(answer, correct)``."""

    name: str
    run: object


@dataclass
class Workload:
    name: str
    seed: int
    operations: list
    scratch: Path | None = None
    info: dict = field(default_factory=dict)

    def close(self):
        if self.scratch is not None:
            shutil.rmtree(self.scratch, ignore_errors=True)
            self.scratch = None


# --- seeded relabelling -------------------------------------------------------


def seeded_rng(seed, label):
    return random.Random(f"{seed}:{label}")


def random_relabelling(n, rng):
    pi = list(range(n))
    rng.shuffle(pi)
    return pi


def conjugate_images(images, pi):
    """Images of pi^-1 g pi: the point pi[x] goes to pi[g[x]]."""
    out = [0] * len(images)
    for x, y in enumerate(images):
        out[pi[x]] = pi[y]
    return out


def relabel_case(data, pi):
    """A copy of an atlas case JSON with every generator conjugated by pi."""
    out = json.loads(json.dumps(data))
    out["group"]["generators"] = [conjugate_images(g, pi) for g in out["group"]["generators"]]
    out["subgroups"] = {
        label: [conjugate_images(g, pi) for g in gens]
        for label, gens in out["subgroups"].items()
    }
    return out


# --- closed-form references --------------------------------------------------


def gl_order(n, p):
    out = 1
    for i in range(n):
        out *= p**n - p**i
    return out


def _partitions(n, largest=None):
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def direct_sum_decompositions(p, n):
    """Unordered decompositions of F_p^n into two or more nonzero subspaces.

    A decomposition with summand dimensions d_1..d_k is an orbit of GL(n, p)
    with stabiliser prod GL(d_i, p) extended by the permutations of equal
    summands, which gives |GL(n)| / (prod |GL(d_i)| * prod m_d!).
    """
    total = 0
    for dims in _partitions(n):
        if len(dims) < 2:
            continue
        stab = 1
        for d in dims:
            stab *= gl_order(d, p)
        for mult in Counter(dims).values():
            stab *= math.factorial(mult)
        total += gl_order(n, p) // stab
    return total


# --- generators ---------------------------------------------------------------


def regular_elementary_abelian(p, n):
    """Translations by the basis vectors of F_p^n acting on itself."""
    vectors = list(itertools.product(range(p), repeat=n))
    index = {v: i for i, v in enumerate(vectors)}
    return [
        [index[tuple((v[k] + (k == j)) % p for k in range(n))] for v in vectors]
        for j in range(n)
    ]


def coxeter_generators(n):
    """The adjacent transpositions (i i+1), which generate S_n."""
    out = []
    for i in range(n - 1):
        images = list(range(n))
        images[i], images[i + 1] = i + 1, i
        out.append(images)
    return out


def pair_swaps(k):
    """The transpositions (2i 2i+1), which generate 2^k on 2k points."""
    out = []
    for i in range(k):
        images = list(range(2 * k))
        images[2 * i], images[2 * i + 1] = 2 * i + 1, 2 * i
        out.append(images)
    return out


def make_group(gens, degree):
    return permdec.PermGroup([permdec.Permutation(g) for g in gens], degree=degree)


# --- operations ---------------------------------------------------------------


def _verify_op(case, data_dir, label):
    def run():
        report = atlas.verify_case(case, data_dir=data_dir)
        checks = tuple((c["check"], repr(c["computed"])) for c in report["checks"])
        ok = report["ok"] and not report.get("skipped") and len(checks) > 0
        return (case, checks), ok

    return Operation(f"verify_case {case} {label}", run)


def _atlas_workload(name, seed, cases, root, labellings=1):
    """verify_case on each case under several seed-drawn relabellings."""
    scratch_parent = root / ".perfbench" / "tmp"
    scratch_parent.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=scratch_parent))
    ops = []
    for case in cases:
        data = json.loads((atlas.DEFAULT_DATA_DIR / "cases" / f"{case}.json").read_text())
        for i in range(labellings):
            pi = random_relabelling(data["group"]["degree"], seeded_rng(seed, f"{case}:{i}"))
            data_dir = scratch / f"{case}-{i}"
            (data_dir / "cases").mkdir(parents=True)
            (data_dir / "cases" / f"{case}.json").write_text(json.dumps(relabel_case(data, pi)))
            ops.append(_verify_op(case, data_dir, f"labelling {i}"))
    info = {"cases": list(cases), "labellings": labellings}
    return Workload(name, seed, ops, scratch=scratch, info=info)


def _round_trip_op(p, n, gens):
    want = direct_sum_decompositions(p, n)

    def run():
        g = make_group(gens, p**n)
        report = permdec.round_trip_check(g, plinth=g)
        answer = (report.decomposition_count, report.ok)
        return answer, answer == (want, True)

    return Operation(f"round_trip_check regular {p}^{n}", run)


def _enumerate_op(p, n, gens):
    want = direct_sum_decompositions(p, n)

    def run():
        g = make_group(gens, p**n)
        count = len(permdec.enumerate_cartesian_decompositions(g, plinth=g))
        return count, count == want

    return Operation(f"enumerate_cartesian_decompositions regular {p}^{n}", run)


def _regular_workload(seed, small):
    rt, enum = ((3, 2), (2, 3)) if small else ((3, 3), (2, 4))
    ops = []
    for (p, n), make in ((rt, _round_trip_op), (enum, _enumerate_op)):
        pi = random_relabelling(p**n, seeded_rng(seed, f"regular {p}^{n}"))
        gens = [conjugate_images(g, pi) for g in regular_elementary_abelian(p, n)]
        ops.append(make(p, n, gens))
    return Workload("regular_roundtrip", seed, ops)


def _transposition_word(degree, swaps, length, rng):
    """Images of a random word of the given length in transpositions (a, b)."""
    images = list(range(degree))
    where = list(range(degree))
    for _ in range(length):
        a, b = rng.choice(swaps)
        # p * (a b) swaps the values a and b in p's image list
        i, j = where[a], where[b]
        images[i], images[j] = b, a
        where[a], where[b] = j, i
    return images


def _swap_subset(degree, swaps, mask):
    """Images of the product of the disjoint transpositions picked by mask."""
    images = list(range(degree))
    for i, (a, b) in enumerate(swaps):
        if mask >> i & 1:
            images[a], images[b] = b, a
    return images


def _chain_workload(seed, small):
    sym_range = range(6, 9) if small else range(16, 25)
    k = 8 if small else 64
    queries = 50 if small else 2000
    built = {}
    ops = []

    def build_op(label, gens, degree, want):
        def run():
            g = make_group(gens, degree)
            built[label] = g
            order = g.order()
            return order, order == want

        return Operation(f"order {label}", run)

    def query_op(label, gens, degree, perms, expected):
        def run():
            g = built[label] if label in built else make_group(gens, degree)
            answers = tuple(g.contains(x) for x in perms)
            return answers, answers == expected

        return Operation(f"contains {label} x{len(perms)}", run)

    sym_inputs = {}
    for n in sym_range:
        pi = random_relabelling(n, seeded_rng(seed, f"S{n}"))
        gens = [conjugate_images(g, pi) for g in coxeter_generators(n)]
        sym_inputs[n] = gens
        ops.append(build_op(f"S{n}", gens, n, math.factorial(n)))

    pi = random_relabelling(2 * k, seeded_rng(seed, f"2^{k}"))
    ea_gens = [conjugate_images(g, pi) for g in pair_swaps(k)]
    ops.append(build_op(f"2^{k}", ea_gens, 2 * k, 2**k))

    # queries: words in the generators are members, every permutation lies
    # in S_n, and a permutation lies in 2^k exactly when it maps each
    # relabelled pair {pi(2i), pi(2i+1)} onto itself
    n = sym_range[-1]
    rng = seeded_rng(seed, f"S{n} queries")
    swaps = [tuple(x for x, y in enumerate(g) if x != y) for g in sym_inputs[n]]
    sym_perms = [_transposition_word(n, swaps, n, rng) for _ in range(queries)]
    sym_perms += [random_relabelling(n, rng) for _ in range(queries)]
    ops.append(query_op(f"S{n}", sym_inputs[n], n,
                        [permdec.Permutation(x) for x in sym_perms], (True,) * len(sym_perms)))

    rng = seeded_rng(seed, f"2^{k} queries")
    partner = [0] * (2 * k)
    for i in range(k):
        partner[pi[2 * i]], partner[pi[2 * i + 1]] = pi[2 * i + 1], pi[2 * i]
    swaps = [tuple(x for x, y in enumerate(g) if x != y) for g in ea_gens]
    ea_perms = [_swap_subset(2 * k, swaps, rng.getrandbits(k)) for _ in range(queries)]
    ea_perms += [random_relabelling(2 * k, rng) for _ in range(queries)]
    expected = tuple(
        all(x[v] == v or x[v] == partner[v] for v in range(2 * k)) for x in ea_perms
    )
    ops.append(query_op(f"2^{k}", ea_gens, 2 * k,
                        [permdec.Permutation(x) for x in ea_perms], expected))
    return Workload("chain_scale", seed, ops, info={"sym_degrees": list(sym_range), "k": k})


def build(name, seed, root, small=False):
    """The named workload's inputs and operations for one seed."""
    if name == "m12_coset":
        return _atlas_workload(name, seed, ["A6_36"] if small else ["M12_144"], root)
    if name == "atlas_small":
        # four labellings each: the labelling moves SP62_63's time by up to 2x
        if small:
            return _atlas_workload(name, seed, ["A6_36", "KLEIN_GRID"], root, labellings=2)
        return _atlas_workload(name, seed, ["SP62_63", "A6_36", "KLEIN_GRID"], root, labellings=4)
    if name == "regular_roundtrip":
        return _regular_workload(seed, small)
    if name == "chain_scale":
        return _chain_workload(seed, small)
    raise ValueError(f"unknown workload {name!r}; known: {', '.join(NAMES)}")
