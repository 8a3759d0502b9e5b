"""Spans and counts around permdec's public functions, for the traced run.

``Tracer.install()`` replaces each function in ``SPANS`` with a wrapper
that opens a span, in every permdec module that binds the name (``atlas``
imports ``intersect`` from ``structure``, so patching only the defining
module would miss its calls). ``uninstall()`` puts every original back.

The hot calls are not spans. ``Permutation.__mul__`` and ``inverse`` are
counted and timed on the innermost open span. ``PermGroup.contains`` is
counted as a sift on the innermost span and timed as a frame of its own,
so that a chain it builds is a child and not part of its self time; its
totals are kept per name instead of per call. ``PermGroup.chain`` is a
span only when it returns a chain not seen before, which is a build.

A span's self time is its duration minus the time of its child spans
and sift frames. Spans stay in memory, with their parent ids, until
``write()``.
"""

from __future__ import annotations

import itertools
import json
import sys
import weakref
from time import perf_counter

# (layer label, module, attribute path, result count or None)
SPANS = (
    ("atlas.load_case", "permdec.atlas", "load_case", None),
    ("atlas.verify_case", "permdec.atlas", "verify_case", None),
    ("wreath.full_stabiliser", "permdec.wreath", "full_stabiliser", None),
    ("cartesian.enumerate", "permdec.cartesian", "enumerate_cartesian_decompositions", len),
    ("cartesian.to_system", "permdec.cartesian", "to_system", None),
    ("cartesian.to_decomposition", "permdec.cartesian", "to_decomposition", None),
    ("cartesian.validate_system", "permdec.cartesian", "validate_system", None),
    ("cartesian.round_trip", "permdec.cartesian", "round_trip_check", None),
    ("factor.is_factorisation", "permdec.factor", "is_factorisation", None),
    ("factor.conjugation_transitivity", "permdec.factor", "conjugation_transitivity_check", None),
    ("factor.find_conjugator", "permdec.factor", "_find_conjugator", None),
    ("factor.equivalent_factorisations", "permdec.factor", "equivalent_factorisations", None),
    ("factor.strong_multiple", "permdec.factor", "is_strong_multiple_factorisation", None),
    ("structure.intersect", "permdec.structure", "intersect", None),
    ("structure.setwise_stabiliser", "permdec.structure", "setwise_stabiliser", None),
    ("structure.interval_subgroups", "permdec.structure", "interval_subgroups", None),
    ("structure.normaliser_in", "permdec.structure", "normaliser_in", None),
    ("structure.centraliser", "permdec.structure", "centraliser_in_symmetric", None),
    ("structure.coset_action", "permdec.structure", "CosetAction.__init__", None),
    ("structure.coset_action", "permdec.structure", "CosetAction.act", None),
    ("group.from_generators", "permdec.group", "group_from_generators", None),
    ("group.point_stabiliser", "permdec.group", "PermGroup.point_stabiliser", None),
    ("group.elements", "permdec.group", "PermGroup.elements", len),
    ("group.elements", "permdec.group", "PermGroup.element_set", len),
    ("group.chain", "permdec.group", "PermGroup.chain_with_base", None),
)

ROOT = "trace.root"
CHAIN = "group.chain"
SIFT = "group.contains"


class _Frame:
    __slots__ = ("id", "parent", "name", "start", "child_s", "products", "points",
                 "mul_s", "inverses", "inv_s", "sifts", "sift_s", "count")

    def __init__(self, span_id, parent, name, start):
        self.id = span_id
        self.parent = parent
        self.name = name
        self.start = start
        self.child_s = self.mul_s = self.inv_s = self.sift_s = 0.0
        self.products = self.points = self.inverses = self.sifts = self.count = 0


FIELDS = ("id", "parent", "name", "start", "end", "self_s", "products", "points",
          "mul_s", "inverses", "inv_s", "sifts", "sift_s", "count")
_COUNT = FIELDS.index("count")


class Tracer:
    def __init__(self):
        self.spans = []
        self.sift_totals = {"calls": 0, "self_s": 0.0, "products": 0, "points": 0,
                            "mul_s": 0.0, "inverses": 0}
        self._ids = itertools.count(1)
        self._stack = []
        self._patches = []
        self._chains = weakref.WeakSet()

    # span bookkeeping --------------------------------------------------------

    def _open(self, name, recorded=True):
        parent = self._stack[-1]
        span_id = next(self._ids) if recorded else None
        # a sift frame is not a span: its children hang on its own parent
        parent_id = parent.id if parent.id is not None else parent.parent
        frame = _Frame(span_id, parent_id, name, perf_counter())
        self._stack.append(frame)
        return frame

    def _close(self, frame, keep=True):
        end = perf_counter()
        self._stack.pop()
        parent = self._stack[-1]
        duration = end - frame.start
        if frame.id is None:
            self._close_sift(frame, parent, duration)
        elif keep:
            parent.child_s += duration
            self._record(frame, end, duration - frame.child_s)
        else:
            # a cached chain lookup: no span, its (empty) counts go to the parent
            parent.products += frame.products
            parent.points += frame.points
            parent.inverses += frame.inverses

    def _close_sift(self, frame, parent, duration):
        parent.child_s += duration
        parent.sifts += 1
        parent.sift_s += duration
        totals = self.sift_totals
        totals["calls"] += 1
        totals["self_s"] += duration - frame.child_s
        totals["products"] += frame.products
        totals["points"] += frame.points
        totals["mul_s"] += frame.mul_s
        totals["inverses"] += frame.inverses

    def _record(self, frame, end, self_s):
        self.spans.append((frame.id, frame.parent, frame.name, frame.start, end, self_s,
                           frame.products, frame.points, frame.mul_s, frame.inverses,
                           frame.inv_s, frame.sifts, frame.sift_s, frame.count))

    # wrappers ------------------------------------------------------------------

    def _span(self, name, fn, count):
        tracer = self

        def wrapper(*args, **kwargs):
            frame = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    frame.count = count(result)
                return result
            finally:
                tracer._close(frame)

        wrapper.__wrapped__ = fn
        return wrapper

    def _chain_property(self, prop):
        tracer = self
        fget = prop.fget

        def chain(group):
            frame = tracer._open(CHAIN)
            built = None
            try:
                built = fget(group)
                return built
            finally:
                fresh = built is None or built not in tracer._chains
                if fresh and built is not None:
                    tracer._chains.add(built)
                tracer._close(frame, keep=fresh)

        return property(chain, doc=prop.__doc__)

    def _mul(self, fn):
        stack = self._stack

        def __mul__(a, b):
            frame = stack[-1]
            start = perf_counter()
            result = fn(a, b)
            frame.mul_s += perf_counter() - start
            frame.products += 1
            frame.points += len(a.images)
            return result

        return __mul__

    def _inverse(self, fn):
        stack = self._stack

        def inverse(a):
            frame = stack[-1]
            start = perf_counter()
            result = fn(a)
            frame.inv_s += perf_counter() - start
            frame.inverses += 1
            return result

        return inverse

    def _contains(self, fn):
        tracer = self

        def contains(group, g):
            frame = tracer._open(SIFT, recorded=False)
            try:
                return fn(group, g)
            finally:
                tracer._close(frame)

        return contains

    # install / uninstall -------------------------------------------------------

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                              else getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self):
        """Wrap every target in every permdec module that binds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        from permdec import group, perm

        self._stack.append(_Frame(0, None, ROOT, perf_counter()))
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "permdec" or name.startswith("permdec."))]
        for name, module_name, path, count in SPANS:
            owner = sys.modules[module_name]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._span(name, original, count)
            if cls_path:
                self._patch(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)
        self._patch(group.PermGroup, "chain",
                    self._chain_property(group.PermGroup.__dict__["chain"]))
        self._patch(group.PermGroup, "contains", self._contains(group.PermGroup.contains))
        self._patch(perm.Permutation, "__mul__", self._mul(perm.Permutation.__mul__))
        self._patch(perm.Permutation, "inverse", self._inverse(perm.Permutation.inverse))

    def uninstall(self):
        """Put every original back and close the root frame."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        if self._stack:
            root = self._stack[0]
            end = perf_counter()
            self._record(root, end, end - root.start - root.child_s)
            self._stack.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # results -------------------------------------------------------------------

    def totals(self):
        """Per span name: calls, self_s, products, points, sifts, count."""
        out = {}
        for span in self.spans:
            row = dict(zip(FIELDS, span))
            agg = out.setdefault(row["name"], dict.fromkeys(
                ("calls", "self_s", "products", "points", "mul_s", "inverses",
                 "inv_s", "sifts", "sift_s", "count"), 0))
            agg["calls"] += 1
            for key in agg:
                if key != "calls":
                    agg[key] += row[key]
        return out

    def descendant_count(self, ancestor, name):
        """Sum of ``count`` over spans called ``name`` inside an ``ancestor`` span."""
        parent_of = {s[0]: s[1] for s in self.spans}
        name_of = {s[0]: s[2] for s in self.spans}
        total = 0
        for span in self.spans:
            if span[2] != name:
                continue
            up = span[1]
            while up is not None and up in parent_of:
                if name_of[up] == ancestor:
                    total += span[_COUNT]
                    break
                up = parent_of[up]
        return total

    def write(self, path):
        """Spans as JSON lines, one object per span, parent ids included."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(dict(zip(FIELDS, span))) + "\n")
