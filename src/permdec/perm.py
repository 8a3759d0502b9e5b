"""Permutations on {0,...,n-1} and partitions of that point set.

Composition is left-to-right: ``(p * q)(x) == q(p(x))``, matching the
exponent convention ``x^(pq) = (x^p)^q`` used throughout the package.

Up to 256 points a permutation keeps its images as n bytes, above as the
image tuple. So a product is one ``bytes.translate`` by the right operand's
table (``pack``) and an inverse one ``bytes.maketrans``, up to 256 points.
"""

from __future__ import annotations

from math import lcm
from operator import itemgetter

from .errors import DegreeMismatch, InvalidInput, NonBijection, PointOutOfRange, check

_TABLE = bytes(range(256))  # the identity table


def check_points(degree, points):
    """Refuse any point that is not an int in 0..degree-1, bools included."""
    for p in points:
        if type(p) is not int or not 0 <= p < degree:
            raise PointOutOfRange(f"point {p!r} outside 0..{degree - 1}")


def check_count(value, what):
    """value, refused unless it is a non-negative int; what names it in the error."""
    if type(value) is not int or value < 0:
        raise InvalidInput(f"{what} must be a non-negative integer, got {value!r:.80}")
    return value


def identity_images(n):
    """The images of the degree-n identity in the form a permutation keeps."""
    return _TABLE[:n] if n <= 256 else tuple(range(n))


class Permutation:
    """An immutable permutation, its images n bytes up to 256 points, a tuple above."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        n = len(images)
        if n <= 256:
            try:  # checked in C: bytes() refuses non-ints and points outside 0..255
                a = bytes(images)
            except (TypeError, ValueError):
                a = None
            # the type count (in a list: tuples grown from an iterator pile up on CPython's
            # free lists) refuses bools; a permutation of 0..n-1 is undone by its inverse table
            if a is None or list(map(type, images)).count(int) != n or a.translate(
                    bytes.maketrans(a, _TABLE[:n])[:n] + _TABLE[n:]) != _TABLE[:n]:
                raise NonBijection(f"not a permutation of 0..{n - 1}: {images!r}")
            self.images = a
        else:
            seen = [False] * n
            for v in images:
                if type(v) is not int or not 0 <= v < n or seen[v]:
                    raise NonBijection(f"not a permutation of 0..{n - 1}: {images!r}")
                seen[v] = True
            self.images = images

    # construction helpers -------------------------------------------------

    @staticmethod
    def identity(n):
        return Permutation._unchecked(identity_images(check_count(n, "degree")))

    @staticmethod
    def _unchecked(images):
        """Wrap images already in the kept form, bytes or tuple by degree; no copy."""
        p = Permutation.__new__(Permutation)
        p.images = images
        return p

    @staticmethod
    def from_cycles(n, cycles):
        """The degree-n product of the cycles, left to right: (0 1)(1 2) maps 0 to 2."""
        images = list(range(check_count(n, "degree")))
        for cycle in map(tuple, cycles):
            check_points(n, cycle)
            step = dict(zip(cycle, cycle[1:] + cycle[:1]))
            images = [step.get(y, y) for y in images]
        return Permutation(images)

    # basic queries ---------------------------------------------------------

    @property
    def degree(self):
        return len(self.images)

    def __call__(self, point):
        check_points(len(self.images), (point,))
        return self.images[point]

    def is_identity(self):
        return self.images == identity_images(len(self.images))

    def first_moved(self):
        """Smallest moved point, or None for the identity."""
        return next((i for i, v in enumerate(self.images) if i != v), None)

    def order(self):
        return lcm(*map(len, self.cycles()))

    def cycles(self):
        """Nontrivial cycles, each starting at its smallest point."""
        seen = set()
        out = []
        for start, x in enumerate(self.images):
            if start in seen or x == start:
                continue
            cycle = [start]
            while x != start:
                cycle.append(x)
                x = self.images[x]
            seen.update(cycle)
            out.append(tuple(cycle))
        return out

    # arithmetic ------------------------------------------------------------

    def __mul__(self, other):
        a, b = self.images, other.images
        n = len(a)
        if n != len(b):
            raise DegreeMismatch(f"degrees {n} and {len(b)} differ")
        return Permutation._unchecked(a.translate(b + _TABLE[n:]) if n <= 256 else compose(a, b))

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        out = Permutation.identity(len(self.images))
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def inverse(self):
        a = self.images
        n = len(a)
        if n <= 256:
            return Permutation._unchecked(bytes.maketrans(a, _TABLE[:n])[:n])
        inv = [0] * n
        for i, v in enumerate(a):
            inv[v] = i
        return Permutation._unchecked(tuple(inv))

    def conjugate_by(self, m):
        """m^-1 * self * m; maps a stabiliser of X to a stabiliser of X^m."""
        return m.inverse() * self * m

    def act_on_set(self, points):
        return frozenset(self.images[x] for x in points)

    # dunder plumbing ---------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        # hash(bytes) is salted per process; an int's hash, like an int tuple's, is not
        a = self.images
        return hash(int.from_bytes(a, "little")) if len(a) <= 256 else hash(a)

    def __repr__(self):
        cycles = self.cycles()
        if not cycles:
            return f"Permutation(identity, degree={self.degree})"
        text = "".join("(" + " ".join(map(str, c)) + ")" for c in cycles)
        return f"Permutation[{text}]"


def pack(images):
    """A permutation's images as a table, the right-hand operand of a product: at
    degree n <= 256 a 256-byte table fixing n..255, above 256 the image tuple."""
    return images + _TABLE[len(images):] if len(images) <= 256 else images


def product(degree):
    """The chain kernel's product at a degree: product(n)(a, b) is a * b in the form
    of a, images or a table, for b a table. Up to 256 points it is
    ``bytes.translate``, whose cost grows with the length of a; above, ``compose``."""
    return bytes.translate if degree <= 256 else compose


def compose(a, b):
    """Images of a * b, ``b[a[x]]`` for each x, for two image tuples above 256 points."""
    return itemgetter(*a)(b)


class Partition:
    """A partition of {0,...,n-1} in canonical form.

    Canonical form: points ascending within blocks, blocks ascending by
    their minimum element.
    """

    __slots__ = ("blocks", "degree")

    def __init__(self, blocks, degree=None):
        try:
            norm = sorted(tuple(sorted(set(b))) for b in blocks)
            pts = [x for b in norm for x in b]
            n = check_count(degree, "degree") if degree is not None else (max(pts) + 1 if pts else 0)
            is_partition = all(norm) and {*map(type, pts)} <= {int} and sorted(pts) == list(range(n))
        except TypeError:  # a block that is not a collection of points
            is_partition = False
        if not is_partition:
            raise InvalidInput(f"blocks do not partition the points 0..n-1: {blocks!r}")
        object.__setattr__(self, "blocks", tuple(norm))
        object.__setattr__(self, "degree", n)

    @staticmethod
    def single(n):
        return Partition([range(n)], degree=n)

    @property
    def block_count(self):
        return len(self.blocks)

    def block_sizes(self):
        return tuple(len(b) for b in self.blocks)

    def is_trivial(self):
        """True for the one-block partition and the all-singletons partition."""
        return self.block_count == 1 or self.block_count == self.degree

    def block_index_of(self):
        """Map point -> index of its block (canonical order)."""
        out = [0] * self.degree
        for i, b in enumerate(self.blocks):
            for x in b:
                out[x] = i
        return out

    def block_containing(self, point):
        check_points(self.degree, (point,))
        block = next((b for b in self.blocks if point in b), None)
        check(block is not None, f"no block of a partition of 0..{self.degree - 1} holds {point}")
        return block

    def apply(self, perm):
        if perm.degree != self.degree:
            raise DegreeMismatch(f"degrees {perm.degree} and {self.degree} differ")
        return Partition([[perm.images[x] for x in b] for b in self.blocks], degree=self.degree)

    def __eq__(self, other):
        return isinstance(other, Partition) and self.blocks == other.blocks

    def __lt__(self, other):
        return self.blocks < other.blocks

    def __hash__(self):
        return hash(self.blocks)

    def __repr__(self):
        return f"Partition({[list(b) for b in self.blocks]})"
