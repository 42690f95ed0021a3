"""Finite groups as explicit multiplication tables.

The groups are the builtins Zk, Sk (k <= 6) and Dk.  Each is a group by
construction, with the identity at element 0, so its table is not checked
here; the test suite checks every builtin up to S5 and D8 for identity,
inverses and associativity (``tests/util.py:validated_group``).
Construction records each element's order and, unless the group is
abelian, splits its pairs of elements into orbits under simultaneous
conjugation.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

__all__ = ["DEFAULT_FINGERPRINT_GROUPS", "FiniteGroupTable", "builtin_group"]

# A battery of small groups for fingerprints; `fingerprint` itself counts into
# no group unless it is given some.
DEFAULT_FINGERPRINT_GROUPS = ("Z2", "Z3", "Z4", "Z5", "S3", "S4")

# Canonical spellings only (no leading zero), so a group's name is the name
# that was typed.
_NAME = re.compile(r"([ZSD])(0|[1-9][0-9]*)")


@dataclass(frozen=True)
class FiniteGroupTable:
    name: str
    table: tuple[tuple[int, ...], ...]
    inverse: tuple[int, ...]
    # The order of each element: the least m >= 1 with x^m the identity.
    orders: tuple[int, ...]
    # The orbits of the group on pairs (g, h) under simultaneous conjugation,
    # as (orbit size, representatives) blocks in increasing size.  Each
    # representative is stored as (g, h, g^-1, h^-1), g a class representative
    # and h the lowest element of its orbit under the centralizer of g.  With g
    # the identity these are the conjugacy classes, each class's lowest element
    # with its size as weight.  An abelian group stores no block: hom counts
    # into it read the abelianization.
    pair_orbits: tuple[tuple[int, tuple[tuple[int, int, int, int], ...]], ...]

    @property
    def order(self) -> int:
        return len(self.table)


def builtin_group(name: str) -> FiniteGroupTable:
    """Groups available by name: Z<k>, S<k> (k <= 6), D<k>."""
    m = _NAME.fullmatch(name.strip())
    if m is None:
        raise ValueError(f"unknown group name {name!r} (expected Zk, Sk or Dk)")
    kind, n = m.group(1), int(m.group(2))
    if kind == "Z":
        if n < 1:
            raise ValueError("cyclic group order must be >= 1")
        if n > 512:
            raise ValueError(f"cyclic group Z{n} is too large for table form")
        rows = [[(i + j) % n for j in range(n)] for i in range(n)]
    elif kind == "S":
        if not 1 <= n <= 6:
            raise ValueError("symmetric groups are supported for 1 <= n <= 6")
        perms = sorted(itertools.permutations(range(n)))
        index = {p: i for i, p in enumerate(perms)}
        # Product pq acts as "p then q".
        rows = [[index[tuple(map(q.__getitem__, p))] for q in perms] for p in perms]
    else:
        # Symmetries of the regular n-gon, order 2n.
        if n < 2:
            raise ValueError("dihedral groups are supported for n >= 2")
        if n > 128:
            raise ValueError(f"dihedral group D{n} is too large for table form")
        # Element k + n f acts on Z/n as x -> (-1)^f x + k.
        rows = [
            [(k2 + (-k1 if f2 else k1)) % n + n * (f1 ^ f2) for f2 in (0, 1) for k2 in range(n)]
            for f1 in (0, 1)
            for k1 in range(n)
        ]
    return _group(m.group(0), rows)


def _group(name: str, rows: list[list[int]]) -> FiniteGroupTable:
    """The group of a multiplication table with the identity at element 0.
    The table is trusted to be a group's."""
    table = tuple(tuple(r) for r in rows)
    order = len(table)
    inverse = [row.index(0) for row in table]
    orders = []
    for x in range(order):
        cur, m = x, 1
        while cur != 0:
            cur, m = table[cur][x], m + 1
        orders.append(m)
    classes = []
    seen: set[int] = set()
    for x in range(order):
        if x not in seen:
            cls = {table[table[inverse[h]][x]][h] for h in range(order)}
            seen |= cls
            classes.append((x, len(cls)))
    orbits = _pair_orbits(table, inverse, classes)
    return FiniteGroupTable(name, table, tuple(inverse), tuple(orders), orbits)


def _pair_orbits(
    table: tuple[tuple[int, ...], ...], inverse: list[int], classes: list[tuple[int, int]]
) -> tuple[tuple[int, tuple[tuple[int, int, int, int], ...]], ...]:
    # Each orbit on pairs meets {g} x H, g a class representative, in one
    # orbit of the centralizer C(g) on H, so its size is |class of g| times
    # that orbit's size.  For central g the centralizer is the group and its
    # orbits on H are the classes.  An abelian group has one class per element.
    if len(classes) == len(table):
        return ()
    elements = range(len(table))
    blocks: dict[int, list[tuple[int, int, int, int]]] = {}
    for g, size in classes:
        if size == 1:
            orbits = classes
        else:
            centralizer = [c for c in elements if table[c][g] == table[g][c]]
            orbits = []
            seen: set[int] = set()
            for h in elements:
                if h not in seen:
                    orbit = {table[table[inverse[c]][h]][c] for c in centralizer}
                    seen |= orbit
                    orbits.append((h, len(orbit)))
        for h, count in orbits:
            blocks.setdefault(size * count, []).append((g, h, inverse[g], inverse[h]))
    return tuple((weight, tuple(reps)) for weight, reps in sorted(blocks.items()))
