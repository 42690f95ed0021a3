"""Finite groups as explicit multiplication tables.

Tables are validated on construction (identity, inverses, associativity
by Light's test), so downstream counting loops can trust them blindly.
Construction also records each element's order and, unless the group is
abelian, splits its pairs of elements into orbits under simultaneous
conjugation.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "DEFAULT_FINGERPRINT_GROUPS",
    "FiniteGroupTable",
    "builtin_group",
    "cyclic_group",
    "dihedral_group",
    "group_from_table",
    "load_group_table",
    "symmetric_group",
]

# A battery of small groups for fingerprints; `fingerprint` itself counts into
# no group unless it is given some.
DEFAULT_FINGERPRINT_GROUPS = ("Z2", "Z3", "Z4", "Z5", "S3", "S4")

_NAME = re.compile(r"([ZSD])([0-9]+)")


@dataclass(frozen=True)
class FiniteGroupTable:
    name: str
    table: tuple[tuple[int, ...], ...]
    identity: int
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

    def __str__(self) -> str:
        return f"{self.name} (order {self.order})"


def group_from_table(name: str, rows: list[list[int]]) -> FiniteGroupTable:
    """Build and validate a group from a raw multiplication table."""
    order = len(rows)
    if order == 0:
        raise ValueError("a group table needs at least the identity element")
    for row in rows:
        if len(row) != order or any(not 0 <= x < order for x in row):
            raise ValueError("table must be square with entries in 0..order-1")
    identity = None
    for e in range(order):
        if all(rows[e][x] == x and rows[x][e] == x for x in range(order)):
            identity = e
            break
    if identity is None:
        raise ValueError("table has no identity element")
    inverse = []
    for x in range(order):
        y = next(
            (y for y in range(order) if rows[x][y] == identity and rows[y][x] == identity),
            None,
        )
        if y is None:
            raise ValueError(f"element {x} has no inverse")
        inverse.append(y)
    # Light's test: check (x y) z = x (y z) for every x and z but only for y
    # in a generating set.  The y that pass are closed under the product, so
    # then every y passes.  Each element not yet reached from the identity by
    # right multiplication with the generators so far becomes a generator.
    table = tuple(tuple(r) for r in rows)
    gens: list[int] = []
    reached = {identity}
    for y in range(order):
        if y in reached:
            continue
        for x, row in enumerate(table):
            if table[row[y]] != tuple(map(row.__getitem__, table[y])):
                z = next(z for z in range(order) if table[row[y]][z] != row[table[y][z]])
                raise ValueError(f"table is not associative at ({x}, {y}, {z})")
        gens.append(y)
        reached = {identity}
        frontier = [identity]
        for x in frontier:  # breadth first: the loop also visits what it appends
            new = {table[x][g] for g in gens} - reached
            reached |= new
            frontier += new
    orders = []
    for x in range(order):
        cur, m = x, 1
        while cur != identity:
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
    return FiniteGroupTable(name, table, identity, tuple(inverse), tuple(orders), orbits)


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


def cyclic_group(n: int) -> FiniteGroupTable:
    if n < 1:
        raise ValueError("cyclic group order must be >= 1")
    rows = [[(i + j) % n for j in range(n)] for i in range(n)]
    return group_from_table(f"Z{n}", rows)


def symmetric_group(n: int) -> FiniteGroupTable:
    if not 1 <= n <= 6:
        raise ValueError("symmetric groups are supported for 1 <= n <= 6")
    perms = sorted(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    # Product pq acts as "p then q".
    rows = [[index[tuple(map(q.__getitem__, p))] for q in perms] for p in perms]
    return group_from_table(f"S{n}", rows)


def dihedral_group(n: int) -> FiniteGroupTable:
    """Symmetries of the regular n-gon, order 2n."""
    if n < 2:
        raise ValueError("dihedral groups are supported for n >= 2")

    # Element (k, f) acts on Z/n as x -> (-1)^f x + k; index = k + n*f.
    def combine(e1: tuple[int, int], e2: tuple[int, int]) -> tuple[int, int]:
        k1, f1 = e1
        k2, f2 = e2
        return ((k2 + (k1 if f2 == 0 else -k1)) % n, (f1 + f2) % 2)

    elems = [(k, f) for f in (0, 1) for k in range(n)]
    index = {e: i for i, e in enumerate(elems)}
    rows = [[index[combine(e1, e2)] for e2 in elems] for e1 in elems]
    return group_from_table(f"D{n}", rows)


def builtin_group(name: str) -> FiniteGroupTable:
    """Groups available by name: Z<k>, S<k> (k <= 6), D<k>."""
    m = _NAME.fullmatch(name.strip())
    if m is None:
        raise ValueError(f"unknown group name {name!r} (expected Zk, Sk or Dk)")
    kind, k = m.group(1), int(m.group(2))
    if kind == "Z":
        if k > 512:
            raise ValueError(f"cyclic group Z{k} is too large for table form")
        return cyclic_group(k)
    if kind == "S":
        return symmetric_group(k)
    if k > 128:
        raise ValueError(f"dihedral group D{k} is too large for table form")
    return dihedral_group(k)


def load_group_table(path: str | Path) -> FiniteGroupTable:
    """Read a table file: the order N followed by N*N row-major 0-based
    entries.  The group is named after the file's stem."""
    p = Path(path)
    tokens = p.read_text().split()
    if not tokens:
        raise ValueError(f"{p}: empty group table file")
    try:
        numbers = [int(t) for t in tokens]
    except ValueError as exc:
        raise ValueError(f"{p}: {exc}") from None
    order, rest = numbers[0], numbers[1:]
    if len(rest) != order * order:
        raise ValueError(f"{p}: expected {order * order} entries, got {len(rest)}")
    rows = [rest[i * order : (i + 1) * order] for i in range(order)]
    return group_from_table(p.stem, rows)
