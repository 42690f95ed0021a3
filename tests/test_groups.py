import pytest

from braidact.groups import builtin_group

from .util import (
    burnside_pair_orbit_count,
    klein_four_group,
    quaternion_group,
    validated_group,
)


class TestBuilders:
    def test_cyclic(self):
        z4 = builtin_group("Z4")
        assert z4.order == 4
        assert z4.table[3][2] == 1
        assert z4.inverse[3] == 1

    def test_symmetric(self):
        s3 = builtin_group("S3")
        assert s3.order == 6
        assert s3.table[0] == tuple(range(6)) == tuple(row[0] for row in s3.table)
        s4 = builtin_group("S4")
        assert s4.order == 24

    def test_dihedral(self):
        d4 = builtin_group("D4")
        assert d4.order == 8
        d5 = builtin_group("D5")
        assert d5.order == 10
        # a reflection is its own inverse
        assert all(d5.inverse[x] == x for x in range(5, 10))

    def test_abelianness(self):
        z6 = builtin_group("Z6")
        assert all(z6.table[x][y] == z6.table[y][x] for x in range(6) for y in range(6))
        s3 = builtin_group("S3")
        assert any(s3.table[x][y] != s3.table[y][x] for x in range(6) for y in range(6))


class TestBuiltinNames:
    @pytest.mark.parametrize(
        "name,order",
        [
            ("Z2", 2), ("Z6", 6), ("S3", 6), ("S4", 24), ("D4", 8), ("D5", 10),
            ("S6", 720), ("Z512", 512),
        ],
    )
    def test_shipped_groups(self, name, order):
        g = builtin_group(name)
        assert g.name == name and g.order == order

    def test_unknown(self):
        with pytest.raises(ValueError):
            builtin_group("Q8")


# Every builtin up to S5 and D8, the trivial Z1 and S1 and the degenerate S2
# and D2 among them; S6 and Z512 are left out for speed.
ORACLE_BUILTINS = (
    [f"Z{k}" for k in range(1, 13)]
    + [f"S{k}" for k in range(1, 6)]
    + [f"D{k}" for k in range(2, 9)]
)


class TestValidation:
    @pytest.mark.parametrize("name", ORACLE_BUILTINS)
    def test_builtin_passes_the_oracle(self, name):
        group = builtin_group(name)
        checked = validated_group(name, [list(row) for row in group.table])
        assert checked.table == group.table
        assert checked.inverse == group.inverse
        assert checked.orders == group.orders
        assert checked.pair_orbits == group.pair_orbits

    def test_non_associative_rejected(self):
        rows = [[0, 1, 2], [1, 2, 0], [2, 1, 0]]
        with pytest.raises(ValueError, match="associative|inverse|identity"):
            validated_group("bad", rows)

    def test_non_associative_loop_rejected(self):
        # Identity 0 and every element its own inverse, so only the
        # associativity test can refuse it: (1 1) 2 = 2 but 1 (1 2) = 4.
        rows = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]
        with pytest.raises(ValueError, match="associative"):
            validated_group("loop", rows)
        # Z2 x loop, element (z, l) at 2 l + z.  The first element tested,
        # 1 = (1, 0), associates with everything, so the failure has to be
        # found at a later generator.
        product = [
            [2 * rows[l][m] + (z ^ y) for m in range(5) for y in range(2)]
            for l in range(5)
            for z in range(2)
        ]
        with pytest.raises(ValueError, match=r"associative at \(\d+, [2-9]"):
            validated_group("Z2 x loop", product)

    def test_missing_identity_rejected(self):
        rows = [[1, 1], [1, 1]]
        with pytest.raises(ValueError, match="identity"):
            validated_group("bad", rows)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            validated_group("bad", [[0, 1], [1, 7]])


def _class_of(group, x):
    t = group.table
    return {t[t[group.inverse[h]][x]][h] for h in range(group.order)}


def _classes(group):
    """(representative, size) per conjugacy class, lowest representative
    first.  The identity is central, so the pair orbits meeting {identity} x H
    are the classes; an abelian group stores none and has one class each."""
    if not group.pair_orbits:
        return tuple((x, 1) for x in range(group.order))
    return tuple(sorted(
        (h, weight)
        for weight, reps in group.pair_orbits
        for g, h, _, _ in reps
        if g == 0
    ))


class TestClasses:
    @pytest.mark.parametrize(
        "name,count",
        [("Z6", 6), ("S3", 3), ("S4", 5), ("S5", 7), ("S6", 11), ("D4", 5), ("D5", 4)],
    )
    def test_class_count(self, name, count):
        assert len(_classes(builtin_group(name))) == count

    @pytest.mark.parametrize("name", ["Z6", "S3", "S4", "S5", "D4", "D5", "Q8"])
    def test_classes_partition_the_group(self, name):
        group = quaternion_group() if name == "Q8" else builtin_group(name)
        classes = _classes(group)
        assert sum(size for _, size in classes) == group.order
        assert (0, 1) in classes
        covered = set()
        for rep, size in classes:
            cls = _class_of(group, rep)
            # Closed under conjugation, of the stated size, its lowest element
            # the representative, and disjoint from the classes before it.
            assert len(cls) == size and min(cls) == rep
            assert all(_class_of(group, x) == cls for x in cls)
            assert not cls & covered
            covered |= cls
        assert covered == set(range(group.order))


def _group(name):
    if name == "V4":
        return klein_four_group()
    return quaternion_group() if name == "Q8" else builtin_group(name)


def _power_order(group, x):
    """The size of the cyclic subgroup of x, from its powers x^1..x^|H|."""
    powers, cur = set(), 0
    for _ in range(group.order):
        cur = group.table[x][cur]
        powers.add(cur)
    return len(powers)


class TestOrders:
    @pytest.mark.parametrize("name", ["S3", "S4", "D4", "Q8", "V4", "Z6"])
    def test_orders_match_the_powers(self, name):
        group = _group(name)
        assert group.orders == tuple(_power_order(group, x) for x in range(group.order))


def _pairs(group):
    """(weight, g, h) per stored pair orbit."""
    return [(weight, g, h) for weight, reps in group.pair_orbits for g, h, _, _ in reps]


NONABELIAN = ["S3", "S4", "D4", "D5", "D6", "Q8", "S5"]


class TestPairOrbits:
    @pytest.mark.parametrize("name", NONABELIAN)
    def test_weights_cover_the_pairs(self, name):
        group = _group(name)
        assert sum(weight for weight, _, _ in _pairs(group)) == group.order**2

    @pytest.mark.parametrize("name", NONABELIAN)
    def test_orbit_count_is_burnsides(self, name):
        group = _group(name)
        assert len(_pairs(group)) == burnside_pair_orbit_count(group)

    @pytest.mark.parametrize("name", NONABELIAN)
    def test_representatives_are_not_simultaneously_conjugate(self, name):
        group = _group(name)
        t = group.table
        covered = set()
        for weight, g, h in _pairs(group):
            orbit = {
                (t[t[group.inverse[x]][g]][x], t[t[group.inverse[x]][h]][x])
                for x in range(group.order)
            }
            assert len(orbit) == weight
            assert not orbit & covered, (g, h)
            covered |= orbit
        assert len(covered) == group.order**2

    def test_abelian_group_stores_no_pair_orbits(self):
        for name in ("Z6", "Z512"):
            group = builtin_group(name)
            assert group.pair_orbits == ()
            assert group.table == tuple(zip(*group.table))
