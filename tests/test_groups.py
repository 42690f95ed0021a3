import pytest

from braidact.groups import (
    builtin_group,
    cyclic_group,
    dihedral_group,
    group_from_table,
    load_group_table,
    symmetric_group,
)


class TestBuilders:
    def test_cyclic(self):
        z4 = cyclic_group(4)
        assert z4.order == 4
        assert z4.mul(3, 2) == 1
        assert z4.inv(3) == 1

    def test_symmetric(self):
        s3 = symmetric_group(3)
        assert s3.order == 6
        assert s3.identity == 0
        s4 = symmetric_group(4)
        assert s4.order == 24

    def test_dihedral(self):
        d4 = dihedral_group(4)
        assert d4.order == 8
        d5 = dihedral_group(5)
        assert d5.order == 10
        # a reflection is its own inverse
        assert all(d5.inv(x) == x for x in range(5, 10))

    def test_abelianness(self):
        z6 = cyclic_group(6)
        assert all(z6.mul(x, y) == z6.mul(y, x) for x in range(6) for y in range(6))
        s3 = symmetric_group(3)
        assert any(s3.mul(x, y) != s3.mul(y, x) for x in range(6) for y in range(6))


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


class TestValidation:
    def test_non_associative_rejected(self):
        rows = [[0, 1, 2], [1, 2, 0], [2, 1, 0]]
        with pytest.raises(ValueError, match="associative|inverse|identity"):
            group_from_table("bad", rows)

    def test_non_associative_loop_rejected(self):
        # Identity 0 and every element its own inverse, so only the
        # associativity test can refuse it: (1 1) 2 = 2 but 1 (1 2) = 4.
        rows = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]
        with pytest.raises(ValueError, match="associative"):
            group_from_table("loop", rows)
        # Z2 x loop, element (z, l) at 2 l + z.  The first element tested,
        # 1 = (1, 0), associates with everything, so the failure has to be
        # found at a later generator.
        product = [
            [2 * rows[l][m] + (z ^ y) for m in range(5) for y in range(2)]
            for l in range(5)
            for z in range(2)
        ]
        with pytest.raises(ValueError, match=r"associative at \(\d+, [2-9]"):
            group_from_table("Z2 x loop", product)

    def test_relabelled_identity_found(self):
        z2 = group_from_table("flipped", [[1, 0], [0, 1]])
        assert z2.identity == 1

    def test_missing_identity_rejected(self):
        rows = [[1, 1], [1, 1]]
        with pytest.raises(ValueError, match="identity"):
            group_from_table("bad", rows)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            group_from_table("bad", [[0, 1], [1, 7]])


class TestFileFormat:
    def test_round_trip(self, tmp_path):
        z3 = cyclic_group(3)
        path = tmp_path / "Z3.table"
        rows = "\n".join(" ".join(str(x) for x in row) for row in z3.table)
        path.write_text(f"3\n{rows}\n")
        loaded = load_group_table(path)
        assert loaded.table == z3.table
        assert loaded.name == "Z3"

    def test_wrong_entry_count(self, tmp_path):
        path = tmp_path / "bad.table"
        path.write_text("2\n0 1 1\n")
        with pytest.raises(ValueError, match="expected 4 entries"):
            load_group_table(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.table"
        path.write_text("")
        with pytest.raises(ValueError):
            load_group_table(path)
