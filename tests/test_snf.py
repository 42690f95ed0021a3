import random

import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from braidact.snf import smith_normal_form


class TestKnownForms:
    def test_coprime_diagonal(self):
        assert smith_normal_form([[2, 0], [0, 3]]) == [1, 6]

    def test_repeated_factor(self):
        assert smith_normal_form([[2, 0], [0, 2]]) == [2, 2]

    def test_rank_deficient(self):
        assert smith_normal_form([[-1, 1], [1, -1]]) == [1, 0]

    def test_single_entry(self):
        assert smith_normal_form([[-7]]) == [7]

    def test_zero_matrix(self):
        assert smith_normal_form([[0, 0], [0, 0]]) == [0, 0]

    def test_rectangular(self):
        assert smith_normal_form([[2, 4, 4]]) == [2]
        assert smith_normal_form([[2], [4], [4]]) == [2]

    def test_needs_divisibility_fix(self):
        assert smith_normal_form([[2, 0], [0, 3], [0, 0]]) == [1, 6]
        assert smith_normal_form([[4, 6], [6, 4]]) == [2, 10]

    def test_gcd_lcm_pass_orders_the_diagonal(self):
        assert smith_normal_form([[4, 0], [0, 6]]) == [2, 12]
        assert smith_normal_form([[0, 0], [0, 3]]) == [3, 0]

    def test_empty(self):
        assert smith_normal_form([]) == []

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            smith_normal_form([[1, 2], [3]])


def _random_matrix(rng, m, n, bound=9):
    return [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(m)]


class TestAgainstSympy:
    def test_random_matrices(self):
        rng = random.Random(321)
        for _ in range(60):
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            mat = _random_matrix(rng, m, n)
            expected = sympy_snf(sympy.Matrix(mat), domain=sympy.ZZ)
            diag = [abs(int(expected[i, i])) for i in range(min(m, n))]
            # sympy gives the chain too; compare entry lists directly
            assert smith_normal_form(mat) == diag

    def test_random_matrices_with_empty_sides_up_to_6x6(self):
        rng = random.Random(654)
        shapes = set()
        for _ in range(300):
            m, n = rng.randint(0, 6), rng.randint(0, 6)
            shapes.add((m, n))
            mat = _random_matrix(rng, m, n, bound=50)
            flat = [x for row in mat for x in row]
            expected = sympy_snf(sympy.Matrix(m, n, flat), domain=sympy.ZZ)
            diag = [abs(int(expected[i, i])) for i in range(min(m, n))]
            assert smith_normal_form(mat) == diag
        assert {(0, 3), (4, 0), (6, 6)} <= shapes


class TestInvariance:
    def test_divisibility_chain(self):
        rng = random.Random(99)
        for _ in range(80):
            m, n = rng.randint(1, 5), rng.randint(1, 5)
            diag = smith_normal_form(_random_matrix(rng, m, n))
            nonzero = [d for d in diag if d]
            assert all(d >= 0 for d in diag)
            assert diag == nonzero + [0] * (len(diag) - len(nonzero))
            for x, y in zip(nonzero, nonzero[1:]):
                assert y % x == 0

    def test_unimodular_operations_preserve_diagonal(self):
        rng = random.Random(7)
        for _ in range(40):
            m, n = rng.randint(2, 4), rng.randint(2, 4)
            mat = _random_matrix(rng, m, n, bound=5)
            want = smith_normal_form(mat)
            work = [row[:] for row in mat]
            for _ in range(12):
                kind = rng.randrange(4)
                if kind == 0:
                    i, j = rng.sample(range(m), 2)
                    work[i], work[j] = work[j], work[i]
                elif kind == 1:
                    i, j = rng.sample(range(n), 2)
                    for row in work:
                        row[i], row[j] = row[j], row[i]
                elif kind == 2:
                    i, j = rng.sample(range(m), 2)
                    c = rng.randint(-3, 3)
                    work[i] = [x + c * y for x, y in zip(work[i], work[j])]
                else:
                    i, j = rng.sample(range(n), 2)
                    c = rng.randint(-3, 3)
                    for row in work:
                        row[i] += c * row[j]
            assert smith_normal_form(work) == want
