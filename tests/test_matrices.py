import itertools
import random
from fractions import Fraction

import pytest

from hadamard.errors import ShapeError
from hadamard.fields import ExtField, FpElement, PrimeField, RationalField
from hadamard.matrices import Matrix, independent_subset
from helpers import element_det, element_independent_subset

Q = RationalField()
F2 = PrimeField(2)
F5 = PrimeField(5)
F101 = PrimeField(101)


def rand_matrix(rng, field, r, c, lo=-3, hi=3):
    if isinstance(field, RationalField):
        return Matrix.from_rows(field, [[rng.randint(lo, hi) for _ in range(c)] for _ in range(r)])
    return Matrix.from_rows(field, [[field.random(rng) for _ in range(c)] for _ in range(r)])


def det_cofactor(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0  # the integer zero adds into every field
    for j in range(n):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = rows[0][j] * det_cofactor(minor)
        total += term if j % 2 == 0 else -term
    return total


def test_matmul_examples():
    a = Matrix.from_rows(Q, [[1, 2], [3, 4]])
    assert Matrix.identity(Q, 2).matmul(a) == a
    b = Matrix.from_rows(Q, [[0, 1], [1, 0]])
    assert a.matmul(b) == Matrix.from_rows(Q, [[2, 1], [4, 3]])
    row = Matrix.from_rows(Q, [[1, 2]])
    col = Matrix.from_rows(Q, [[3], [4]])
    assert row.matmul(col).entries == (Fraction(11),)
    with pytest.raises(ShapeError):
        row.matmul(row)


def test_rank_examples():
    assert Matrix.zeros(Q, 3, 3).rank() == 0
    assert Matrix.identity(Q, 3).rank() == 3
    assert Matrix.from_rows(Q, [[1, 2], [2, 4]]).rank() == 1
    # rank depends on the field: det = 2-ism
    m2 = Matrix.from_rows(F2, [[1, 1], [1, 1]])
    assert m2.rank() == 1
    m5 = Matrix.from_rows(F5, [[1, 1], [1, 1]])
    assert m5.rank() == 1
    m = Matrix.from_rows(F2, [[1, 0], [1, 1]])
    assert m.rank() == 2


def test_det_examples_and_oracle():
    assert Matrix.from_rows(Q, [[1, 2], [3, 4]]).det() == -2
    assert Matrix.from_rows(Q, [[1, 1], [1, 1]]).det() == 0
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(1, 4)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        m = Matrix.from_rows(Q, rows)
        expected = det_cofactor([[Fraction(x) for x in row] for row in rows])
        assert m.det() == expected
        # integral inputs give an integral determinant
        assert m.det().denominator == 1
    for field in (ExtField.make(2, 2), ExtField.make(3, 2)):
        for _ in range(40):
            n = rng.randint(1, 4)
            m = rand_matrix(rng, field, n, n)
            assert m.det() == det_cofactor([m.row(i) for i in range(n)])


def test_det_multiplicative():
    rng = random.Random(4)
    for field in (Q, F5, ExtField.make(2, 2)):
        for _ in range(25):
            a = rand_matrix(rng, field, 3, 3)
            b = rand_matrix(rng, field, 3, 3)
            assert a.matmul(b).det() == a.det() * b.det()


def test_det_over_finite_field():
    m = Matrix.from_rows(F5, [[2, 1], [3, 4]])
    assert m.det().value == (2 * 4 - 1 * 3) % 5


def test_hadamard_matrix_rank_bound():
    a = Matrix.from_rows(Q, [[1, 1], [1, 1]])
    b = Matrix.from_rows(Q, [[1, 2], [3, 4]])
    assert a.hadamard(b) == b
    rng = random.Random(5)
    for field in (Q, F2, F5):
        for _ in range(200):
            r, c = rng.randint(1, 4), rng.randint(1, 4)
            x = rand_matrix(rng, field, r, c)
            y = rand_matrix(rng, field, r, c)
            assert x.hadamard(y).rank() <= x.rank() * y.rank()


def test_rank_one_hadamard_rank_one():
    u = Matrix.from_rows(Q, [[1], [2], [3]])
    v = Matrix.from_rows(Q, [[1, 1, 1]])
    a = u.matmul(v)
    assert a.rank() == 1
    assert a.hadamard(a).rank() <= 1


def test_basis_examples():
    z = Matrix.zeros(Q, 2, 2)
    assert independent_subset([z.entries], Q) == []
    i2 = Matrix.identity(Q, 2)
    assert independent_subset([i2.entries, i2.scale(2).entries], Q) == [0]
    e11 = Matrix.from_rows(Q, [[1, 0], [0, 0]])
    e12 = Matrix.from_rows(Q, [[0, 1], [0, 0]])
    mix = e11.add(e12)
    assert independent_subset([e11.entries, e12.entries, mix.entries], Q) == [0, 1]  # first-come pivots


def test_basis_spans_every_input():
    rng = random.Random(6)
    for field in (Q, F5):
        for _ in range(40):
            mats = [rand_matrix(rng, field, 2, 3) for _ in range(rng.randint(1, 7))]
            vecs = [mats[i].entries for i in independent_subset([m.entries for m in mats], field)]
            kept = list(range(len(vecs)))
            for m in mats:
                # m lies in the span: appended to the basis, it is not kept
                assert independent_subset(vecs + [m.entries], field) == kept
            # basis itself is independent
            assert independent_subset(vecs, field) == kept


def test_serialization_round_trip():
    m = Matrix.from_rows(Q, [[1, 0], [0, 1]])
    obj = m.to_json()
    assert obj["entries"] == ["1", "0", "0", "1"]
    assert Matrix.from_json(obj) == m
    f4 = ExtField.make(2, 2)
    m4 = Matrix.from_rows(f4, [[f4.gen(), f4.one()]])
    assert Matrix.from_json(m4.to_json()) == m4


def _dependent_rows(rng, field, n_rows, n_cols):
    """Random rows over a prime field, about a third of them combinations
    of the rows before, as lists of elements."""
    rows = []
    for _ in range(n_rows):
        if rows and rng.random() < 0.35:
            picks = [(rng.randrange(field.p), row) for row in rows]
            rows.append([sum((c * row[j] for c, row in picks), field.zero()) for j in range(n_cols)])
        else:
            rows.append([field.random(rng) for _ in range(n_cols)])
    return rows


@pytest.mark.parametrize("field", [F2, F5, F101], ids=repr)
def test_elimination_matches_element_elimination(field):
    rng = random.Random(f"echelon:{field.p}")
    for _ in range(150):
        n = rng.randint(1, 6)
        m = Matrix.from_rows(field, _dependent_rows(rng, field, n, n))
        rows = [m.row(i) for i in range(n)]
        det = m.det()
        assert type(det) is FpElement and det.field == field
        assert det == element_det(rows, field) == det_cofactor(rows)
        assert m.rank() == len(element_independent_subset(rows, field))
        vecs = _dependent_rows(rng, field, rng.randint(1, 9), rng.randint(1, 7))
        kept = element_independent_subset(vecs, field)
        assert independent_subset(vecs, field) == kept
        # ints, negative and unreduced ones too, stand for their residues
        ints = [[x.value + field.p * rng.randint(-2, 2) for x in vec] for vec in vecs]
        assert independent_subset(ints, field) == kept
