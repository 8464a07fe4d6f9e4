import random
from fractions import Fraction

import pytest

from hadamard.errors import ShapeError
from hadamard.fields import ExtField, PrimeField, RationalField
from hadamard.matrices import Echelon, Matrix, independent_subset
from helpers import element_independent_subset

Q = RationalField()
F2 = PrimeField(2)
F5 = PrimeField(5)
F101 = PrimeField(101)
F4 = ExtField.make(2, 2)


def rand_matrix(rng, field, r, c, lo=-3, hi=3):
    if isinstance(field, RationalField):
        return Matrix.from_rows(field, [[rng.randint(lo, hi) for _ in range(c)] for _ in range(r)])
    return Matrix.from_rows(field, [[field.random(rng) for _ in range(c)] for _ in range(r)])


def test_matmul_examples():
    a = Matrix.from_rows(Q, [[1, 2], [3, 4]])
    assert Matrix.from_rows(Q, [[1, 0], [0, 1]]).matmul(a) == a
    b = Matrix.from_rows(Q, [[0, 1], [1, 0]])
    assert a.matmul(b) == Matrix.from_rows(Q, [[2, 1], [4, 3]])
    row = Matrix.from_rows(Q, [[1, 2]])
    col = Matrix.from_rows(Q, [[3], [4]])
    assert row.matmul(col).entries == (Fraction(11),)
    with pytest.raises(ShapeError):
        row.matmul(row)


def rank(m: Matrix) -> int:
    return len(independent_subset([m.row(i) for i in range(m.rows)], m.field))


def entrywise(a: Matrix, b: Matrix) -> Matrix:
    return Matrix(a.rows, a.cols, a.field, tuple(x * y for x, y in zip(a.entries, b.entries)))


def test_rank_examples():
    assert rank(Matrix.from_rows(Q, [[0, 0, 0]] * 3)) == 0
    assert rank(Matrix.from_rows(Q, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == 3
    assert rank(Matrix.from_rows(Q, [[1, 2], [2, 4]])) == 1
    # rank depends on the field: det = 2-ism
    m2 = Matrix.from_rows(F2, [[1, 1], [1, 1]])
    assert rank(m2) == 1
    m5 = Matrix.from_rows(F5, [[1, 1], [1, 1]])
    assert rank(m5) == 1
    m = Matrix.from_rows(F2, [[1, 0], [1, 1]])
    assert rank(m) == 2


def test_hadamard_matrix_rank_bound():
    a = Matrix.from_rows(Q, [[1, 1], [1, 1]])
    b = Matrix.from_rows(Q, [[1, 2], [3, 4]])
    assert entrywise(a, b) == b
    rng = random.Random(5)
    for field in (Q, F2, F5):
        for _ in range(200):
            r, c = rng.randint(1, 4), rng.randint(1, 4)
            x = rand_matrix(rng, field, r, c)
            y = rand_matrix(rng, field, r, c)
            assert rank(entrywise(x, y)) <= rank(x) * rank(y)


def test_rank_one_hadamard_rank_one():
    u = Matrix.from_rows(Q, [[1], [2], [3]])
    v = Matrix.from_rows(Q, [[1, 1, 1]])
    a = u.matmul(v)
    assert rank(a) == 1
    assert rank(entrywise(a, a)) <= 1


def test_basis_examples():
    assert independent_subset([[0, 0, 0, 0]], Q) == []
    assert independent_subset([[1, 0, 0, 1], [2, 0, 0, 2]], Q) == [0]
    e11, e12, mix = [1, 0, 0, 0], [0, 1, 0, 0], [1, 1, 0, 0]
    assert independent_subset([e11, e12, mix], Q) == [0, 1]  # first-come pivots


def test_basis_spans_every_input():
    rng = random.Random(6)
    for field in (Q, F5, ExtField.make(2, 2)):
        for _ in range(40):
            mats = [rand_matrix(rng, field, 2, 3) for _ in range(rng.randint(1, 7))]
            vecs = [mats[i].entries for i in independent_subset([m.entries for m in mats], field)]
            kept = list(range(len(vecs)))
            for m in mats:
                # m lies in the span: appended to the basis, it is not kept
                assert independent_subset(vecs + [m.entries], field) == kept
            # basis itself is independent
            assert independent_subset(vecs, field) == kept


def _dependent_rows(rng, field, n_rows, n_cols):
    """Random rows, about a third of them combinations of the rows before,
    as lists of elements."""
    scalar = (lambda: rng.randrange(field.p)) if isinstance(field, PrimeField) else (lambda: field.random(rng))
    rows = []
    for _ in range(n_rows):
        if rows and rng.random() < 0.35:
            picks = [(scalar(), row) for row in rows]
            rows.append([sum((c * row[j] for c, row in picks), field.zero()) for j in range(n_cols)])
        else:
            rows.append([field.random(rng) for _ in range(n_cols)])
    return rows


def _int_rows(rng, n_rows, n_cols):
    """Random int rows, some of them int combinations of the rows before."""
    rows = []
    for _ in range(n_rows):
        row = [rng.randint(-3, 3) for _ in range(n_cols)]
        if rows and rng.random() < 0.35:
            row = [sum(c * r[j] for c, r in ((rng.randint(-2, 2), r) for r in rows)) for j in range(n_cols)]
        rows.append(row)
    return rows


def _echelon_kept(rng, field, vecs):
    """The indices ``Echelon.add`` keeps, each vector given sparse with its
    nonzero entries inserted in shuffled order; then the zero vector and a
    repeat of every vector, each of which it must refuse."""
    echelon = Echelon(field)
    kept = []
    for i, vec in enumerate(vecs):
        cols = [j for j, x in enumerate(vec) if x]
        rng.shuffle(cols)
        if echelon.add({j: vec[j] for j in cols}):
            kept.append(i)
    assert not echelon.add({}) and not echelon.add({j: field.zero() for j in range(3)})
    assert not any(echelon.add(dict(enumerate(vec))) for vec in vecs)
    return kept


@pytest.mark.parametrize("field", [Q, F2, F5, F101, F4], ids=repr)
def test_elimination_matches_element_elimination(field):
    rng = random.Random(f"echelon:{field.p}" if isinstance(field, PrimeField) else f"echelon:{field!r}")
    for _ in range(150):
        n = rng.randint(1, 6)
        m = Matrix.from_rows(field, _dependent_rows(rng, field, n, n))
        rows = [m.row(i) for i in range(n)]
        assert rank(m) == len(element_independent_subset(rows, field))
        vecs = _dependent_rows(rng, field, rng.randint(1, 9), rng.randint(1, 7))
        vecs.insert(rng.randint(0, len(vecs)), [field.zero()] * len(vecs[0]))
        vecs.insert(rng.randint(0, len(vecs)), list(rng.choice(vecs)))
        kept = element_independent_subset(vecs, field)
        assert independent_subset(vecs, field) == kept
        assert _echelon_kept(rng, field, vecs) == kept
        if isinstance(field, PrimeField):
            # ints, negative and unreduced ones too, stand for their residues
            ints = [[x.value + field.p * rng.randint(-2, 2) for x in vec] for vec in vecs]
            assert independent_subset(ints, field) == kept
        # ints stand for their images in the field
        ints = _int_rows(rng, rng.randint(1, 9), rng.randint(1, 7))
        ints.insert(rng.randint(0, len(ints)), list(rng.choice(ints)))
        kept = element_independent_subset([[field.coerce(x) for x in vec] for vec in ints], field)
        assert independent_subset(ints, field) == kept
        assert _echelon_kept(rng, field, ints) == kept
