"""Exact dense linear algebra over the package's fields.

Determinants over the rationals use fraction-free (Bareiss) elimination so
integer inputs stay integral throughout; finite fields use plain Gaussian
elimination.  ``independent_subset`` performs first-come greedy selection:
scanning the inputs in order, a vector is kept exactly when it is outside
the span of the vectors kept so far.  ``Matrix.rank`` is the number of rows
it keeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import FieldMismatchError, ShapeError, ValidationError
from .fields import Field, RationalField, field_from_json, field_to_json


@dataclass
class Matrix:
    rows: int
    cols: int
    field: Field
    entries: tuple  # row-major, length rows*cols

    @classmethod
    def from_rows(cls, field: Field, rows: Sequence[Sequence]) -> "Matrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        if any(len(row) != c for row in rows):
            raise ShapeError("ragged rows")
        ent = tuple(field.coerce(x) for row in rows for x in row)
        return cls(r, c, field, ent)

    @classmethod
    def zeros(cls, field: Field, rows: int, cols: int) -> "Matrix":
        z = field.zero()
        return cls(rows, cols, field, (z,) * (rows * cols))

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        z, o = field.zero(), field.one()
        ent = tuple(o if i == j else z for i in range(n) for j in range(n))
        return cls(n, n, field, ent)

    def entry(self, i: int, j: int):
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_lists(self) -> list[list]:
        return [list(self.row(i)) for i in range(self.rows)]

    def _check_field(self, other: "Matrix"):
        if self.field != other.field:
            raise FieldMismatchError(f"{self.field} vs {other.field}")

    def add(self, other: "Matrix") -> "Matrix":
        self._check_field(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError(f"{self.rows}x{self.cols} + {other.rows}x{other.cols}")
        return Matrix(
            self.rows, self.cols, self.field,
            tuple(a + b for a, b in zip(self.entries, other.entries)),
        )

    def scale(self, c) -> "Matrix":
        c = self.field.coerce(c)
        return Matrix(self.rows, self.cols, self.field, tuple(c * x for x in self.entries))

    def matmul(self, other: "Matrix") -> "Matrix":
        self._check_field(other)
        if self.cols != other.rows:
            raise ShapeError(f"{self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        z = self.field.zero()
        out = []
        for i in range(self.rows):
            ri = self.row(i)
            for j in range(other.cols):
                s = z
                for k in range(self.cols):
                    a = ri[k]
                    if a:
                        s = s + a * other.entries[k * other.cols + j]
                out.append(s)
        return Matrix(self.rows, other.cols, self.field, tuple(out))

    def hadamard(self, other: "Matrix") -> "Matrix":
        self._check_field(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError("entrywise product needs equal shapes")
        return Matrix(
            self.rows, self.cols, self.field,
            tuple(a * b for a, b in zip(self.entries, other.entries)),
        )

    def is_zero(self) -> bool:
        return not any(self.entries)

    def rank(self) -> int:
        return len(independent_subset([self.row(i) for i in range(self.rows)], self.field))

    def det(self):
        if self.rows != self.cols:
            raise ShapeError("determinant of a non-square matrix")
        if self.rows == 0:
            return self.field.one()
        if isinstance(self.field, RationalField):
            return _det_bareiss(self.to_lists(), self.field)
        return _det_gauss(self.to_lists(), self.field)

    def to_json(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "field": field_to_json(self.field),
            "entries": [self.field.coeff_to_json(x) for x in self.entries],
        }

    @classmethod
    def from_json(cls, obj: dict, field: Field | None = None) -> "Matrix":
        if field is None:
            field = field_from_json(obj["field"])
        r, c = int(obj["rows"]), int(obj["cols"])
        raw = obj["entries"]
        if len(raw) != r * c:
            raise ValidationError(f"expected {r * c} entries, got {len(raw)}")
        return cls(r, c, field, tuple(field.coeff_from_json(x) for x in raw))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and (self.rows, self.cols) == (other.rows, other.cols)
            and self.field == other.field
            and self.entries == other.entries
        )

    def __repr__(self) -> str:
        return f"Matrix({self.rows}x{self.cols} over {self.field})"


def _det_gauss(m: list[list], field: Field):
    n = len(m)
    sign = field.one()
    det = field.one()
    for col in range(n):
        sel = None
        for r in range(col, n):
            if m[r][col]:
                sel = r
                break
        if sel is None:
            return field.zero()
        if sel != col:
            m[col], m[sel] = m[sel], m[col]
            sign = -sign
        pivot = m[col][col]
        det = det * pivot
        inv = field.one() / pivot
        for r in range(col + 1, n):
            if m[r][col]:
                f = m[r][col] * inv
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return det * sign


def _det_bareiss(m: list[list], field: Field):
    """Fraction-free elimination; divisions are exact on integer inputs."""
    n = len(m)
    sign = 1
    prev = field.one()
    for k in range(n - 1):
        if not m[k][k]:
            sel = None
            for r in range(k + 1, n):
                if m[r][k]:
                    sel = r
                    break
            if sel is None:
                return field.zero()
            m[k], m[sel] = m[sel], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) / prev
            m[i][k] = field.zero()
        prev = m[k][k]
    d = m[n - 1][n - 1]
    return d if sign > 0 else -d


# ---------------------------------------------------------------------------
# span computations on flattened matrices


class _Echelon:
    """Incremental row-echelon accumulator over an arbitrary field."""

    def __init__(self, field: Field, dim: int):
        self.field = field
        self.dim = dim
        self.rows: list[list] = []
        self.pivots: list[int] = []

    def reduce(self, vec: list) -> list:
        v = list(vec)
        for row, piv in zip(self.rows, self.pivots):
            if v[piv]:
                f = v[piv]
                v = [a - f * b for a, b in zip(v, row)]
        return v

    def insert(self, vec: list) -> bool:
        """Reduce and keep the vector; returns True if it enlarged the span."""
        v = self.reduce(vec)
        piv = next((i for i, x in enumerate(v) if x), None)
        if piv is None:
            return False
        inv = self.field.one() / v[piv]
        self.rows.append([inv * x for x in v])
        self.pivots.append(piv)
        return True


def independent_subset(vectors: Sequence[Sequence], field: Field) -> list[int]:
    """Indices of a maximal independent subsequence, first come first kept."""
    if not vectors:
        return []
    ech = _Echelon(field, len(vectors[0]))
    kept = []
    for i, vec in enumerate(vectors):
        if ech.insert(list(vec)):
            kept.append(i)
    return kept


def in_span(vector: Sequence, basis: Sequence[Sequence], field: Field) -> bool:
    ech = _Echelon(field, len(vector))
    for b in basis:
        ech.insert(list(b))
    return not any(ech.reduce(list(vector)))


def basis_of_matrix_set(mats: Sequence[Matrix]) -> list[Matrix]:
    """Maximal linearly independent subsequence of the given matrices.

    All matrices must share one shape and field; each is flattened row-major.
    """
    if not mats:
        return []
    field = mats[0].field
    shape = (mats[0].rows, mats[0].cols)
    for m in mats:
        if m.field != field:
            raise FieldMismatchError("mixed fields in matrix set")
        if (m.rows, m.cols) != shape:
            raise ShapeError("mixed shapes in matrix set")
    kept = independent_subset([m.entries for m in mats], field)
    return [mats[i] for i in kept]
