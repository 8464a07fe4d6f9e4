"""Exact dense linear algebra over the package's fields.

One incremental Gaussian elimination, ``_Echelon``, serves every query.
``independent_subset`` performs first-come greedy selection: scanning the
inputs in order, a vector is kept exactly when it is outside the span of the
vectors kept so far.  ``Matrix.rank`` is the number of rows it keeps, and
``Matrix.det`` is the signed product of the pivots met while inserting the
rows.  The elimination runs on the raw values of ``fields.raw_ops``, ints
mod p over a prime field.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from .errors import FieldMismatchError, ShapeError, ValidationError
from .fields import Field, field_from_json, json_int, raw_ops


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
        ech = _Echelon(self.field)
        det = self.field.one()
        for i in range(self.rows):
            pivot = ech.insert(self.row(i))
            if pivot is None:
                return self.field.zero()
            det = det * ech.out(pivot)
        # the reduced rows are triangular once their columns are put in
        # pivot order; each inversion of that order is one transposition
        inversions = sum(a > b for a, b in itertools.combinations(ech.pivots, 2))
        return -det if inversions % 2 else det

    def to_json(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "field": self.field.descriptor(),
            "entries": [self.field.coeff_to_json(x) for x in self.entries],
        }

    @classmethod
    def from_json(cls, obj: dict, field: Field | None = None) -> "Matrix":
        if field is None:
            field = field_from_json(obj["field"])
        r, c = json_int(obj["rows"]), json_int(obj["cols"])
        raw = obj["entries"]
        if len(raw) != r * c:
            raise ValidationError(f"expected {r * c} entries, got {len(raw)}")
        return cls(r, c, field, tuple(field.coeff_from_json(x) for x in raw))

    def __repr__(self) -> str:
        return f"Matrix({self.rows}x{self.cols} over {self.field})"


# ---------------------------------------------------------------------------
# span computations on flattened matrices


class _Echelon:
    """Incremental row-echelon accumulator over an arbitrary field, on the
    field's raw values."""

    def __init__(self, field: Field):
        self.into, self.reduce, self.inverse, self.out = raw_ops(field)
        self.rows: list[list] = []
        self.pivots: list[int] = []

    def insert(self, vec: Sequence):
        """Reduce and keep the vector of elements or raw values; returns its
        raw pivot value before normalizing if it enlarged the span, else None."""
        reduce = self.reduce
        v = [self.into(x) for x in vec]
        for row, piv in zip(self.rows, self.pivots):
            f = v[piv]
            if f:
                v = reduce([a - f * b for a, b in zip(v, row)])
        piv = next((i for i, x in enumerate(v) if x), None)
        if piv is None:
            return None
        pivot = v[piv]
        inv = self.inverse(pivot)
        self.rows.append(reduce([inv * x for x in v]))
        self.pivots.append(piv)
        return pivot


def independent_subset(vectors: Sequence[Sequence], field: Field) -> list[int]:
    """Indices of a maximal independent subsequence, first come first kept.
    Entries are field elements or ints."""
    ech = _Echelon(field)
    kept = []
    for i, vec in enumerate(vectors):
        if ech.insert(vec):
            kept.append(i)
    return kept
