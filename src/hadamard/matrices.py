"""Exact dense linear algebra over the package's fields.

``Matrix`` is the dense form of the per-variable coefficient matrices that
``abp.coefficient_matrices`` returns, with their product.
``independent_subset`` is the one Gaussian elimination.  It performs
first-come greedy selection: scanning the inputs in order, a vector is kept
exactly when it is outside the span of the vectors kept so far, so the rank
of a list of rows is the number it keeps.  The elimination runs on the raw
values of ``fields.raw_ops``, ints mod p over a prime field.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import FieldMismatchError, ShapeError
from .fields import Field, raw_ops


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

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def matmul(self, other: "Matrix") -> "Matrix":
        if self.field != other.field:
            raise FieldMismatchError(f"{self.field} vs {other.field}")
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

    def __repr__(self) -> str:
        return f"Matrix({self.rows}x{self.cols} over {self.field})"


def independent_subset(vectors: Sequence[Sequence], field: Field) -> list[int]:
    """Indices of a maximal independent subsequence, first come first kept.
    Entries are field elements or ints.

    Each vector is reduced by the normalized rows kept so far, at their
    pivots; a nonzero remainder is normalized at its first nonzero entry
    and kept."""
    into, reduce, inverse, _ = raw_ops(field)
    rows: list[tuple[list, int]] = []  # (normalized row, pivot)
    kept = []
    for i, vec in enumerate(vectors):
        v = [into(x) for x in vec]
        for row, piv in rows:
            f = v[piv]
            if f:
                v = reduce([a - f * b for a, b in zip(v, row)])
        piv = next((j for j, x in enumerate(v) if x), None)
        if piv is not None:
            inv = inverse(v[piv])
            rows.append((reduce([inv * x for x in v]), piv))
            kept.append(i)
    return kept
