"""Exact linear algebra over the package's fields.

``Matrix`` is the dense form of the per-variable coefficient matrices that
``abp.coefficient_matrices`` returns, with their product.  ``Echelon``, the
one Gaussian elimination, keeps a vector exactly when it leaves the span of
those kept before, on ``fields.raw_ops`` values; ``pit_span_basis`` and
``nisan_ranks``' zero test hold one over all lengths, its ranks one per length.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
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


class Echelon:
    """Sparse rows {column: raw value}, each normalized to 1 at its least column, its key."""

    def __init__(self, field: Field):
        self.into, self.reduce, self.inverse, _ = raw_ops(field)
        self.zero = self.into(0)
        self.rows: dict[int, dict] = {}  # pivot -> normalized row

    def add(self, vec: dict) -> bool:
        """Keep vec {column: element or int} when it leaves the span of the
        rows held.  It is reduced only at the pivots it holds, least first
        from a heap: a row enters only columns past its pivot."""
        into, reduce, rows, zero = self.into, self.reduce, self.rows, self.zero
        v = {c: y for c, x in vec.items() if (y := into(x))}
        heap = [c for c in v if c in rows]
        heapify(heap)
        while heap:
            c = heappop(heap)
            f = into(v[c])
            if f:
                for col, b in rows[c].items():
                    if col not in v and col in rows:
                        heappush(heap, col)
                    v[col] = v.get(col, zero) - f * b
        v = reduce(v)
        if v:
            piv = min(v)
            inv = self.inverse(v[piv])
            rows[piv] = reduce({c: inv * x for c, x in v.items()})
        return bool(v)


def independent_subset(vectors: Sequence[Sequence], field: Field) -> list[int]:
    """Indices of the vectors, of elements or ints, an ``Echelon`` keeps."""
    echelon = Echelon(field)
    return [i for i, vec in enumerate(vectors) if echelon.add(dict(enumerate(vec)))]
