"""Exact symmetric matrices with LDL^T-style decomposition.

Symmetric pivoting handles zero diagonals (hyperbolic blocks like
[[0,-1],[-1,0]]) by a unimodular congruence, so determinant and signature
come out exact for any rational symmetric input.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence


class SymMat:
    __slots__ = ("dim", "entries")

    def __init__(self, entries: Sequence[Sequence]):
        rows = [[Fraction(x) for x in row] for row in entries]
        n = len(rows)
        for row in rows:
            if len(row) != n:
                raise ValueError("SymMat must be square")
        for i in range(n):
            for j in range(i):
                if rows[i][j] != rows[j][i]:
                    raise ValueError("SymMat must be symmetric")
        object.__setattr__(self, "dim", n)
        object.__setattr__(self, "entries", tuple(tuple(r) for r in rows))

    def __setattr__(self, *a):
        raise AttributeError("SymMat is immutable")

    @staticmethod
    def identity(n: int) -> "SymMat":
        return SymMat([[Fraction(int(i == j)) for j in range(n)]
                       for i in range(n)])

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def congruent(self, m: Sequence[Sequence]) -> "SymMat":
        """m A m^T for an arbitrary exact matrix m."""
        m = [[Fraction(x) for x in row] for row in m]
        n = self.dim
        ma = [[sum(m[i][k] * self.entries[k][j] for k in range(n))
               for j in range(n)] for i in range(len(m))]
        out = [[sum(ma[i][k] * m[j][k] for k in range(n))
                for j in range(len(m))] for i in range(len(m))]
        return SymMat(out)

    def __eq__(self, other):
        return (isinstance(other, SymMat) and self.entries == other.entries)

    def __repr__(self):
        return f"SymMat({[list(r) for r in self.entries]})"


@dataclass(frozen=True)
class LDLTResult:
    det: Fraction
    signature: int
    rank: int
    pivots: tuple
    inverse: Optional[SymMat]
    singular: bool
    transform: tuple = ()     # C with C m C^T = diag(pivots, 0...)


def ldlt(m: SymMat) -> LDLTResult:
    """Exact symmetric decomposition: determinant, signature, inverse.

    Elimination by congruence transforms only (row swap + matching column
    swap, or adding row j to row i with the matching column move), so the
    pivot signs give the signature and the pivot product the determinant.
    The transform C with C m C^T = D = diag(pivots) gives the inverse
    m^{-1} = C^T D^{-1} C without a second elimination.
    """
    n = m.dim
    a = [list(row) for row in m.entries]
    c = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    pivots: List[Fraction] = []
    k = 0
    while k < n:
        p = next((i for i in range(k, n) if a[i][i] != 0), None)
        if p is None:
            hit = None
            for i in range(k, n):
                for j in range(i + 1, n):
                    if a[i][j] != 0:
                        hit = (i, j)
                        break
                if hit:
                    break
            if hit is None:
                break  # remaining block is zero
            i, j = hit
            # congruence by (I + E_ij): makes a[i][i] = 2 a[i][j] != 0
            for col in range(n):
                a[i][col] += a[j][col]
                c[i][col] += c[j][col]
            for r in range(n):
                a[r][i] += a[r][j]
            p = i
        if p != k:
            a[p], a[k] = a[k], a[p]
            c[p], c[k] = c[k], c[p]
            for r in range(n):
                a[r][p], a[r][k] = a[r][k], a[r][p]
        d = a[k][k]
        pivots.append(d)
        for i in range(k + 1, n):
            f = a[i][k] / d
            if f != 0:
                for j in range(n):
                    a[i][j] -= f * a[k][j]
                    c[i][j] -= f * c[k][j]
                for r in range(n):
                    a[r][i] -= f * a[r][k]
        k += 1

    rank = len(pivots)
    singular = rank < n
    det = Fraction(0)
    if not singular:
        det = Fraction(1)
        for d in pivots:
            det *= d
    signature = sum(1 for d in pivots if d > 0) - sum(
        1 for d in pivots if d < 0)
    inverse = None
    if not singular:
        inverse = SymMat([[sum(c[k][i] * c[k][j] / pivots[k]
                               for k in range(n)) for j in range(n)]
                          for i in range(n)])
    return LDLTResult(det=det, signature=signature, rank=rank,
                      pivots=tuple(pivots), inverse=inverse,
                      singular=singular,
                      transform=tuple(tuple(row) for row in c))

