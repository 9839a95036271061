"""Exact field arithmetic and linear algebra over Q and prime fields.

Scalars are `fractions.Fraction` over the rationals and plain residues
(ints in [0, p)) over a prime field; there is no floating point anywhere.
Matrices and vectors carry explicit ordered index sets so that higher
layers can index rows/columns by monomials, universe elements, etc.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Hashable, Iterable, Optional

from .errors import UnsupportedFieldError, UsageError

Index = Hashable


# Miller-Rabin with the primes up to 41 as bases is exact below this bound,
# the least number that is a strong pseudoprime to all of them
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin; raises UsageError for p >= _MR_LIMIT."""
    if p < 2:
        return False
    for b in _MR_BASES:
        if p % b == 0:
            return p == b
    if p >= _MR_LIMIT:
        raise UsageError(f"primality of {p} is not decided: fields need p < {_MR_LIMIT}")
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False  # a witnesses that p is composite
    return True


@dataclass(frozen=True)
class Field:
    """The rationals (p is None) or the prime field F_p."""

    p: Optional[int] = None

    def __post_init__(self):
        if self.p is not None and not is_prime(self.p):
            raise UsageError(f"{self.p} is not prime")

    @property
    def is_rational(self) -> bool:
        return self.p is None

    def zero(self):
        return 0 if self.p is not None else Fraction(0)

    def one(self):
        return 1 if self.p is not None else Fraction(1)

    def coerce(self, x):
        if self.p is not None:
            if isinstance(x, Fraction):
                if x.denominator != 1:
                    raise UsageError(f"cannot coerce {x} into F_{self.p}")
                x = x.numerator
            return x % self.p
        return Fraction(x)

    def add(self, a, b):
        return (a + b) % self.p if self.p is not None else a + b

    def sub(self, a, b):
        return (a - b) % self.p if self.p is not None else a - b

    def mul(self, a, b):
        return (a * b) % self.p if self.p is not None else a * b

    def neg(self, a):
        return (-a) % self.p if self.p is not None else -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        if self.p is not None:
            return pow(a, self.p - 2, self.p)
        return 1 / a

    def format_scalar(self, x) -> str:
        if self.p is not None:
            return str(x)
        return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"

    def parse_scalar(self, s: str):
        if type(s) is not str:
            raise UsageError(f"a scalar is written as a string, got {s!r}")
        if self.p is not None:
            return int(s) % self.p
        return Fraction(s)

    def __repr__(self):
        return "Q" if self.p is None else f"F{self.p}"


RATIONALS = Field(None)


def _check_same_field(a: Field, b: Field):
    if a != b:
        raise UsageError(f"field mismatch: {a} vs {b}")


@dataclass
class Vector:
    field: Field
    indices: tuple
    entries: dict

    def __post_init__(self):
        object.__setattr__(self, "indices", tuple(self.indices))
        self.entries = {i: v for i, v in self.entries.items() if v != 0}
        pos = set(self.indices)
        for i in self.entries:
            if i not in pos:
                raise UsageError(f"vector entry at unknown index {i!r}")

    @classmethod
    def from_list(cls, field: Field, values: Iterable) -> "Vector":
        values = [field.coerce(v) for v in values]
        return cls(field, tuple(range(len(values))), {i: v for i, v in enumerate(values)})

    def get(self, i):
        return self.entries.get(i, self.field.zero())

    def to_list(self) -> list:
        return [self.get(i) for i in self.indices]

    def is_zero(self) -> bool:
        return not self.entries


@dataclass
class Matrix:
    field: Field
    rows: tuple
    cols: tuple
    entries: dict  # (row, col) -> nonzero scalar

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        object.__setattr__(self, "cols", tuple(self.cols))
        self.entries = {rc: v for rc, v in self.entries.items() if v != 0}
        rset, cset = set(self.rows), set(self.cols)
        for (r, c) in self.entries:
            if r not in rset or c not in cset:
                raise UsageError(f"matrix entry at unknown position {(r, c)!r}")

    @classmethod
    def from_dense(cls, field: Field, dense: list) -> "Matrix":
        nr = len(dense)
        nc = len(dense[0]) if nr else 0
        entries = {}
        for i, row in enumerate(dense):
            for j, v in enumerate(row):
                v = field.coerce(v)
                if v != 0:
                    entries[(i, j)] = v
        return cls(field, tuple(range(nr)), tuple(range(nc)), entries)

    def get(self, r, c):
        return self.entries.get((r, c), self.field.zero())

    def to_dense(self) -> list:
        return [[self.get(r, c) for c in self.cols] for r in self.rows]

    def transpose(self) -> "Matrix":
        return Matrix(self.field, self.cols, self.rows,
                      {(c, r): v for (r, c), v in self.entries.items()})

    def matmul(self, other: "Matrix") -> "Matrix":
        _check_same_field(self.field, other.field)
        if self.cols != other.rows:
            raise UsageError("inner index sets do not match")
        by_row: dict = {}
        for (r, c), v in other.entries.items():
            by_row.setdefault(r, []).append((c, v))
        f = self.field
        out: dict = {}
        for (r, k), v in self.entries.items():
            for c, w in by_row.get(k, ()):
                key = (r, c)
                out[key] = f.add(out.get(key, f.zero()), f.mul(v, w))
        return Matrix(f, self.rows, other.cols, out)

    def matvec(self, v: Vector) -> Vector:
        _check_same_field(self.field, v.field)
        if set(v.indices) != set(self.cols):
            raise UsageError("vector index set does not match matrix columns")
        f = self.field
        out: dict = {}
        for (r, c), a in self.entries.items():
            x = v.entries.get(c)
            if x is not None:
                out[r] = f.add(out.get(r, f.zero()), f.mul(a, x))
        return Vector(f, self.rows, out)

    def rank(self) -> int:
        dense = self.to_dense()
        _, pivots = _echelonize(self.field, dense)
        return len(pivots)


def _echelonize(field: Field, dense: list) -> tuple[list, list]:
    """In-place reduced row echelon form; returns (rows, pivot column list)."""
    nr = len(dense)
    nc = len(dense[0]) if nr else 0
    pivots = []
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, nr) if dense[i][c] != 0), None)
        if piv is None:
            continue
        dense[r], dense[piv] = dense[piv], dense[r]
        inv = field.inv(dense[r][c])
        dense[r] = [field.mul(inv, x) for x in dense[r]]
        for i in range(nr):
            if i != r and dense[i][c] != 0:
                f = dense[i][c]
                dense[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(dense[i], dense[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return dense, pivots


def _solve_dense(field: Field, rows: list, rhs: list, nc: int):
    """Solve the dense system in nc unknowns; returns (particular, kernel
    basis) or None.

    Free variables are set to zero in the particular solution; the kernel
    basis has one vector per free column.
    """
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    if not aug:
        # no equations: everything is free
        part = [field.zero()] * nc
        kernel = []
        for j in range(nc):
            v = [field.zero()] * nc
            v[j] = field.one()
            kernel.append(v)
        return part, kernel
    aug, pivots = _echelonize(field, aug)
    if nc in pivots:  # pivot in the rhs column: 0 = 1
        return None
    nr = len(aug)
    part = [field.zero()] * nc
    for r, c in enumerate(pivots):
        part[c] = aug[r][nc]
    free = [j for j in range(nc) if j not in set(pivots)]
    kernel = []
    for j in free:
        v = [field.zero()] * nc
        v[j] = field.one()
        for r, c in enumerate(pivots):
            v[c] = field.neg(aug[r][j])
        kernel.append(v)
    return part, kernel


def gauss_solve(M: Matrix, b: Vector):
    """Exact elimination oracle: returns (particular, kernel_basis) or None.

    The kernel basis is linearly independent and spans ker(M); the result is
    None exactly when M.x = b has no solution.
    """
    _check_same_field(M.field, b.field)
    if set(b.indices) != set(M.rows):
        raise UsageError("b must be indexed by the rows of M")
    dense = M.to_dense()
    rhs = [b.get(r) for r in M.rows]
    res = _solve_dense(M.field, dense, rhs, len(M.cols))
    if res is None:
        return None
    part, kernel = res
    cols = M.cols
    particular = Vector(M.field, cols, {cols[j]: v for j, v in enumerate(part)})
    basis = [Vector(M.field, cols, {cols[j]: v for j, v in enumerate(k)}) for k in kernel]
    return particular, basis


def gram_solvable(M: Matrix, b: Vector) -> bool:
    """Solvability of M.x = b over Q via the Gram/Krylov criterion.

    Forms B = M.M^T and tests membership of b in the span of the Krylov
    vectors B.b, ..., B^(n+1).b with n = min(|rows|, |cols|).  The
    inner-product argument behind the criterion needs characteristic 0.
    """
    if not M.field.is_rational:
        raise UnsupportedFieldError("gram_solvable requires the rationals")
    _check_same_field(M.field, b.field)
    if set(b.indices) != set(M.rows):
        raise UsageError("b must be indexed by the rows of M")
    B = M.matmul(M.transpose())
    n = min(len(M.rows), len(M.cols))
    krylov = []
    v = b
    for _ in range(n + 1):
        v = B.matvec(v)
        krylov.append(v)
    # columns of N are the Krylov vectors; b in span(N) iff N.x = b solvable
    rows = [[kv.get(r) for kv in krylov] for r in M.rows]
    rhs = [b.get(r) for r in M.rows]
    return _solve_dense(M.field, rows, rhs, len(krylov)) is not None


def kernel_generators(M: Matrix) -> Matrix:
    """Matrix S on M.cols x M.cols with im(S) = ker(M), over Q.

    Column j of S is the projection of the j-th standard basis vector onto
    ker(C) along im(C) for C = M^T.M, obtained by solving the combined
    system C.k = 0, k + C.z = e_j; the k-part of a solution is unique.
    """
    if not M.field.is_rational:
        raise UnsupportedFieldError("kernel_generators requires the rationals")
    f = M.field
    C = M.transpose().matmul(M)
    cols = M.cols
    m = len(cols)
    cdense = C.to_dense()
    zero, one = f.zero(), f.one()
    entries = {}
    for j, cj in enumerate(cols):
        # variables (k, z) in Q^(2m): rows C.k = 0, then k + C.z = e_j
        rows = [cdense[i][:] + [zero] * m for i in range(m)]
        for i in range(m):
            row = [zero] * (2 * m)
            row[i] = one
            row[m:] = cdense[i][:]
            rows.append(row)
        rhs = [zero] * m + [one if i == j else zero for i in range(m)]
        res = _solve_dense(f, rows, rhs, 2 * m)
        if res is None:  # cannot happen: Q^J = ker(C) + im(C)
            raise AssertionError("projection system unsolvable")
        part = res[0]
        for i, ri in enumerate(cols):
            if part[i] != 0:
                entries[(ri, cj)] = part[i]
    return Matrix(f, cols, cols, entries)


def compress_image(N: Matrix) -> Matrix:
    """N.N^T, a square matrix on N.rows with the same image as N (over Q)."""
    if not N.field.is_rational:
        raise UnsupportedFieldError(
            "compress_image requires the rationals (the Gram identity fails in positive characteristic)")
    return N.matmul(N.transpose())


def orbit_solve(M: Matrix, b: Vector, orbits: Iterable[Iterable]) -> Optional[Vector]:
    """Solve M.x = b restricted to vectors constant on the given column orbits.

    Sound over any field: a returned vector always satisfies M.v = b.
    Complete only under the cocyclic hypothesis; in general, None means
    "no orbit-constant solution".
    """
    _check_same_field(M.field, b.field)
    orbit_list = [tuple(o) for o in orbits]
    flat = [c for o in orbit_list for c in o]
    if sorted(map(repr, flat)) != sorted(map(repr, M.cols)) or len(flat) != len(M.cols):
        raise UsageError("orbits must partition the columns of M")
    f = M.field
    t_entries = {}
    for oi, orbit in enumerate(orbit_list):
        for c in orbit:
            t_entries[(c, oi)] = f.one()
    T = Matrix(f, M.cols, tuple(range(len(orbit_list))), t_entries)
    MT = M.matmul(T)
    res = gauss_solve(MT, b)
    if res is None:
        return None
    return T.matvec(res[0])
