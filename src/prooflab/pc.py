"""Degree-k monomial-PC and full-PC saturation over exact rationals or F_p.

Polynomials are multilinear throughout: the booleanity axioms X^2 - X are
implicit, so a monomial is just a strictly increasing tuple of variable ids
and multiplication of monomials is set union.  The saturation engines
maintain an echelon basis of the derivable span, keyed by leading monomial
under graded lexicographic order.  Both take the single-term axioms of one
or two variables as a monomial quotient of that basis, and lift every
other axiom into its rows.  The quotient then grows: a monomial of degree
1 to k - 1 in the span has its every multiple of degree <= k there too,
under both engines' rules, so each one the engines find becomes a
generator, and the rows its multiples led are evicted.
"""

from __future__ import annotations

import bisect
import json
from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, islice
from math import comb, gcd, lcm
from typing import Iterable, NamedTuple, Optional

from .algebra import Field, RATIONALS
from .errors import DegreeOverflowError, UsageError, malformed_input

Monomial = tuple  # strictly increasing variable ids; () is the constant monomial

NEG_INF = float("-inf")

# rows are tail-reduced before use up to this recursion depth; past it a
# row is used as stored, and the terms it brings in are eliminated in turn
_TAIL_DEPTH = 50


def mono_key(m: Monomial):
    """Graded lexicographic sort key; max(...) of these is the leading monomial."""
    return (len(m), m)


def mono_extend(m: Monomial, x: int) -> Monomial:
    """m with variable x inserted (x must not occur in m)."""
    i = bisect.bisect_left(m, x)
    return m[:i] + (x,) + m[i:]


class Polynomial:
    """Multilinear polynomial: sparse map from monomial to nonzero coefficient."""

    __slots__ = ("field", "terms")

    def __init__(self, field: Field, terms: Iterable = ()):
        self.field = field
        if isinstance(terms, dict):
            terms = terms.items()
        acc: dict = {}
        for mono, coef in terms:
            if any(type(v) is not int or v < 1 for v in mono):
                raise UsageError(f"variable ids must be ints >= 1, got {list(mono)}")
            mono = tuple(sorted(set(mono)))
            coef = field.coerce(coef)
            s = field.add(acc.get(mono, field.zero()), coef)
            if s == 0:
                acc.pop(mono, None)
            else:
                acc[mono] = s
        self.terms = acc

    @property
    def degree(self):
        return max((len(m) for m in self.terms), default=NEG_INF)

    def is_zero(self) -> bool:
        return not self.terms

    def variables(self) -> set:
        return {v for m in self.terms for v in m}

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.field == other.field and self.terms == other.terms

    def __hash__(self):
        return hash((self.field, frozenset(self.terms.items())))

    def evaluate(self, assignment: dict):
        """Value at a point; assignment maps variable id to a field element."""
        f = self.field
        total = f.zero()
        for m, c in self.terms.items():
            v = c
            for x in m:
                v = f.mul(v, f.coerce(assignment[x]))
            total = f.add(total, v)
        return total

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for m in sorted(self.terms, key=mono_key, reverse=True):
            c = self.field.format_scalar(self.terms[m])
            mono = "*".join(f"X{v}" for v in m) or "1"
            bits.append(f"{c}*{mono}")
        return " + ".join(bits)


def multlin(p, field: Optional[Field] = None) -> Polynomial:
    """Multilinearisation: collapse repeated variables, summing collisions.

    Accepts a Polynomial (returned unchanged; the type is multilinear by
    construction) or raw (coefficient, variable-id sequence) pairs in which
    ids may repeat, e.g. [(1, (1, 1, 2)), (1, (3,))] for X1^2*X2 + X3.
    """
    if isinstance(p, Polynomial):
        return p
    if field is None:
        raise UsageError("multlin of raw terms needs an explicit field")
    return Polynomial(field, [(tuple(ids), coef) for coef, ids in p])


@dataclass
class PolySystem:
    """Axiom system for the polynomial calculus; booleanity axioms implicit."""

    field: Field
    num_vars: int
    axioms: list

    def __post_init__(self):
        if type(self.num_vars) is not int or self.num_vars < 0:
            raise UsageError(f"num_vars must be an int >= 0, got {self.num_vars!r}")
        for p in self.axioms:
            if not isinstance(p, Polynomial):
                raise UsageError("axioms must be Polynomial instances")
            if p.field != self.field:
                raise UsageError("axiom field does not match system field")
            bad = [v for v in p.variables() if v > self.num_vars]
            if bad:
                raise UsageError(f"axiom uses variables {bad} beyond num_vars={self.num_vars}")


def _primitive(vec: dict) -> dict:
    """Divide an integer row by the gcd of its coefficients."""
    g = gcd(*vec.values())
    return {m: c // g for m, c in vec.items()} if g > 1 else vec


def _int_rows(terms: dict) -> dict:
    """Clear denominators and divide by the content; empty stays empty."""
    den = lcm(*(c.denominator for c in terms.values() if isinstance(c, Fraction)))
    return _primitive({m: int(c * den) for m, c in terms.items()})


def _terms(row: tuple):
    """The (monomial, coefficient) pairs of a stored row, lead first."""
    it = iter(row)
    return zip(it, it)


def _row(lead: Monomial, vec: dict) -> tuple:
    """The stored form of a row: (lead, c_lead, m2, c2, ...); vec is consumed."""
    row = [lead, vec.pop(lead)]
    for term in vec.items():
        row += term
    return tuple(row)


class _RowView(Mapping):
    """Read-only view of a basis's rows: lead -> {monomial: coefficient},
    a fresh dict on each read."""

    __slots__ = ("_rows",)

    def __init__(self, rows: dict):
        self._rows = rows

    def __getitem__(self, lead):
        return dict(_terms(self._rows[lead]))

    def __iter__(self):
        return iter(self._rows)

    def __len__(self):
        return len(self._rows)


class Basis:
    """Echelon basis of a space of multilinear polynomials.

    Vectors have pairwise distinct leading monomials under graded lex
    order.  Over Q the rows are kept as primitive integer vectors (content
    1, positive lead) so that reduction is pure integer arithmetic; over
    F_p they are monic residues.  A row's tail is reduced when the row is
    inserted and again, lazily, when the row is next used for an
    elimination after a monomial of its tail has come to lead a row.

    Each row is stored in ``_rows`` as one flat tuple (lead, c_lead, m2,
    c2, ...), keyed by its lead, whose object is also element 0.  Nearly
    all rows have one to five terms, and a dict per row took the peak RSS
    of the K4 k = 4 closure from 944 MB to 1,408 MB.  Rows are replaced,
    never changed in place, so copies share them, and the engines read
    them through ``_terms``.  ``vectors`` is a read-only view that gives
    each row as a dict; it is kept for the benchmark's row and term counts.

    A basis may carry a monomial quotient: a set of generator monomials
    whose every multiple of degree <= k is known to lie in the span.
    Those multiples form a coordinate subspace M, and the span is M plus
    the span of the rows, whose leads never lie in M.  The generators
    given at construction have one or two variables (the single-term
    axioms); a closure adds, by ``_grow``, each monomial of degree 1 to
    k - 1 that it finds in the span, and evicts the rows its multiples
    led.  A row may then still hold tail terms that entered M after it
    was stored, so remainders are read modulo M.  Generators of one or two
    variables live in one bit table, ``_nbr``; wider ones, which only a
    closure at k >= 4 grows, in the set ``_wide``.  ``_walk`` is the one
    enumeration of the monomials outside M: the linear lifts, the count of
    M and ``_grow``'s search for the rows to evict all read it.
    ``quotient_size()`` counts the multiples of the construction generators
    only; ``dimension`` counts the rows and the whole of M.
    """

    def __init__(self, field: Field, k: int, num_vars: int = 0, quotient: Iterable = ()):
        self.field = field
        self.k = k
        self.num_vars = num_vars
        self._rows: dict = {}     # lead monomial -> (lead, c_lead, m2, c2, ...)
        self.lifted: set = set()  # leads whose variable lifts were emitted
        gens = {tuple(sorted(set(m))) for m in quotient}
        gens.discard(())  # a constant generator would be a refutation, not a quotient
        if any(len(g) > 2 for g in gens):
            raise UsageError("quotient generators have one or two variables")
        # nbr[v] has bit u set when {u, v} is a generator, and bit 0 when {v}
        # is, so that for m outside the quotient, m * v is a multiple of a
        # generator of one or two variables iff nbr[v] & (1 | bits of m)
        self._nbr = [0] * (num_vars + 1)
        self._wide: set = set()  # generators of three or more variables
        self._gens = 0           # generators added, at construction and since
        self._base = tuple(gens)  # the construction generators, for quotient_size
        for g in gens:
            self._add_generator(g)
        self._quotient_size = None

    def copy(self) -> "Basis":
        c = Basis(self.field, self.k, self.num_vars)
        c._nbr = list(self._nbr)  # a closure of the copy grows its own quotient
        c._wide = set(self._wide)
        c._gens = self._gens
        c._base = self._base
        c._quotient_size = self._quotient_size
        c._rows = dict(self._rows)  # rows are replaced, never changed in place
        c.lifted = set(self.lifted)
        return c

    @property
    def vectors(self) -> Mapping:
        """The rows, lead -> {monomial: coefficient}, as a read-only view."""
        return _RowView(self._rows)

    def in_quotient(self, m: Monomial) -> bool:
        """Is m a multiple of a quotient generator?"""
        nbr = self._nbr
        seen = 1
        for v in m:
            if nbr[v] & seen:
                return True
            seen |= 1 << v
        wide = self._wide
        if not wide or len(m) < 3:
            return False
        return m in wide or any(s in wide for d in range(3, len(m)) for s in combinations(m, d))

    def _add_generator(self, g: Monomial):
        if len(g) == 1:
            self._nbr[g[0]] |= 1
        elif len(g) == 2:
            self._nbr[g[0]] |= 1 << g[1]
            self._nbr[g[1]] |= 1 << g[0]
        else:
            self._wide.add(g)
        self._gens += 1

    def _grow(self, m: Monomial) -> list:
        """Make m, a monomial of degree 1 to k - 1 that lies in the span, a
        quotient generator, and evict the rows led by its multiples.
        Returns what is left of each evicted row once its quotient terms
        are dropped, for the caller to absorb: the span then changes only
        by the multiples of m that it gains.  The rows are found by a walk
        from m or by a scan of the leads, whichever has fewer to visit."""
        if self.in_quotient(m):
            return []
        rows, k, n = self._rows, self.k, self.num_vars
        if sum(comb(n - len(m), e) for e in range(k - len(m) + 1)) < len(rows):
            leads = [t for t, _, _ in self._walk(k, root=m) if t in rows]
        else:
            leads = [lead for lead in rows if all(map(lead.__contains__, m))]
        self._add_generator(m)
        left = []
        for row in map(rows.pop, leads):
            vec = {t: c for t, c in _terms(row[2:]) if not self.in_quotient(t)}
            if vec:
                left.append(vec)
        return left

    def _walk(self, d: int, root: Monomial = ()):
        """Yield (m, bits, cands) for the multiples m of root of degree <= d
        outside the quotient, adding one variable at a time, each above the
        last.  bits is 1 | sum of 1 << v over v in m; cands has bit v for
        each variable v the walk may still add to m.  From the constant the
        walk yields each monomial outside the quotient once; from a root it
        skips only the multiples of the single and pair generators, as it
        looks for row leads and no quotient monomial leads a row."""
        nbr, n = self._nbr, self.num_vars
        bits = 1 | sum(1 << v for v in root)
        start = sum(1 << v for v in range(1, n + 1) if not (bits >> v) & 1 and not nbr[v] & bits)
        # tails[s]: bits of the last variables of the wide generators whose
        # other variables are s; m + (v,) + (w,) is in the quotient when
        # some s + (v,) inside it has bit w in tails
        tails: dict = {}
        if not root:
            for g in self._wide:
                tails[g[:-1]] = tails.get(g[:-1], 0) | 1 << g[-1]
        # an explicit stack: a recursive closure would keep this basis in a
        # reference cycle, alive until the cyclic collector runs
        stack = [(root, bits, start)]
        while stack:
            m, bits, cands = stack.pop()
            yield m, bits, cands
            if len(m) == d:
                continue
            rest = cands
            while rest:
                low = rest & -rest
                rest ^= low
                v = low.bit_length() - 1
                below = rest & ~nbr[v]
                if tails:
                    for e in range(1, len(m) + 1):
                        for s in combinations(m, e):
                            below &= ~tails.get(s + (v,), 0)
                stack.append((mono_extend(m, v), bits | low, below))

    def _count_quotient(self) -> int:
        """Number of monomials of degree <= k in the quotient."""
        k = self.k
        size = sum(comb(self.num_vars, d) for d in range(k + 1))
        # the degree-k leaves below m are m + (v,) for v in cands
        for m, _, cands in self._walk(k - 1):
            size -= 1 + (cands.bit_count() if len(m) == k - 1 else 0)
        return size

    def quotient_size(self) -> int:
        """Number of monomials of degree <= k that are multiples of the
        generators given at construction; those a closure grows are
        counted in ``dimension`` only."""
        if self._quotient_size is None:
            self._quotient_size = (Basis(self.field, self.k, self.num_vars, self._base)._count_quotient()
                                   if self._base else 0)
        return self._quotient_size

    @property
    def dimension(self) -> int:
        """Dimension of the span: the rows and the whole quotient, grown
        generators included.  A refuted span closes to the whole space
        under both engines' rules, so a refuted basis counts every monomial
        of degree <= k, whether or not its closure stopped early."""
        if self.refuted:
            return sum(comb(self.num_vars, d) for d in range(self.k + 1))
        return len(self._rows) + (self._count_quotient() if self._gens else 0)

    @property
    def refuted(self) -> bool:
        # a nonzero constant is in the span iff the constant monomial leads
        # a row (it is the minimum of the order, so nothing reduces to it)
        return () in self._rows

    def polynomials(self) -> list:
        """The rows, then every quotient monomial, as monic polynomials."""
        f, out = self.field, []
        for row in sorted(self._rows.values(), key=lambda r: mono_key(r[0]), reverse=True):
            inv = Fraction(1, row[1]) if f.is_rational else f.inv(row[1])
            out.append(Polynomial(f, {m: f.mul(inv, c) for m, c in _terms(row)}))
        if self._gens:
            for d in range(1, self.k + 1):
                for m in combinations(range(1, self.num_vars + 1), d):
                    if self.in_quotient(m):
                        out.append(Polynomial(self.field, {m: 1}))
        return out

    def _normalize(self, vec: dict) -> dict:
        """Drop the quotient terms, then scale as _scale does."""
        if self._gens:
            vec = {m: c for m, c in vec.items() if not self.in_quotient(m)}
        return self._scale(vec)

    def _scale(self, vec: dict) -> dict:
        """Primitive integer row over Q, reduced residues over F_p."""
        if self.field.is_rational:
            return _int_rows(vec)
        p = self.field.p
        return {m: c % p for m, c in vec.items() if c % p}

    def _reduce(self, vec: dict, skip=None, depth: int = 0) -> dict:
        """Eliminate leading monomials until none of vec's monomials leads a
        row (skip excepted); vec is consumed.

        A row is tail-reduced before it is used: if a monomial of its tail
        has come to lead a row since, the tail is reduced first and the row
        replaced, which keeps its lead and the span.  An elimination then
        brings in no monomial that leads a row, so the hits of vec can be
        taken in any order.  The remainder does not depend on that order:
        it is the part of vec on the monomials that lead no row.  Rows may
        hold tail terms that entered the quotient after they were stored,
        so the remainder is to be read modulo the quotient.
        """
        rows = self._rows
        todo = [m for m in vec if m in rows and m != skip]
        p = self.field.p
        while todo:
            m = todo.pop()
            a = vec.pop(m, None)  # the lead cancels exactly
            if a is None:
                continue  # cancelled by an earlier elimination
            row = rows[m]
            if len(row) == 2:
                continue  # a monomial row drops its lead and nothing else
            if depth < _TAIL_DEPTH:
                for t in row[2::2]:
                    if t in rows:
                        lead = row[0]  # the key's own object, not an equal copy
                        row = rows[m] = _row(lead, self._reduce(dict(_terms(row)), lead, depth + 1))
                        break
            # over F_p every row is monic, so only this first case arises
            b = row[1]
            if b == 1:
                beta = a
            else:
                g = gcd(a, b)
                alpha, beta = b // g, a // g
                if alpha != 1:
                    for t in vec:
                        vec[t] *= alpha
            tail = islice(row, 2, None)
            for t, c in zip(tail, tail):
                s = vec.get(t)
                if s is None:
                    s = -beta * c  # nonzero, as beta and c are and p is prime
                    vec[t] = s if p is None else s % p
                    if t in rows:
                        todo.append(t)  # only from a row past _TAIL_DEPTH
                else:
                    s -= beta * c
                    if p is not None:
                        s %= p
                    if s:
                        vec[t] = s
                    else:
                        del vec[t]
        return _primitive(vec) if p is None else vec

    def _spans(self, vec: dict, depth: int = 0) -> bool:
        """Does vec, normalized, lie in the span?  vec is consumed."""
        return all(map(self.in_quotient, self._reduce(vec, depth=depth)))

    def _checked(self, vec) -> dict:
        """A copy of vec, a Polynomial or a monomial -> coefficient map,
        whose monomials are checked against the variables and the degree
        bound of the basis."""
        if isinstance(vec, Polynomial):
            vec = vec.terms
        n, k = self.num_vars, self.k
        for m in vec:
            if (type(m) is not tuple or any(type(v) is not int or not 0 < v <= n for v in m)
                    or any(a >= b for a, b in zip(m, m[1:]))):
                raise UsageError(f"monomial {m!r} is not an increasing tuple of "
                                 f"variable ids 1..{n}")
            if len(m) > k:
                raise DegreeOverflowError(f"monomial {m!r} exceeds the bound k={k}")
        return dict(vec)

    def contains(self, vec) -> bool:
        """Does vec, checked as by insert, lie in the span of the stored rows
        and the quotient?  A closure that stopped at its refutation holds
        less than its dimension counts: on 3 variables with X1 - 1 and X1
        at k = 2 its dimension is 7, yet X2 is not contained, as it is after
        full_closure=True."""
        # at _TAIL_DEPTH rows are used as stored: a query replaces none of them
        return self._spans(self._normalize(self._checked(vec)), _TAIL_DEPTH)

    def insert(self, vec) -> bool:
        """Reduce vec against the basis; absorb it if independent.

        Returns True iff the dimension grew.  Zero reductions are dropped.
        The quotient does not grow: that is the closures' rule, not the
        span's.
        """
        return self._absorb(self._normalize(self._checked(vec))) is not None

    def _absorb(self, vec: dict) -> Optional[Monomial]:
        """insert for a vector that is already normalized; vec is consumed.
        Returns the lead of the new row, or None if vec lay in the span."""
        vec = self._reduce(vec)
        if not vec:
            return None
        lead = max(vec, key=mono_key)
        if self._gens and self.in_quotient(lead):
            # a term that entered the quotient after the row that brought
            # it in was stored: read the remainder modulo the quotient
            vec = self._scale({t: c for t, c in vec.items() if not self.in_quotient(t)})
            if not vec:
                return None
            lead = max(vec, key=mono_key)
        if self.field.is_rational:
            if vec[lead] < 0:
                vec = {m: -c for m, c in vec.items()}
        else:
            inv = self.field.inv(vec[lead])
            if inv != 1:
                p = self.field.p
                vec = {m: (c * inv) % p for m, c in vec.items()}
        self._rows[lead] = _row(lead, vec)
        return lead

    def span_monomial(self, m: Monomial) -> bool:
        """Is the single monomial m in the span?"""
        return self.contains({m: 1})


class SaturationResult(NamedTuple):
    refuted: bool
    basis: Basis


def _check_system(system: PolySystem, k: int):
    if k < 1:
        raise UsageError("degree bound k must be >= 1")
    for p in system.axioms:
        if p.degree > k:
            raise DegreeOverflowError(
                f"axiom of degree {p.degree} exceeds the bound k={k}")


def _mul_var(field: Field, terms, x: int) -> dict:
    """MultLin(x * vec) for vec given as (monomial, nonzero coefficient) pairs."""
    p = field.p
    out: dict = {}
    for m, c in terms:
        t = m if x in m else mono_extend(m, x)
        s = out.get(t)
        if s is None:
            out[t] = c  # t is hit twice only if both t and t minus x are terms
            continue
        s += c
        if p is not None:
            s %= p
        if s:
            out[t] = s
        else:
            del out[t]
    return out


def _degree(vec: dict):
    return max(map(len, vec), default=NEG_INF)


def _lift_axioms(basis: Basis, axioms: list):
    """Yield, normalized, MultLin(m.p) for every axiom p and every lift
    monomial m that is reachable one variable at a time without exceeding
    the basis degree k, for the caller to absorb."""
    f, k, num_vars = basis.field, basis.k, basis.num_vars
    # scaling by a nonzero constant keeps the span; over Q the lifts of the
    # integer row then need integer additions only.  The degree bound
    # applies to the whole lift, so quotient terms are dropped only from
    # what is yielded.  An axiom whose terms all lie in the quotient has
    # every lift there too.
    roots = [basis._scale(dict(p.terms)) for p in axioms]
    if basis._gens:
        roots = [root for root in roots if not all(map(basis.in_quotient, root))]
    linear = [root for root in roots if _degree(root) <= 1]
    if linear:
        yield from _lift_linear(basis, linear)
    for root in roots:
        if _degree(root) <= 1:
            continue
        yield basis._normalize(dict(root))
        seen = {()}
        queue = deque([((), root)])
        while queue:
            m, lifted = queue.popleft()
            if _degree(lifted) == k:
                # a fresh variable would push every top-degree term past k
                candidates = sorted({v for t in lifted for v in t} - set(m))
            else:
                candidates = [x for x in range(1, num_vars + 1) if x not in m]
            for x in candidates:
                m2 = mono_extend(m, x)
                if m2 in seen:
                    continue
                seen.add(m2)
                if basis.in_quotient(m2):
                    continue  # every term of the lift is a multiple of m2
                q = _mul_var(f, lifted.items(), x)
                if q and _degree(q) <= k:
                    # a lift that collapsed to zero, or into the quotient,
                    # stays there under further lifting, so only the
                    # others are worth yielding and extending
                    if basis._gens and all(map(basis.in_quotient, q)):
                        continue
                    yield basis._normalize(dict(q))
                    queue.append((m2, q))


def _lift_linear(basis: Basis, roots: list):
    """_lift_axioms for the axioms of degree <= 1, without the search and
    without the lifts that other lifts already span.

    For such an axiom p every m of degree < k is a lift monomial, and
    MultLin(m.p) has degree <= k; a lift by m of degree k stays within the
    bound only if m covers the variables of p, and it is then sum(p) * m.
    Lift monomials in the quotient are skipped: their lifts lie in it.
    That includes those that entered it while the lifts were absorbed.

    The lifts by m of degree < k are linear in p, so they come from an
    echelon form q_1, ..., q_r of the axioms, taken in increasing order of
    their leads L_1 < ... < L_r, and q_i is lifted only by the m that
    contain no L_j with j < i.  The others add nothing (Faugere's F5
    criterion).  If m = L_j.m' with j < i, write q_j, made monic, as
    L_j + t_j, where t_j has only variables below L_j and the constant;
    then, in the multilinear ring,

        m.q_i = (m'.q_i).q_j - (m'.t_j).q_i,

    and expanding m'.q_i and m'.t_j term by term makes the right side a sum
    of lifts of q_j (an earlier row) by monomials of degree <= deg m and of
    lifts of q_i by monomials smaller than m (x.m' with x < L_j, or m'
    itself), all within degree k.  By induction on (i, m) every skipped lift lies in the
    span of the kept ones.  The lifts by m of degree k are not linear in p:
    an echelon row covers a different support, and sum(q).m for a
    combination q of axioms need not be derivable at degree k.  They come
    from the axioms themselves."""
    k, nbr = basis.k, basis._nbr
    p = basis.field.p
    echelon = Basis(basis.field, 1)
    for root in roots:
        echelon._absorb(basis._normalize(dict(root)))
    rows = sorted(echelon._rows.values(), key=lambda row: mono_key(row[0]))
    # the lift monomials outside the quotient, in graded lex order
    free = sorted(((m, bits) for m, bits, _ in basis._walk(k - 1)), key=lambda mb: mono_key(mb[0]))
    listed = basis._gens  # the generators when free was listed
    earlier = 0  # bits of the leads of the rows already lifted
    for row in rows:
        c0 = next((c for t, c in _terms(row) if not t), 0)
        coefs = [(t[0], c) for t, c in _terms(row) if t]
        for m, bits in free:
            if bits & earlier:
                continue
            if basis._gens != listed and basis.in_quotient(m):
                continue
            vec = {}
            own = c0
            for x, c in coefs:
                if (bits >> x) & 1:
                    own += c  # MultLin(x.m) = m
                    continue
                if not nbr[x] & bits:
                    vec[mono_extend(m, x)] = c
            if p is not None:
                own %= p
            if own:
                vec[m] = own
            if vec:
                yield vec
        if row[0]:
            earlier |= 1 << row[0][0]
    for root in roots:
        total = sum(root.values())
        if p is not None:
            total %= p
        support = [t[0] for t in root if t]
        if not total or len(support) > k:
            continue
        others = [x for x in range(1, basis.num_vars + 1) if x not in support]
        for extra in combinations(others, k - len(support)):
            m = tuple(sorted(support + list(extra)))
            if not basis.in_quotient(m):
                yield {m: total}


def _rounds(basis: Basis, every_row: bool):
    """The rounds of both engines, until a round yields nothing.  Each
    round first yields {m: 1} for every row lead m of degree 1 to k - 1
    that lies in the span: _close makes it a quotient generator, which
    puts its every multiple of degree <= k in the span, as both engines'
    rules do.  Then it yields the lift by every variable of each row led
    below degree k that no earlier round lifted: with every_row, of every
    such row (full PC), and otherwise of the constant row alone, the one
    in-span monomial that is not a generator but the refutation (monomial
    PC).  The quotient terms of each lift are dropped: they lie in the span
    already.  A row evicted since its round began is skipped: its lead is
    in the quotient, and what was left of it was absorbed anew."""
    f, k, num_vars = basis.field, basis.k, basis.num_vars
    rows, lifted = basis._rows, basis.lifted
    while True:
        low = sorted((lead for lead in rows if len(lead) < k), key=mono_key)
        # _spans, unlike the read-only span_monomial, tail-reduces the rows the closure uses
        spanned = [m for m in low if m and basis._spans({m: 1})]
        fresh = [lead for lead in low if lead not in lifted and (every_row or not lead)]
        if not spanned and not fresh:
            return
        for m in spanned:
            yield {m: 1}
        for lead in fresh:
            row = rows.get(lead)
            if row is None:
                continue
            lifted.add(lead)
            for x in range(1, num_vars + 1):
                vec = _mul_var(f, _terms(row), x)
                if basis._gens:
                    vec = {m: c for m, c in vec.items() if not basis.in_quotient(m)}
                yield vec


def _close(system: PolySystem, k: int, every_row: bool, full_closure: bool,
           basis: Optional[Basis] = None) -> SaturationResult:
    """Check the system, then absorb into the basis each vector that the
    axiom lifts and then _rounds(basis, every_row) yield, as soon as it is
    yielded: a round reads the basis as the absorbs before it left it.
    every_row is True for full PC and False for monomial PC.  Unless
    full_closure is set, stop once the basis is refuted.

    A fresh basis takes as its quotient the single-term axioms of one or
    two variables (for an isomorphism system, the conflict monomials): in
    either engine their multiples of degree <= k are all lifts.  The
    quotient then grows.  Both engines' rules put every multiple of degree
    <= k of an in-span monomial m with 1 <= deg m < k in the span, so m
    becomes a generator when a yielded vector is the single term m, or
    when an absorb leaves m as a single-term row.  The rows that m's
    multiples led are evicted, and what is left of each is absorbed in
    turn.  The constant is never a generator: it is the refutation.
    """
    _check_system(system, k)
    if basis is None:
        quotient = [m for p in system.axioms if len(p.terms) == 1 for m in p.terms if len(m) <= 2]
        basis = Basis(system.field, k, system.num_vars, quotient)
    rows, absorb, grow = basis._rows, basis._absorb, basis._grow
    for vec in chain(_lift_axioms(basis, system.axioms), _rounds(basis, every_row)):
        todo = [vec]
        while todo:
            vec = todo.pop()
            if len(vec) == 1:
                m = next(iter(vec))
                if 0 < len(m) < k:
                    todo += grow(m)
                    continue
            m = absorb(vec)
            if m == () and not full_closure:
                break  # the constant: refuted
            if m and len(m) < k and len(rows[m]) == 2:
                todo += grow(m)
        if not full_closure and basis.refuted:
            break
    return SaturationResult(basis.refuted, basis)


def monpc_saturate(system: PolySystem, k: int, full_closure: bool = False) -> SaturationResult:
    """Saturate the degree-k monomial-PC span of the axiom system.

    Initialises with all degree-bounded axiom lifts.  The rule "from m
    infer x.m" puts the multiples of degree <= k of an in-span monomial m
    of degree < k all in the span, so every such m of degree >= 1 becomes a
    quotient generator as soon as it is found; the rounds look for row
    leads in the span until there are none.  Refuted iff the constant 1
    lies in the span.  By default the loop stops as soon as a refutation
    appears (the span then closes to the whole space, so completing it
    carries no information); pass full_closure=True to saturate
    regardless.  The basis's quotient_size() counts the multiples of the
    single-term axioms of one or two variables; its dimension counts the
    rows and the whole grown quotient.
    """
    return _close(system, k, False, full_closure)


def monpc_extend(basis: Basis, extra_axioms: list, full_closure: bool = False) -> SaturationResult:
    """Continue a finished monomial-PC saturation after adding axioms.

    basis must be the result of monpc_saturate (or a previous extend) for a
    subset of the axioms over the same variables and degree bound.  The
    given basis is not modified: the extension grows a copy of its
    quotient, and quotient_size() still counts the base system's
    single-term axioms.  Produces the same span as saturating the enlarged
    system from scratch.
    """
    return _close(PolySystem(basis.field, basis.num_vars, list(extra_axioms)), basis.k,
                  False, full_closure, basis.copy())


def pc_saturate(system: PolySystem, k: int, full_closure: bool = False) -> SaturationResult:
    """Saturate the degree-k full-PC span of the axiom system.

    Initialises with all degree-bounded axiom lifts, then lifts by every
    variable each row whose lead has degree < k and that no earlier round
    lifted, until no such row is left; the same loop serves Q and F_p.
    The basis is echelon under graded lex with distinct leads, so the top
    lead of a combination cannot cancel and the rows led below degree k
    span {p in span : deg(p) < k} modulo the quotient.  Lifting each lead
    once is enough: a row that tail reduction later replaces differs from
    the lifted one by rows with smaller leads, which are lifted too.  A
    monomial of degree 1 to k - 1 in the span becomes a quotient generator
    instead of a row to lift, as in monpc_saturate.  Refuted iff the
    constant 1 lies in the span; full_closure is as for monpc_saturate.
    Over Q the K4 CFI pair's colour-restricted system closes at k = 2 in
    0.3 s, not refuted, and refutes at k = 3 in 1-2 s.
    """
    return _close(system, k, True, full_closure)


ENGINES = {"monpc": monpc_saturate, "pc": pc_saturate}


def degree_sweep(system: PolySystem, engine: str = "monpc", k_max: int = 6):
    """Yield (k, refuted, dimension) for k = 1, 2, ..., k_max, stopping
    after the first refutation.

    Every line of a degree-k proof obeys the bound, so axioms wider than k
    cannot take part: at each k the degree-<= k subsystem is what gets
    saturated, with the engine's early exit on refutation.  Only the
    verdict and the basis dimension leave the sweep, so no closure is
    alive while the next one runs.
    """
    try:
        saturate = ENGINES[engine]
    except KeyError:
        raise UsageError(f"unknown engine {engine!r}; use one of {sorted(ENGINES)}")
    if k_max < 1:
        raise UsageError(f"k_max must be >= 1, got {k_max}")
    for k in range(1, k_max + 1):
        usable = [p for p in system.axioms if p.degree <= k]
        res = saturate(PolySystem(system.field, system.num_vars, usable), k)
        refuted, dimension = res.refuted, res.basis.dimension
        del res
        yield k, refuted, dimension
        if refuted:
            return


def min_refutation_degree(system: PolySystem, engine: str = "monpc",
                          k_max: int = 6) -> Optional[int]:
    """Smallest k <= k_max at which the engine refutes, or None: the first
    refuted k of degree_sweep.  The sweep starts at 1; a system containing
    a nonzero constant therefore reports degree 1.
    """
    return next((k for k, refuted, _ in degree_sweep(system, engine, k_max) if refuted), None)


# ---------------------------------------------------------------------------
# PolySystem JSON wire format

def field_to_json(f: Field) -> dict:
    return {"kind": "Q"} if f.is_rational else {"kind": "Fp", "p": f.p}


def field_from_json(obj: dict) -> Field:
    kind = obj.get("kind")
    if kind == "Q":
        return RATIONALS
    if kind == "Fp":
        if type(obj["p"]) is not int:
            raise UsageError(f"field \"p\" must be an int, got {obj['p']!r}")
        return Field(obj["p"])
    raise UsageError(f"unknown field kind {kind!r}")


def system_to_json(system: PolySystem) -> dict:
    polys = []
    for p in system.axioms:
        polys.append([
            {"coef": system.field.format_scalar(c), "mono": list(m)}
            for m, c in sorted(p.terms.items(), key=lambda mc: mono_key(mc[0]), reverse=True)
        ])
    return {
        "field": field_to_json(system.field),
        "num_vars": system.num_vars,
        "polys": polys,
    }


def system_from_json(obj: dict) -> PolySystem:
    with malformed_input("PolySystem JSON"):
        f = field_from_json(obj["field"])
        if obj.get("booleanity", True) is not True:
            raise UsageError("the engines assume the booleanity axioms; "
                             "\"booleanity\" may only be true")
        axioms = []
        for poly in obj["polys"]:
            terms = [(f.parse_scalar(t["coef"]), tuple(t["mono"])) for t in poly]
            axioms.append(Polynomial(f, [(m, c) for c, m in terms]))
        return PolySystem(f, obj["num_vars"], axioms)


def dumps_system(system: PolySystem) -> str:
    return json.dumps(system_to_json(system), indent=1)


def loads_system(text: str) -> PolySystem:
    return system_from_json(json.loads(text))
