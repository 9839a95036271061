"""Clause data model, Horn resolution, width-k resolution, and a 2-SAT oracle.

Literals are DIMACS-style signed integers (variable ids are >= 1, negation
is sign flip); a clause is a frozenset of literals, a formula a set of
clauses plus a variable count.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import combinations, count
from typing import FrozenSet, Iterable, NamedTuple

from .errors import UsageError

Clause = FrozenSet[int]


@dataclass
class CnfFormula:
    num_vars: int
    clauses: frozenset

    def __init__(self, num_vars: int, clauses: Iterable[Iterable[int]]):
        self.num_vars = num_vars
        self.clauses = frozenset(frozenset(c) for c in clauses)
        for c in self.clauses:
            for lit in c:
                if lit == 0 or abs(lit) > num_vars:
                    raise UsageError(f"literal {lit} out of range for {num_vars} variables")

    def width(self) -> int:
        return max((len(c) for c in self.clauses), default=0)


class HornResult(NamedTuple):
    refuted: bool
    derived_units: frozenset  # variable ids derivable as positive units


class KresResult(NamedTuple):
    refuted: bool
    derived: frozenset  # clauses of width <= k derivable


def horn_refute(f: CnfFormula) -> HornResult:
    """Horn-resolution refutation by unit propagation to the least fixed point.

    derived_units is the set D of variables x whose unit clause {x} is
    derivable; the formula is refuted iff some all-negative clause has all
    its variables in D (the empty clause counts).
    """
    pos_of = []
    counts = []
    neg_index: dict[int, list[int]] = {}
    for i, c in enumerate(f.clauses):
        p = None
        for lit in c:
            if lit < 0:
                neg_index.setdefault(-lit, []).append(i)
            elif p is None:
                p = lit
            else:
                raise UsageError(f"non-Horn clause {sorted(c)}: more than one positive literal")
        pos_of.append(p)
        counts.append(len(c) - (p is not None))

    derived: set[int] = set()
    queue = deque(i for i, n in enumerate(counts) if n == 0)
    while queue:
        i = queue.popleft()
        p = pos_of[i]
        if p is None or p in derived:
            continue
        derived.add(p)
        for j in neg_index.get(p, ()):
            counts[j] -= 1
            if counts[j] == 0:
                queue.append(j)

    refuted = any(p is None and n == 0 for p, n in zip(pos_of, counts))
    return HornResult(refuted, frozenset(derived))


def kres_saturate(f: CnfFormula, k: int) -> KresResult:
    """Width-k resolution: saturate the clauses of width <= k under resolution.

    derived is the least set containing the input clauses of width <= k and
    closed under resolving two members whenever the resolvent has width <= k.
    Tautological resolvents are dropped and input clauses wider than k are
    excluded.  This is the exact-closure reference; kres_refutes gives the
    same verdict without materialising the closure.
    """
    if k < 1:
        raise UsageError("width bound k must be >= 1")
    derived: set[Clause] = {c for c in f.clauses if len(c) <= k}

    index: dict[int, list[Clause]] = {}

    def register(c: Clause):
        for lit in c:
            index.setdefault(lit, []).append(c)

    # the closure is order-independent, so the queue order is only a
    # processing schedule; each unordered pair meets when its later member
    # is popped against the index
    queue = deque(sorted(derived, key=lambda c: sorted(c)))
    for c in queue:
        register(c)
    while queue:
        c = queue.popleft()
        for lit in c:
            partners = index.get(-lit)
            if not partners:
                continue
            c_rest = c - {lit}
            # fixed range: partners appended during the scan meet c when they
            # are popped from the queue themselves
            for i in range(len(partners)):
                d = partners[i]
                resolvent = c_rest | (d - {-lit})
                if len(resolvent) > k or resolvent in derived:
                    continue
                if any(-x in resolvent for x in resolvent):
                    continue
                derived.add(resolvent)
                register(resolvent)
                queue.append(resolvent)

    return KresResult(frozenset() in derived, frozenset(derived))


def kres_refutes(f: CnfFormula, k: int) -> bool:
    """Width-k resolution verdict via subsumption-pruned saturation.

    Same answer as kres_saturate(f, k).refuted: a subsuming clause can
    stand in for any clause in every width-bounded resolution step, so
    pruning preserves derivability of the empty clause while keeping the
    working set small, and the width-k closure is never materialised.

    Each distinct resolvent of width <= k is decided once: a resolvent
    already in `seen` is skipped before the tautology test and before
    `add`.  This is exact.  The first occurrence was either a tautology,
    which the test rejects again, or passed to `add`.  A clause leaves
    `alive` only when a strict subset of it enters, so every clause that
    was ever alive, or was ever forward-subsumed, still has an alive
    subset, and `add` would reject the repeat.  The alive sets, the
    schedule and the verdict are those of the unskipped loop; only
    rejected calls go.
    """
    if k < 1:
        raise UsageError("width bound k must be >= 1")
    if frozenset() in f.clauses:
        return True

    alive: set[Clause] = set()
    seen: set[Clause] = set()  # every resolvent of width <= k generated so far
    index: dict[int, list[Clause]] = {}

    def add(c: Clause) -> bool:
        if any(frozenset(sub) in alive
               for r in range(len(c) + 1) for sub in combinations(c, r)):
            return False  # forward-subsumed
        # every strict superset of c contains each literal of c, so the
        # shortest index list of c's literals holds them all
        for d in min((index.get(lit, ()) for lit in c), key=len):
            if d in alive and c < d:
                alive.discard(d)  # lazily dead in the index
        alive.add(c)
        for lit in c:
            index.setdefault(lit, []).append(c)
        return True

    # schedule small clauses first: units subsume aggressively, which keeps
    # the working set (and the partner lists) short
    heap: list = []
    tick = count()
    for c in sorted(f.clauses, key=lambda c: (len(c), sorted(c))):
        if len(c) <= k and add(c):
            heappush(heap, (len(c), next(tick), c))

    while heap:
        _, _, c = heappop(heap)
        if c not in alive:
            continue
        for lit in c:
            partners = index.get(-lit)
            if not partners:
                continue
            c_rest = c - {lit}
            for i in range(len(partners)):
                d = partners[i]
                if d not in alive:
                    continue
                resolvent = c_rest | (d - {-lit})
                if len(resolvent) > k or resolvent in seen:
                    continue
                seen.add(resolvent)
                if any(-x in resolvent for x in resolvent):
                    continue
                if not resolvent:
                    return True
                if add(resolvent):
                    heappush(heap, (len(resolvent), next(tick), resolvent))
            if c not in alive:
                break  # c got back-subsumed by one of its own resolvents
    return False


def two_sat_oracle(f: CnfFormula) -> bool:
    """Satisfiability of a 2-CNF via strong connectivity of the implication graph.

    A clause a ∨ b gives the edges ¬a → b and ¬b → a (a unit a is a ∨ a),
    and the formula is satisfiable iff no x shares a component with ¬x.
    Kosaraju's two iterative passes find the components in linear time: a
    depth-first search over the successors records when literals finish,
    and a walk over the predecessors, latest finisher first, labels them.
    """
    for c in f.clauses:
        if len(c) > 2:
            raise UsageError(f"clause {sorted(c)} has width > 2")
    if frozenset() in f.clauses:
        return False

    succ: dict[int, list[int]] = {}
    pred: dict[int, list[int]] = {}
    for c in f.clauses:
        a, b = min(c), max(c)
        for u, v in ((-a, b), (-b, a)):
            succ.setdefault(u, []).append(v)
            pred.setdefault(v, []).append(u)

    finished: list[int] = []
    seen: set[int] = set()
    for root in succ:  # every other node is the successor of one of these
        if root not in seen:
            seen.add(root)
            stack = [(root, iter(succ[root]))]
            while stack:
                v, it = stack[-1]
                for w in it:
                    if w not in seen:
                        seen.add(w)
                        stack.append((w, iter(succ.get(w, ()))))
                        break
                else:  # every successor of v is seen: v finishes
                    stack.pop()
                    finished.append(v)

    comp: dict[int, int] = {}
    for root in reversed(finished):
        todo = [root]
        while todo:
            v = todo.pop()
            if v not in comp:
                comp[v] = root
                todo.extend(pred.get(v, ()))
    # a clause with literal l makes both l and ¬l nodes
    return all(comp[x] != comp[-x] for x in comp)


def _dimacs_int(tok: str, line: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise UsageError(f"bad DIMACS token {tok!r} in line {line!r}") from None


def read_dimacs(text: str) -> CnfFormula:
    """Parse the standard `p cnf <vars> <clauses>` format.

    A line that is exactly `%` ends the formula, as in the SATLIB
    benchmark files, which put `%` and `0` after the last clause.
    """
    num_vars = None
    clauses = []
    current: list[int] = []
    for line in text.splitlines():
        line = line.strip()
        if line == "%":
            break
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise UsageError(f"bad DIMACS header: {line!r}")
            if num_vars is not None:
                raise UsageError(f"second DIMACS header: {line!r}")
            num_vars = _dimacs_int(parts[2], line)
            continue
        for tok in line.split():
            lit = _dimacs_int(tok, line)
            if lit == 0:
                clauses.append(current)
                current = []
            else:
                current.append(lit)
    if current:
        clauses.append(current)
    if num_vars is None:
        num_vars = max((abs(l) for c in clauses for l in c), default=0)
    return CnfFormula(num_vars, clauses)


def write_dimacs(f: CnfFormula) -> str:
    lines = [f"p cnf {f.num_vars} {len(f.clauses)}"]
    for c in sorted(f.clauses, key=lambda c: sorted(c)):
        lines.append(" ".join(str(l) for l in sorted(c, key=abs)) + " 0")
    return "\n".join(lines) + "\n"
