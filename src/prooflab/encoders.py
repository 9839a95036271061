"""Problem encoders: reachability CNF, isomorphism CNF/polynomials, and
CSP k-consistency (direct algorithm and its dual-Horn CNF).
"""

from __future__ import annotations

from itertools import product


from .algebra import Field, RATIONALS
from .errors import UsageError
from .logic import RelStructure
from .pc import Polynomial, PolySystem
from .resolution import CnfFormula
from .wl import ColoredGraph


def encode_nonreach(n: int, edges, s: int, t: int) -> CnfFormula:
    """Horn CNF that is unsatisfiable iff t is reachable from s.

    One implication clause per directed edge plus the units asserting s and
    refuting t; width <= 2 throughout.
    """
    if not (0 <= s < n and 0 <= t < n):
        raise UsageError("s and t must be vertices")
    var = lambda v: v + 1
    clauses = [[-var(u), var(w)] for (u, w) in sorted(set(map(tuple, edges)))]
    clauses.append([var(s)])
    clauses.append([-var(t)])
    return CnfFormula(n, clauses)


def _conflict(rel_pairs: list, v1: int, w1: int, v2: int, w2: int) -> bool:
    """Do the assignments v1 -> w1 and v2 -> w2 fail to form a partial
    isomorphism?  rel_pairs pairs each relation's tuple set in the first
    graph with the same relation's set in the second.  Both orientations
    are compared, as a relation need not be symmetric."""
    if (v1 == v2) != (w1 == w2):
        return True
    fwd_g, fwd_h, rev_g, rev_h = (v1, v2), (w1, w2), (v2, v1), (w2, w1)
    for rel_g, rel_h in rel_pairs:
        if (fwd_g in rel_g) != (fwd_h in rel_h) or (rev_g in rel_g) != (rev_h in rel_h):
            return True
    return False


def _sym_edges(n: int, edges) -> frozenset:
    out = set()
    for (u, v) in edges:
        if not (type(u) is int and type(v) is int and 0 <= u < n and 0 <= v < n):
            raise UsageError(f"edge {(u, v)} mentions a vertex that is not an integer "
                             f"in range(0, {n})")
        out.add((u, v))
        out.add((v, u))
    return frozenset(out)


def _iso_cells(classes: list, rel_pairs: list) -> tuple:
    """The cells X[v -> w] of an isomorphism encoding and its conflicts.

    classes pairs each color class of the first graph with the matching
    class of the second; a cell joins a vertex to a vertex of the matching
    class.  Cells are numbered from 1 class by class, so one class gives
    v * n_h + w + 1.  Returns the number of cells, the exactly-one lines
    (the cells of each v, then of each w, class by class), and one sorted
    tuple of cell ids per pair of cells that `_conflict` rejects, in the
    order of the sorted cells; a cell that conflicts with itself (a loop at
    v but not at w) gives a single id."""
    var = {}
    for cls_g, cls_h in classes:
        for v in cls_g:
            for w in cls_h:
                var[(v, w)] = len(var) + 1
    lines = []
    for cls_g, cls_h in classes:
        lines += [[var[(v, w)] for w in cls_h] for v in cls_g]
        lines += [[var[(v, w)] for v in cls_g] for w in cls_h]
    cells = sorted(var)
    conflicts = []
    for i, (v1, w1) in enumerate(cells):
        for (v2, w2) in cells[i:]:
            if _conflict(rel_pairs, v1, w1, v2, w2):
                conflicts.append(tuple(sorted({var[(v1, w1)], var[(v2, w2)]})))
    return len(var), lines, conflicts


def _iso_system(classes: list, rel_pairs: list, field: Field) -> PolySystem:
    """The images of every v sum to one, the preimages of every w sum to
    one, and a product axiom kills every conflicting pair of cells."""
    num_vars, lines, conflicts = _iso_cells(classes, rel_pairs)
    axioms = [Polynomial(field, [((x,), 1) for x in line] + [((), -1)]) for line in lines]
    axioms += [Polynomial(field, [(mono, 1)]) for mono in conflicts]
    return PolySystem(field, num_vars, _dedup(axioms))


def encode_iso_cnf(n_g: int, g_edges, n_h: int, h_edges) -> CnfFormula:
    """The classic isomorphism CNF: totality and surjectivity clauses over
    X[v -> w], plus a unit or binary clause for every conflict of the
    polynomial system `encode_iso_poly` writes.  Satisfiable iff the graphs
    are isomorphic."""
    rel_pairs = [(_sym_edges(n_g, g_edges), _sym_edges(n_h, h_edges))]
    num_vars, lines, conflicts = _iso_cells([(range(n_g), range(n_h))], rel_pairs)
    # a line is empty iff the other graph has no vertices
    clauses = lines + [[-x for x in mono] for mono in conflicts]
    return CnfFormula(max(num_vars, 1), clauses)


def encode_iso_poly(n_g: int, g_edges, n_h: int, h_edges,
                    field: Field = RATIONALS) -> PolySystem:
    """Isomorphism polynomial system of two uncolored graphs: the single
    color class case of `encode_iso_poly_colored`.  {0,1}-solvable iff the
    graphs are isomorphic."""
    rel_pairs = [(_sym_edges(n_g, g_edges), _sym_edges(n_h, h_edges))]
    return _iso_system([(range(n_g), range(n_h))], rel_pairs, field)


def _dedup(axioms: list) -> list:
    seen = set()
    out = []
    for p in axioms:
        key = frozenset(p.terms.items())
        if key not in seen:
            seen.add(key)
            out.append(p)
    return out


def _classes(g: ColoredGraph) -> dict:
    by_color: dict = {}
    for v, c in enumerate(g.colors):
        by_color.setdefault(c, []).append(v)
    return by_color


def encode_iso_poly_colored(g: ColoredGraph, h: ColoredGraph,
                            field: Field = RATIONALS) -> PolySystem:
    """Color-respecting isomorphism system: X[v -> w] exists only for v, w
    in matching color classes, cutting the variable count to the sum of
    class-size products, and X[v -> w] X[v' -> w'] = 0 for every two cells
    that do not form a partial isomorphism of every relation.  Two graphs
    with vertices whose color sets differ are a usage error; classes of
    different sizes, as a graph without vertices has against any other,
    give an unsatisfiable system."""
    cg, ch = _classes(g), _classes(h)
    if g.n and h.n and cg.keys() != ch.keys():
        raise UsageError("the two graphs' color sets differ")
    rel_pairs = [(g.relations.get(r, frozenset()), h.relations.get(r, frozenset()))
                 for r in sorted(set(g.relations) | set(h.relations))]
    classes = [(cg.get(c, ()), ch.get(c, ())) for c in sorted(cg.keys() | ch.keys())]
    return _iso_system(classes, rel_pairs, field)


# --- CSP k-consistency ------------------------------------------------------

def _partial_homs(a: RelStructure, t: RelStructure, k: int) -> list:
    """All partial homomorphisms with domain size <= k, as sorted item tuples."""
    if set(a.relations) != set(t.relations) or any(
            a.relations[r][0] != t.relations[r][0] for r in a.relations):
        raise UsageError("instance and template must share a vocabulary")
    out = [()]

    def consistent(pmap: dict) -> bool:
        dom = set(pmap)
        for r, (arity, tuples) in a.relations.items():
            t_tuples = t.relations[r][1]
            for tup in tuples:
                if all(e in dom for e in tup):
                    if tuple(pmap[e] for e in tup) not in t_tuples:
                        return False
        return True

    # an explicit stack of (map, least element it may still add): a
    # recursive closure would hold these tables in a reference cycle
    stack = [({}, 0)]
    while stack:
        pmap, frontier = stack.pop()
        for e in range(frontier, a.universe_size):
            for val in range(t.universe_size):
                q = dict(pmap)
                q[e] = val
                if consistent(q):
                    out.append(tuple(sorted(q.items())))
                    if len(q) < k:
                        stack.append((q, e + 1))
    return sorted(set(out), key=lambda p: (len(p), p))


def _domains(universe: list, dom: tuple, k: int):
    """The admissible domains above dom: dom plus one new element, while
    that stays within size k."""
    if len(dom) < k:
        for e in universe:
            if e not in dom:
                yield tuple(sorted(set(dom) | {e}))


def _kconsistency_rules(a: RelStructure, t: RelStructure, k: int) -> list:
    """The k-consistency rule table: (p, extensions, restrictions) for every
    partial homomorphism p with domain size <= k.

    extensions holds one set per admissible domain S above dom(p): the maps
    on S that extend p.  restrictions holds p minus each element.  The
    k-consistency fixed point keeps p while every extension set keeps a map
    and every restriction is kept.  The admissible domains add one new
    element to dom(p): ranging over all supersets of size <= k gives the
    same fixed point, as one-element extensions reach each of them one step
    at a time."""
    if k < 1:
        raise UsageError("k must be >= 1")
    homs = _partial_homs(a, t, k)
    universe = list(range(a.universe_size))
    by_domain: dict = {}
    for p in homs:
        by_domain.setdefault(tuple(x for (x, _) in p), []).append(p)
    rules = []
    for p in homs:
        dom = tuple(x for (x, _) in p)
        items = set(p)
        extensions = [[q for q in by_domain.get(S, ()) if items.issubset(q)]
                      for S in _domains(universe, dom, k)]
        restrictions = [p[:i] + p[i + 1:] for i in range(len(p))]
        rules.append((p, extensions, restrictions))
    return rules


def k_consistency(a: RelStructure, t: RelStructure, k: int) -> bool:
    """k-consistency test: False certifies that no homomorphism a -> t
    exists; True is inconclusive in general.

    Computes the greatest fixed point of the rule table directly, by
    removing maps that break a rule until none does."""
    rules = _kconsistency_rules(a, t, k)
    alive = {p for (p, _, _) in rules}
    changed = True
    while changed:
        changed = False
        for p, extensions, restrictions in rules:
            if p in alive and not (all(any(q in alive for q in ext) for ext in extensions)
                                   and all(r in alive for r in restrictions)):
                alive.discard(p)
                changed = True
    return bool(alive)


def encode_kconsistency_cnf(a: RelStructure, t: RelStructure, k: int) -> CnfFormula:
    """Dual-Horn CNF whose refutability matches the k-consistency verdict.

    Variables stand for partial homomorphisms; clauses demand an extension
    for every admissible superset domain and the survival of restrictions,
    with the positive unit asserting the empty map.
    """
    rules = _kconsistency_rules(a, t, k)
    var = {p: i + 1 for i, (p, _, _) in enumerate(rules)}
    clauses = []
    for p, extensions, restrictions in rules:
        clauses.extend([-var[p]] + [var[q] for q in ext] for ext in extensions)
        clauses.extend([-var[p], var[r]] for r in restrictions)
    clauses.append([var[()]])
    return CnfFormula(len(rules), clauses)


def brute_force_homomorphism(a: RelStructure, t: RelStructure) -> bool:
    """Total homomorphism existence by exhausting all mappings."""
    if a.universe_size == 0:
        return True
    for m in product(range(t.universe_size), repeat=a.universe_size):
        if all(tuple(m[e] for e in tup) in t.relations[r][1]
               for r, (_, tups) in a.relations.items() for tup in tups):
            return True
    return False


def cycle_structure(n: int) -> RelStructure:
    """The undirected n-cycle as a structure with a symmetric edge relation."""
    pairs = set()
    for i in range(n):
        pairs.add((i, (i + 1) % n))
        pairs.add(((i + 1) % n, i))
    return RelStructure(n, {"E": (2, frozenset(pairs))})


def clique_structure(n: int) -> RelStructure:
    pairs = {(i, j) for i in range(n) for j in range(n) if i != j}
    return RelStructure(n, {"E": (2, frozenset(pairs))})
