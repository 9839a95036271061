"""Cai-Fuerer-Immerman structures over ordered 3-regular base graphs.

A structure CFI[G; p; lam] lives on the universe (directed edges of G) x F_p
and carries a preorder by edge class, a directed p-cycle per class, the
inverse pairing between dual edge classes, and per-vertex ternary tuples
whose coordinates sum to lam(v).  The isomorphism class is the total load
sum lam mod p, and the automorphisms are the edge shift vectors solving the
inverse and vertex-sum constraints over F_p.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import NamedTuple

from .algebra import Field, Matrix, Vector, gauss_solve, is_prime
from .errors import UsageError
from .logic import RelStructure
from .wl import ColoredGraph, parse_colored_graph


@dataclass(frozen=True)
class CfiBase:
    """Connected 3-regular graph; vertex order is the id order."""

    n: int
    edges: frozenset  # undirected: frozenset of frozenset({u, v})

    def __init__(self, n: int, edges):
        und = frozenset(frozenset(e) for e in edges)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", und)
        deg = {v: 0 for v in range(n)}
        for e in und:
            # a loop {u, u} is a one-element set
            if len(e) != 2 or not all(type(x) is int and 0 <= x < n for x in e):
                raise UsageError(f"bad edge {tuple(e)}")
            u, v = sorted(e)
            deg[u] += 1
            deg[v] += 1
        bad = [v for v, d in deg.items() if d != 3]
        if bad:
            raise UsageError(f"base graph must be 3-regular; offending vertices {bad}")
        seen = {0} if n else set()
        stack = [0] if n else []
        adj = {v: [] for v in range(n)}
        for e in und:
            u, v = sorted(e)
            adj[u].append(v)
            adj[v].append(u)
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != n:
            raise UsageError("base graph must be connected")

    def directed_edges(self) -> list:
        """All ordered pairs, sorted by the order inherited from vertex ids."""
        out = []
        for e in self.edges:
            u, v = sorted(e)
            out.append((u, v))
            out.append((v, u))
        return sorted(out)

    def neighbors(self, v: int) -> list:
        return sorted(w for e in self.edges if v in e for w in e if w != v)


# the shipped ordered 3-regular base library
K4 = CfiBase(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
PRISM = CfiBase(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)])
CUBE = CfiBase(8, [(0, 1), (1, 2), (2, 3), (0, 3), (4, 5), (5, 6), (6, 7), (4, 7),
                   (0, 4), (1, 5), (2, 6), (3, 7)])
PETERSEN = CfiBase(10, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4),
                        (5, 7), (7, 9), (6, 9), (6, 8), (5, 8),
                        (0, 5), (1, 6), (2, 7), (3, 8), (4, 9)])
BASE_LIBRARY = {"k4": K4, "prism": PRISM, "cube": CUBE, "petersen": PETERSEN}


def parse_base_graph(text: str) -> CfiBase:
    """The graph text format of `parse_colored_graph`, without colors."""
    g = parse_colored_graph(text)
    if len(set(g.colors)) > 1:
        raise UsageError("a base graph has no colors")
    return CfiBase(g.n, g.relations["E"])


def format_base_graph(base: CfiBase) -> str:
    und = sorted(tuple(sorted(e)) for e in base.edges)
    return "\n".join([f"{base.n} {len(und)}"] + [f"{u} {v}" for u, v in und]) + "\n"


@dataclass
class CfiStructure:
    base: CfiBase
    p: int
    lam: tuple  # load vector over F_p, indexed by base vertices

    # derived, filled by build_cfi
    universe: list = None        # (directed edge, x) in canonical order
    elem_id: dict = None         # (edge, x) -> position in universe
    cycle: frozenset = None      # C relation as id pairs
    inverse: frozenset = None    # I relation as id pairs
    cfi_tuples: frozenset = None  # R relation as id triples

    def edge_classes(self) -> list:
        return self.base.directed_edges()

    def total_load(self) -> int:
        return sum(self.lam) % self.p


def build_cfi(base: CfiBase, p: int, lam) -> CfiStructure:
    """Materialise CFI[base; p; lam] with all four relations."""
    if not is_prime(p):
        raise UsageError(f"{p} is not prime")
    lam = tuple(int(x) % p for x in lam)
    if len(lam) != base.n:
        raise UsageError("load vector must be indexed by base vertices")
    s = CfiStructure(base, p, lam)
    edges = base.directed_edges()
    s.universe = [(e, x) for e in edges for x in range(p)]
    s.elem_id = {el: i for i, el in enumerate(s.universe)}
    cyc = set()
    inv = set()
    for e in edges:
        rev = (e[1], e[0])
        for x in range(p):
            cyc.add((s.elem_id[(e, x)], s.elem_id[(e, (x + 1) % p)]))
            inv.add((s.elem_id[(e, x)], s.elem_id[(rev, (-x) % p)]))
    tuples = set()
    for v in range(base.n):
        w1, w2, w3 = base.neighbors(v)
        for x1, x2 in product(range(p), repeat=2):
            x3 = (lam[v] - x1 - x2) % p
            tuples.add((s.elem_id[((v, w1), x1)],
                        s.elem_id[((v, w2), x2)],
                        s.elem_id[((v, w3), x3)]))
    s.cycle = frozenset(cyc)
    s.inverse = frozenset(inv)
    s.cfi_tuples = frozenset(tuples)
    return s


class AutSpace(NamedTuple):
    p: int
    edges: list    # directed edge order for the coordinates
    basis: list    # vectors over F_p^edges spanning the (Inv)+(CFI) kernel

    @property
    def dimension(self) -> int:
        return len(self.basis)


def automorphism_space(base: CfiBase, p: int) -> AutSpace:
    """Kernel basis of the automorphism constraints over F_p.

    Constraints: pi(e) + pi(e^-1) = 0 for every directed edge, and the
    pi-values of the edges leaving any vertex sum to 0.
    """
    field = Field(p)
    edges = base.directed_edges()
    rows = []
    und = sorted(tuple(sorted(e)) for e in base.edges)
    for (u, v) in und:
        rows.append({(u, v): 1, (v, u): 1})
    for v in range(base.n):
        rows.append({(v, w): 1 for w in base.neighbors(v)})
    entries = {}
    for i, row in enumerate(rows):
        for e, c in row.items():
            entries[(i, e)] = field.coerce(c)
    M = Matrix(field, tuple(range(len(rows))), tuple(edges), entries)
    solved = gauss_solve(M, Vector(field, tuple(range(len(rows))), {}))
    assert solved is not None
    _, kernel = solved
    basis = [{e: vec.get(e) for e in edges if vec.get(e) != 0} for vec in kernel]
    return AutSpace(p, edges, basis)


def _check_inv(base: CfiBase, p: int, pi: dict):
    for e in base.directed_edges():
        rev = (e[1], e[0])
        if (pi.get(e, 0) + pi.get(rev, 0)) % p != 0:
            raise UsageError(f"shift vector violates the inverse constraint at {e}")


def apply_shift(s: CfiStructure, pi: dict) -> CfiStructure:
    """Shift the structure by an (Inv)-vector: the result is CFI[base; p; lam']
    with lam'(v) = lam(v) + sum of pi over the edges leaving v."""
    _check_inv(s.base, s.p, pi)
    lam2 = []
    for v in range(s.base.n):
        delta = sum(pi.get((v, w), 0) for w in s.base.neighbors(v))
        lam2.append((s.lam[v] + delta) % s.p)
    return build_cfi(s.base, s.p, lam2)


def shift_point_map(s: CfiStructure, pi: dict) -> dict:
    """The universe bijection (e, x) -> (e, x + pi(e)) induced by a shift."""
    _check_inv(s.base, s.p, pi)
    return {s.elem_id[(e, x)]: s.elem_id[(e, (x + pi.get(e, 0)) % s.p)]
            for (e, x) in s.universe}


def cfi_isomorphic(a: CfiStructure, b: CfiStructure) -> bool:
    """Isomorphism is decided by the load sums mod p."""
    if a.base.edges != b.base.edges or a.base.n != b.base.n or a.p != b.p:
        raise UsageError("structures must share base graph and prime")
    return a.total_load() == b.total_load()


def twisted_pair(base: CfiBase, p: int) -> tuple:
    """(CFI[base;p;0], CFI[base;p;e_v0]): same invariant relations,
    non-isomorphic by the load-sum criterion."""
    zero = [0] * base.n
    twisted = [0] * base.n
    twisted[0] = 1
    return build_cfi(base, p, zero), build_cfi(base, p, twisted)


def coordinate_orbits(s: CfiStructure, aut: AutSpace) -> list:
    """Partition of the universe into automorphism orbits.

    An edge class moved by some automorphism basis vector is a single
    orbit; classes outside every support split into singletons.
    """
    moved = set()
    for vec in aut.basis:
        moved.update(vec.keys())
    orbits = []
    for e in s.edge_classes():
        ids = [s.elem_id[(e, x)] for x in range(s.p)]
        if e in moved:
            orbits.append(tuple(ids))
        else:
            orbits.extend((i,) for i in ids)
    return orbits


def to_rel_structure(s: CfiStructure) -> RelStructure:
    """Encode as a relational structure (preorder, cycle, inverse, R)."""
    edges = s.edge_classes()
    rank = {e: i for i, e in enumerate(edges)}
    pre = set()
    for (e, x) in s.universe:
        for (f, y) in s.universe:
            if rank[e] <= rank[f]:
                pre.add((s.elem_id[(e, x)], s.elem_id[(f, y)]))
    return RelStructure(len(s.universe), {
        "pre": (2, frozenset(pre)),
        "C": (2, s.cycle),
        "I": (2, s.inverse),
        "R": (3, s.cfi_tuples),
    })


def structure_meta(s: CfiStructure) -> dict:
    return {"base_n": s.base.n, "p": s.p, "lam": list(s.lam),
            "universe": [[list(e), x] for (e, x) in s.universe]}


def to_graph(s: CfiStructure):
    """Colored multi-relation graph encoding.

    Vertices are the edge-class elements plus one inner node per CFI tuple;
    the adjacency relation joins inner nodes to their three coordinates.
    Edge elements are colored by their preorder class, inner nodes by their
    base vertex; the cycle and inverse relations come along as extra binary
    relations rather than as gadget paths.
    """
    edges = s.edge_classes()
    rank = {e: i for i, e in enumerate(edges)}
    n_edge_elems = len(s.universe)
    colors = [rank[e] for (e, x) in s.universe]
    adj = set()
    inner_color_base = len(edges)
    next_id = n_edge_elems
    for tup in sorted(s.cfi_tuples):
        v = s.universe[tup[0]][0][0]  # tuples group by their base vertex
        colors.append(inner_color_base + v)
        for coord in tup:
            adj.add((next_id, coord))
            adj.add((coord, next_id))
        next_id += 1
    return ColoredGraph(next_id, tuple(colors), {
        "A": frozenset(adj),
        "C": s.cycle,
        "I": s.inverse,
    })
