"""Answers the benchmark computes on its own, to check prooflab's verdicts.

Nothing here calls prooflab: each function works on plain tuples, sets
and dicts taken from the inputs.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations, permutations


def divisible_monomial_counts(num_vars: int, generators, k: int) -> list:
    """out[d] = number of monomials of degree <= d (d = 0..k) over the
    variables 1..num_vars that contain some generator as a subset."""
    gens = {frozenset(g) for g in generators}
    per_degree = [0] * (k + 1)
    for d in range(k + 1):
        for m in combinations(range(1, num_vars + 1), d):
            if any(frozenset(sub) in gens for r in range(1, d + 1)
                   for sub in combinations(m, r)):
                per_degree[d] += 1
    out, total = [], 0
    for d in range(k + 1):
        total += per_degree[d]
        out.append(total)
    return out


def multilinear_lift(m: tuple, terms: dict, p) -> dict:
    """m times the polynomial `terms` with x^2 = x, coefficients mod p
    unless p is None."""
    out: dict = {}
    for t, c in terms.items():
        mt = tuple(sorted(set(m) | set(t)))
        out[mt] = out.get(mt, 0) + c
    if p is not None:
        out = {t: c % p for t, c in out.items()}
    return {t: c for t, c in out.items() if c}


def distances(n: int, edges, s: int) -> dict:
    """Breadth-first distance from s of every vertex reachable along
    directed edges."""
    succ = {v: [] for v in range(n)}
    for u, v in edges:
        succ[u].append(v)
    dist = {s: 0}
    queue = deque([s])
    while queue:
        u = queue.popleft()
        for v in succ[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def bipartite(n: int, edges) -> bool:
    """Two-colourability of an undirected graph by breadth-first colouring."""
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    side: dict = {}
    for root in range(n):
        if root in side:
            continue
        side[root] = 0
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if v not in side:
                    side[v] = 1 - side[u]
                    queue.append(v)
                elif side[v] == side[u]:
                    return False
    return True


def threshold_winners(n: int, edges, theta) -> set:
    """Nodes where Player 0 wins an acyclic threshold game: those with at
    least theta(v) winning successors, settled from the sinks back."""
    succ = {v: [] for v in range(n)}
    for u, v in edges:
        succ[u].append(v)
    wins: dict = {}

    def settle(v):
        if v not in wins:
            wins[v] = sum(1 for w in succ[v] if settle(w)) >= theta[v]
        return wins[v]

    for v in range(n):
        settle(v)
    return {v for v in range(n) if wins[v]}


def colored_isomorphic(n_g: int, colors_g, rels_g: dict,
                       n_h: int, colors_h, rels_h: dict) -> bool:
    """Colour- and relation-respecting isomorphism by trying every
    permutation (small graphs only)."""
    if n_g != n_h or sorted(colors_g) != sorted(colors_h):
        return False
    names = set(rels_g) | set(rels_h)
    for perm in permutations(range(n_g)):
        if any(colors_g[v] != colors_h[perm[v]] for v in range(n_g)):
            continue
        if all({(perm[u], perm[v]) for u, v in rels_g.get(r, ())} == set(rels_h.get(r, ()))
               for r in names):
            return True
    return False


def colour_refinement_splits(n: int, colors_g, edges_g, colors_h, edges_h) -> bool:
    """Colour refinement run on the disjoint union of two graphs on n
    vertices each: True iff the stable colour histograms of the two differ.
    A vertex's new colour is its colour with the multiset of its
    out-neighbours' colours and that of its in-neighbours' colours."""
    out = [[] for _ in range(2 * n)]
    into = [[] for _ in range(2 * n)]
    for shift, edges in ((0, edges_g), (n, edges_h)):
        for u, v in edges:
            out[u + shift].append(v + shift)
            into[v + shift].append(u + shift)
    colour = list(colors_g) + list(colors_h)
    while True:
        sigs = [(colour[v], tuple(sorted(colour[w] for w in out[v])),
                 tuple(sorted(colour[w] for w in into[v]))) for v in range(2 * n)]
        names = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        refined = [names[sig] for sig in sigs]
        stable = len(names) == len(set(colour))
        colour = refined
        if stable:
            return sorted(colour[:n]) != sorted(colour[n:])


def cfi_load_sum(universe: list, tuples, p: int) -> int:
    """The total load of a CFI structure read off its ternary relation:
    at each base vertex the coordinates of any of its tuples sum to the
    vertex's load.  universe[i] is ((u, w), x) for an element of edge class
    (u, w)."""
    load: dict = {}
    for tup in tuples:
        v = universe[tup[0]][0][0]
        load.setdefault(v, sum(universe[i][1] for i in tup) % p)
    return sum(load.values()) % p


def rook_graph_edges() -> set:
    """The 4x4 rook's graph: cells of a 4x4 board, adjacent when they share
    a row or a column."""
    cells = [(r, c) for r in range(4) for c in range(4)]
    return {(i, j) for i, a in enumerate(cells) for j, b in enumerate(cells)
            if i != j and (a[0] == b[0] or a[1] == b[1])}


def shrikhande_edges() -> set:
    """The Shrikhande graph: Z4 x Z4, adjacent when the difference is one of
    +-(0,1), +-(1,0), +-(1,1)."""
    cells = [(r, c) for r in range(4) for c in range(4)]
    steps = {(0, 1), (0, 3), (1, 0), (3, 0), (1, 1), (3, 3)}
    return {(i, j) for i, a in enumerate(cells) for j, b in enumerate(cells)
            if ((b[0] - a[0]) % 4, (b[1] - a[1]) % 4) in steps}


def strongly_regular_parameters(n: int, edges) -> tuple | None:
    """(n, k, lambda, mu) if the graph is strongly regular, else None."""
    adj = {v: {w for u, w in edges if u == v} for v in range(n)}
    degrees = {len(a) for a in adj.values()}
    if len(degrees) != 1:
        return None
    lam = {len(adj[u] & adj[v]) for u in range(n) for v in adj[u]}
    mu = {len(adj[u] & adj[v]) for u in range(n) for v in range(n)
          if v != u and v not in adj[u]}
    if len(lam) != 1 or len(mu) > 1:
        return None
    return (n, degrees.pop(), lam.pop(), mu.pop() if mu else 0)


def clique_number(n: int, edges) -> int:
    adj = {v: {w for u, w in edges if u == v} for v in range(n)}
    best = 0

    def grow(clique: list, cands: set):
        nonlocal best
        best = max(best, len(clique))
        for v in sorted(cands):
            grow(clique + [v], {w for w in cands & adj[v] if w > v})

    grow([], set(range(n)))
    return best
