"""Weisfeiler-Leman refinement on colored multi-relation graphs.

dim-tuple refinement with a shared color palette across the two input
graphs; `dim` counts tuple arity, so dim-1 is classic color refinement.
A tuple's first color is its atomic type. Between rounds each graph keeps
its n^dim colors and one n x n pair-code table. At dim 1 a round reads the
pair codes and sorts one triple per vertex w; at dim >= 2 it reads only
the colors, builds dim scaled copies of the color list, and sorts one
integer per substituted vertex w, the substituted colors read as the
digits of one number.
The correspondence with counting logic carries the usual offset of one
variable; the experiment harness calibrates that constant empirically
instead of hard-coding it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial, reduce
from itertools import product
from operator import add
from typing import Optional

from .errors import UsageError, malformed_input


@dataclass(frozen=True)
class ColoredGraph:
    n: int
    colors: tuple          # initial color per vertex
    relations: dict        # name -> frozenset of ordered pairs

    def __init__(self, n: int, colors=None, relations=None):
        if type(n) is not int or n < 0:
            raise UsageError(f"vertex count must be a non-negative integer, got {n!r}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "colors", tuple(colors) if colors is not None else (0,) * n)
        if len(self.colors) != n:
            raise UsageError("colors must assign every vertex")
        if any(type(c) is not int for c in self.colors):
            raise UsageError("colors must be integers")
        rels = {}
        for name, pairs in (relations or {}).items():
            pairs = frozenset(tuple(p) for p in pairs)
            for (u, v) in pairs:
                if not (type(u) is int and type(v) is int and 0 <= u < n and 0 <= v < n):
                    raise UsageError(f"relation {name} mentions a vertex that is not "
                                     f"an integer in range(0, {n})")
            rels[name] = pairs
        object.__setattr__(self, "relations", rels)


def parse_colored_graph(text: str) -> ColoredGraph:
    """The graph text format: a line `n m`, then exactly m edge lines `u v`,
    and at most one `colors c0 c1 ...` line; `#` starts a comment line.
    The edge list becomes a single symmetric relation E."""
    with malformed_input("graph text"):
        lines = [ln.strip() for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
        n, m = map(int, lines[0].split())
        pairs = set()
        colors = None
        edge_lines = 0
        for ln in lines[1:]:
            if ln.startswith("colors"):
                if colors is not None:
                    raise UsageError("graph text has more than one colors line")
                colors = tuple(int(c) for c in ln.split()[1:])
                continue
            u, v = map(int, ln.split())
            pairs.add((u, v))
            pairs.add((v, u))
            edge_lines += 1
        if edge_lines != m:
            raise UsageError(f"graph text declares {m} edges but lists {edge_lines}")
        return ColoredGraph(n, colors, {"E": frozenset(pairs)})


def _pair_codes(x: ColoredGraph, names: list) -> list:
    """code[u][v] has bit 0 set iff u == v and bit i+1 iff (u, v) is in the
    relation names[i]; absent names count as empty relations."""
    code = [[int(u == v) for v in range(x.n)] for u in range(x.n)]
    for i, name in enumerate(names):
        for (u, v) in x.relations.get(name, ()):
            code[u][v] |= 2 << i
    return code


def _recolor(sigs_g: list, sigs_h: list) -> tuple:
    """Number the sorted union of both graphs' signatures; return each
    graph's color list and the joint number of colors."""
    palette = {sig: c for c, sig in enumerate(sorted(set(sigs_g).union(sigs_h)))}
    return [palette[s] for s in sigs_g], [palette[s] for s in sigs_h], len(palette)


def wl_distinguishes(g: ColoredGraph, h: ColoredGraph, dim: int = 1) -> bool:
    """Joint dim-tuple color refinement; True iff the stable histograms differ.

    Tuples of each graph are refined in lockstep against a shared palette:
    a tuple's signature is its color and the multiset, over all vertices w
    of its own graph, of the colors of the tuples with w substituted at
    each position. Tuple i is the i-th tuple of product(range(n),
    repeat=dim), so the tuples with w substituted at position j are a
    strided slice of the color list.

    The textbook signature also counts, per w, the pattern of w against
    the tuple: code[t_i][w] and code[w][t_i] for each position i. For
    dim >= 2 the substituted colors already hold it. Take j != i: the
    atomic type of t[w/j] records code[t_i][w] and code[w][t_i], and when
    w = t_i that includes w's loop bits. Every coloring refines the atomic
    types under the shared palette, so the pattern is a function of the
    substituted colors, and both signatures split both graphs' tuples the
    same way in every round: the same verdicts after as many rounds. For
    dim = 1 the substituted color is w's own, so the pattern is added.

    For dim >= 2 the multiset holds one integer per w, not a tuple of
    colors: with every color in range(ncol), ncol the joint number of
    colors when the round starts, the colors (c_0, ..., c_{dim-1}) of
    t[w/0], ..., t[w/dim-1] become sum c_j * ncol^(dim-1-j). That is
    reading them as the digits of a base-ncol number, a bijection from
    color vectors onto range(ncol^dim) that orders integers as
    lexicographic order orders the vectors. So two tuples get equal keys
    exactly when they have equal multisets of color tuples, the keys are
    numbered in the same first-seen order, and `_recolor` builds the same
    palette: every round's colors are those that tuple keys give. Sorting
    integers is the gain: CPython compares ints below 2^30 on a fast path,
    which holds at dim 2 while ncol < 32,768; past that the keys stay
    exact, and only the sort is slower.
    """
    if dim < 1:
        raise UsageError("dimension must be >= 1")
    if g.n != h.n:
        return True
    n = g.n
    names = sorted(set(g.relations) | set(h.relations))
    strides = [n ** (dim - 1 - j) for j in range(dim)]
    offdiag = [(a, b) for a in range(dim) for b in range(dim) if a != b]

    def atoms(x: ColoredGraph, code: list) -> list:
        return [tuple(x.colors[v] for v in t) + tuple(code[t[a]][t[b]] for a, b in offdiag)
                for t in product(range(n), repeat=dim)]

    def signatures(col: list, code: list, multisets: dict, ncol: int) -> list:
        """(own color, id of the multiset around the tuple) per tuple; the
        ids come from `multisets`, which both graphs share in a round, and
        every color lies in range(ncol)."""
        if dim == 1:  # w's own color says nothing about u and w: add their pair codes
            keys = (zip(row, column, col) for row, column in zip(code, zip(*code)))
        else:
            scaled = [[c * ncol ** (dim - 1 - j) for c in col] for j in range(dim)]
            keys = (reduce(partial(map, add), (x[i - v * s:i + (n - v) * s:s]
                                               for x, v, s in zip(scaled, t, strides)))
                    for i, t in enumerate(product(range(n), repeat=dim)))
        return [(c, multisets.setdefault(tuple(sorted(key)), len(multisets)))
                for c, key in zip(col, keys)]

    code_g, code_h = _pair_codes(g, names), _pair_codes(h, names)
    col_g, col_h, count = _recolor(atoms(g, code_g), atoms(h, code_h))
    while sorted(col_g) == sorted(col_h):
        multisets: dict = {}
        col_g, col_h, new = _recolor(signatures(col_g, code_g, multisets, count),
                                     signatures(col_h, code_h, multisets, count))
        if new == count:
            # a signature holds the tuple's own color, so refinement only
            # splits classes; an unchanged count means nothing split and the
            # histograms are the ones just found equal
            return False
        count = new
    return True  # refinement only splits classes, so this is final


def wl_sweep(g: ColoredGraph, h: ColoredGraph, dim_max: int) -> Optional[int]:
    """Smallest dimension <= dim_max that distinguishes, else None."""
    if dim_max < 1:
        raise UsageError("dim_max must be >= 1")
    for dim in range(1, dim_max + 1):
        if wl_distinguishes(g, h, dim):
            return dim
    return None
