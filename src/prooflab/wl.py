"""Weisfeiler-Leman refinement on colored multi-relation graphs.

dim-tuple refinement with a shared color palette across the two input
graphs; `dim` counts tuple arity, so dim-1 is classic color refinement.
The correspondence with counting logic carries the usual offset of one
variable; the experiment harness calibrates that constant empirically
instead of hard-coding it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Optional

from .errors import UsageError, malformed_input


@dataclass(frozen=True)
class ColoredGraph:
    n: int
    colors: tuple          # initial color per vertex
    relations: dict        # name -> frozenset of ordered pairs

    def __init__(self, n: int, colors=None, relations=None):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "colors", tuple(colors) if colors is not None else (0,) * n)
        rels = {}
        for name, pairs in (relations or {}).items():
            pairs = frozenset(tuple(p) for p in pairs)
            for (u, v) in pairs:
                if not (0 <= u < n and 0 <= v < n):
                    raise UsageError(f"relation {name} mentions vertex outside range")
            rels[name] = pairs
        object.__setattr__(self, "relations", rels)
        if len(self.colors) != n:
            raise UsageError("colors must assign every vertex")


def parse_colored_graph(text: str) -> ColoredGraph:
    """Base-graph text format plus an optional `colors c0 c1 ...` line;
    the edge list becomes a single symmetric relation E."""
    with malformed_input("graph text"):
        lines = [ln.strip() for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
        n, m = map(int, lines[0].split())
        pairs = set()
        colors = None
        for ln in lines[1:]:
            if ln.startswith("colors"):
                colors = tuple(int(c) for c in ln.split()[1:])
                continue
            u, v = map(int, ln.split())
            pairs.add((u, v))
            pairs.add((v, u))
        return ColoredGraph(n, colors, {"E": frozenset(pairs)})


def _relation_names(g: ColoredGraph, h: ColoredGraph) -> list:
    return sorted(set(g.relations) | set(h.relations))


def _atom(g: ColoredGraph, rels: list, tup: tuple) -> tuple:
    """Ordered isomorphism type of a tuple: colors, equalities, relations."""
    cols = tuple(g.colors[v] for v in tup)
    pattern = []
    for i, u in enumerate(tup):
        for j, v in enumerate(tup):
            if i == j:
                continue
            bits = (u == v,) + tuple((u, v) in g.relations.get(r, ()) for r in rels)
            pattern.append(bits)
    return (cols, tuple(pattern))


def _ext_atom(g: ColoredGraph, rels: list, tup: tuple, w: int) -> tuple:
    """Relation/equality pattern between a fresh vertex and the tuple."""
    out = []
    for u in tup:
        out.append((u == w,)
                   + tuple((u, w) in g.relations.get(r, ()) for r in rels)
                   + tuple((w, u) in g.relations.get(r, ()) for r in rels))
    return tuple(out)


def wl_distinguishes(g: ColoredGraph, h: ColoredGraph, dim: int = 1) -> bool:
    """Joint dim-tuple color refinement; True iff the stable histograms differ.

    Tuples of each graph are refined in lockstep against a shared palette:
    a tuple's signature combines its color with the multiset, over all
    vertices w of its own graph, of the extension pattern of w against the
    tuple and the colors of the tuples with w substituted at each position.
    The extension patterns and substitution indices never change across
    rounds, so they are interned once and rounds are integer table work.
    """
    if dim < 1:
        raise UsageError("dimension must be >= 1")
    if g.n != h.n:
        return True
    rels = _relation_names(g, h)
    shared_ext: dict = {}

    def tables_shared(x: ColoredGraph):
        tuples = list(product(range(x.n), repeat=dim))
        index = {t: i for i, t in enumerate(tuples)}
        init = [_atom(x, rels, t) for t in tuples]
        subs = []
        for t in tuples:
            row = []
            for w in range(x.n):
                ext = _ext_atom(x, rels, t, w)
                code = shared_ext.setdefault(ext, len(shared_ext))
                row.append((code,) + tuple(index[t[:i] + (w,) + t[i + 1:]] for i in range(dim)))
            subs.append(row)
        return init, subs

    init_g, subs_g = tables_shared(g)
    init_h, subs_h = tables_shared(h)

    palette: dict = {}
    for sig in sorted(set(init_g) | set(init_h)):
        palette.setdefault(sig, len(palette))
    col_g = [palette[s] for s in init_g]
    col_h = [palette[s] for s in init_h]

    def histogram(col):
        out: dict = {}
        for c in col:
            out[c] = out.get(c, 0) + 1
        return out

    while True:
        if histogram(col_g) != histogram(col_h):
            return True  # refinement only splits classes, so this is final
        ncolors = len(set(col_g) | set(col_h))
        sigs = []
        for col, subs in ((col_g, subs_g), (col_h, subs_h)):
            new = []
            for ti, row in enumerate(subs):
                around = sorted((entry[0],) + tuple(col[j] for j in entry[1:]) for entry in row)
                new.append((col[ti], tuple(around)))
            sigs.append(new)
        palette = {}
        for sig in sorted(set(sigs[0]) | set(sigs[1])):
            palette.setdefault(sig, len(palette))
        col_g = [palette[s] for s in sigs[0]]
        col_h = [palette[s] for s in sigs[1]]
        newcolors = len(set(col_g) | set(col_h))
        if newcolors == ncolors:
            return histogram(col_g) != histogram(col_h)


def wl_sweep(g: ColoredGraph, h: ColoredGraph, dim_max: int) -> Optional[int]:
    """Smallest dimension <= dim_max that distinguishes, else None."""
    if dim_max < 1:
        raise UsageError("dim_max must be >= 1")
    for dim in range(1, dim_max + 1):
        if wl_distinguishes(g, h, dim):
            return dim
    return None
