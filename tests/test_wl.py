import importlib.util
import random
from itertools import product
from pathlib import Path

import pytest

from conftest import brute_colored_iso
from prooflab.cfi import BASE_LIBRARY, to_graph, twisted_pair
from prooflab.errors import UsageError
from prooflab.experiments import calibration_pairs
from prooflab import wl
from prooflab.wl import ColoredGraph, parse_colored_graph, wl_distinguishes, wl_sweep


def graph(n, edges, colors=None):
    sym = set()
    for (u, v) in edges:
        sym.add((u, v))
        sym.add((v, u))
    return ColoredGraph(n, colors, {"E": frozenset(sym)})


TRIANGLES = graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
C6 = graph(6, [(i, (i + 1) % 6) for i in range(6)])


def test_identical_graphs_never_distinguished():
    for dim in (1, 2, 3):
        assert not wl_distinguishes(TRIANGLES, TRIANGLES, dim)


def test_triangles_vs_c6_split_at_dim2():
    assert not wl_distinguishes(TRIANGLES, C6, 1)
    assert wl_distinguishes(TRIANGLES, C6, 2)
    assert wl_sweep(TRIANGLES, C6, 3) == 2


def test_sweep_absent_for_identical():
    assert wl_sweep(C6, C6, 3) is None


def test_dim_validation():
    with pytest.raises(UsageError):
        wl_distinguishes(C6, C6, 0)
    with pytest.raises(UsageError):
        wl_sweep(C6, C6, 0)


def test_size_mismatch_short_circuits():
    assert wl_distinguishes(graph(2, [(0, 1)]), graph(3, [(0, 1)]), 1)


def test_degree_profiles_split_at_dim1():
    star = graph(4, [(0, 1), (0, 2), (0, 3)])
    path = graph(4, [(0, 1), (1, 2), (2, 3)])
    assert wl_distinguishes(star, path, 1)


def test_colors_enter_the_refinement():
    a = graph(2, [(0, 1)], [0, 0])
    b = graph(2, [(0, 1)], [0, 1])
    assert wl_distinguishes(a, b, 1)


def test_relation_names_matter():
    a = ColoredGraph(2, None, {"E": {(0, 1), (1, 0)}})
    b = ColoredGraph(2, None, {"F": {(0, 1), (1, 0)}})
    assert wl_distinguishes(a, b, 1)


def test_monotone_in_dimension():
    rng = random.Random(51)
    for _ in range(20):
        n = rng.randint(2, 6)
        a = graph(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4])
        b = graph(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4])
        if wl_distinguishes(a, b, 1):
            assert wl_distinguishes(a, b, 2)
        if wl_distinguishes(a, b, 2):
            assert wl_distinguishes(a, b, 3)


def test_never_distinguishes_isomorphic_graphs():
    rng = random.Random(52)
    for _ in range(25):
        n = rng.randint(2, 7)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
        perm = list(range(n))
        rng.shuffle(perm)
        a = graph(n, edges)
        b = graph(n, [(perm[u], perm[v]) for (u, v) in edges])
        assert brute_colored_iso(a, b)
        for dim in (1, 2):
            assert not wl_distinguishes(a, b, dim)


def test_stable_under_relabeling_and_relation_reordering():
    a = ColoredGraph(3, (0, 0, 1), {"E": {(0, 1), (1, 0)}, "F": {(1, 2)}})
    b = ColoredGraph(3, (0, 1, 0), {"F": {(2, 1)}, "E": {(0, 2), (2, 0)}})
    # b is a relabeling (swap 1 and 2) with relations listed in another order
    for dim in (1, 2):
        assert not wl_distinguishes(a, b, dim)


def test_parse_colored_graph_text():
    g = parse_colored_graph("3 2\n0 1\n1 2\ncolors 0 1 0\n")
    assert g.n == 3
    assert g.colors == (0, 1, 0)
    assert (0, 1) in g.relations["E"] and (1, 0) in g.relations["E"]
    # every line counts: m edge lines exactly, and one colors line at most
    for text in ("3 2\n0 1\n", "3 2\n0 1\n1 2\n0 2\n",
                 "3 2\n0 1\n1 2\ncolors 0 1 0\ncolors 1 1 1\n"):
        with pytest.raises(UsageError):
            parse_colored_graph(text)


def test_non_integer_colors_and_vertices_rejected():
    for colors in ([0, "a"], [0, None], [[0], [1]], [0, 1.0], [0, True]):
        with pytest.raises(UsageError):
            ColoredGraph(2, colors, {})
    for pair in ((0.0, 1), (0, "1"), (False, 1)):
        with pytest.raises(UsageError):
            ColoredGraph(2, None, {"E": {pair}})
    with pytest.raises(UsageError):
        ColoredGraph(2.0, None, {})


def _reference_wl(g, h, dim, counts=None):
    """The refinement as first written: per-tuple frozenset membership
    tests for the atoms and extension patterns, a tuple-to-index dict for
    the substitutions and a final recount of the histograms. An oracle for
    the pair-code tables, strided substitutions and integer multiset keys
    of wl_distinguishes. A list passed as `counts` receives the joint
    number of colors of the atoms and after each round."""
    rels = sorted(set(g.relations) | set(h.relations))

    def atom(x, tup):
        cols = tuple(x.colors[v] for v in tup)
        pattern = []
        for i, u in enumerate(tup):
            for j, v in enumerate(tup):
                if i != j:
                    pattern.append((u == v,) + tuple((u, v) in x.relations.get(r, ()) for r in rels))
        return (cols, tuple(pattern))

    def ext_atom(x, tup, w):
        return tuple((u == w,)
                     + tuple((u, w) in x.relations.get(r, ()) for r in rels)
                     + tuple((w, u) in x.relations.get(r, ()) for r in rels) for u in tup)

    if g.n != h.n:
        return True
    shared_ext = {}

    def tables(x):
        tuples = list(product(range(x.n), repeat=dim))
        index = {t: i for i, t in enumerate(tuples)}
        subs = []
        for t in tuples:
            row = []
            for w in range(x.n):
                code = shared_ext.setdefault(ext_atom(x, t, w), len(shared_ext))
                row.append((code,) + tuple(index[t[:i] + (w,) + t[i + 1:]] for i in range(dim)))
            subs.append(row)
        return [atom(x, t) for t in tuples], subs

    def histogram(col):
        out = {}
        for c in col:
            out[c] = out.get(c, 0) + 1
        return out

    def recolour(sigs):
        palette = {}
        for sig in sorted(set(sigs[0]) | set(sigs[1])):
            palette.setdefault(sig, len(palette))
        if counts is not None:
            counts.append(len(palette))
        return [palette[s] for s in sigs[0]], [palette[s] for s in sigs[1]]

    (init_g, subs_g), (init_h, subs_h) = tables(g), tables(h)
    col_g, col_h = recolour((init_g, init_h))
    while True:
        if histogram(col_g) != histogram(col_h):
            return True
        ncolors = len(set(col_g) | set(col_h))
        sigs = []
        for col, subs in ((col_g, subs_g), (col_h, subs_h)):
            sigs.append([(col[ti], tuple(sorted((e[0],) + tuple(col[j] for j in e[1:]) for e in row)))
                         for ti, row in enumerate(subs)])
        col_g, col_h = recolour(sigs)
        if len(set(col_g) | set(col_h)) == ncolors:
            return histogram(col_g) != histogram(col_h)


def _random_graph(rng, n, names):
    """Two colors and directed relations, loops included."""
    return ColoredGraph(n, [rng.randint(0, 1) for _ in range(n)],
                        {name: {(u, v) for u in range(n) for v in range(n) if rng.random() < 0.3}
                         for name in names})


def _relabelled(g, rng):
    """g with its vertices renamed by a seeded permutation, colors and
    every relation included."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    colors = [None] * g.n
    for u, c in enumerate(g.colors):
        colors[perm[u]] = c
    return ColoredGraph(g.n, colors, {name: {(perm[u], perm[v]) for u, v in pairs}
                                      for name, pairs in g.relations.items()})


def _switched(rng, g, switches):
    """A relabelling of g after `switches` random swaps (u, v), (x, y) ->
    (u, y), (x, v) in one relation; each keeps every vertex's in- and
    out-degree, so the pair is hard to split and often not split at all."""
    rels = {name: set(pairs) for name, pairs in g.relations.items()}
    for _ in range(switches):
        pairs = rels[rng.choice(sorted(rels))]
        if len(pairs) >= 2:
            (u, v), (x, y) = rng.sample(sorted(pairs), 2)
            if (u, y) not in pairs and (x, v) not in pairs:
                pairs -= {(u, v), (x, y)}
                pairs |= {(u, y), (x, v)}
    return _relabelled(ColoredGraph(g.n, g.colors, rels), rng)


def _rook_and_shrikhande():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "oracles.py"
    spec = importlib.util.spec_from_file_location("perfbench_oracles", path)
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)
    return (ColoredGraph(16, None, {"E": oracles.rook_graph_edges()}),
            ColoredGraph(16, None, {"E": oracles.shrikhande_edges()}))


@pytest.fixture
def round_counts(monkeypatch):
    """The joint number of colors that every _recolor call returns, atoms
    first, in a list that a test clears before each refinement."""
    counts = []
    recolor = wl._recolor

    def recording(sigs_g, sigs_h):
        col_g, col_h, count = recolor(sigs_g, sigs_h)
        assert count == len(set(col_g) | set(col_h))
        counts.append(count)
        return col_g, col_h, count

    monkeypatch.setattr(wl, "_recolor", recording)
    return counts


def test_agrees_with_reference_refinement(round_counts):
    """Equal verdicts, and equal joint color counts after the atoms and
    after every round: the pair codes and the integer multiset keys split
    the tuples as the reference's signatures do, round by round."""
    rng = random.Random(53)
    pairs = [(g, h) for _, g, h, _ in calibration_pairs(False)]
    for _ in range(60):
        n = rng.randint(2, 7)
        a = _random_graph(rng, n, ["E", "F"][:rng.randint(1, 2)])
        pairs.append((a, _switched(rng, a, rng.randint(0, 2))))
        if len(a.relations) == 2:
            # the same pairs under swapped names: only the relation bits differ
            pairs.append((a, ColoredGraph(n, a.colors, {"E": a.relations["F"],
                                                         "F": a.relations["E"]})))
    # equal out-degrees: only the in-edges of vertex 2 split this pair
    pairs.append((ColoredGraph(4, None, {"E": {(0, 2), (1, 2)}}),
                  ColoredGraph(4, None, {"E": {(0, 2), (1, 3)}})))
    pairs.append(_rook_and_shrikhande())
    for g, h in pairs:
        for dim in (1, 2, 3):
            round_counts.clear()
            want = []
            assert wl_distinguishes(g, h, dim) == _reference_wl(g, h, dim, want), (g, h, dim)
            assert round_counts == want, (g, h, dim)


def test_round_counts_on_cfi_pairs(round_counts):
    for base, want in (("k4", [308, 340, 352, 352]), ("prism", [654, 702, 720, 720])):
        a, b = twisted_pair(BASE_LIBRARY[base], 2)
        round_counts.clear()
        assert not wl_distinguishes(to_graph(a), to_graph(b), 2)
        assert round_counts == want, base


def test_cfi_pair_verdicts_stable_under_relabelling():
    rng = random.Random(54)
    a, b = twisted_pair(BASE_LIBRARY["k4"], 2)
    ga, gb = to_graph(a), to_graph(b)
    assert sorted(ga.relations) == ["A", "C", "I"]
    ra, rb = _relabelled(ga, rng), _relabelled(gb, rng)
    for dim in (1, 2):
        assert wl_distinguishes(ga, gb, dim) is False
        assert wl_distinguishes(ra, rb, dim) is False
        assert not wl_distinguishes(ga, ra, dim)
        assert not wl_distinguishes(gb, rb, dim)
