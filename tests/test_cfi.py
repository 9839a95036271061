import random
from itertools import product

import pytest

from conftest import brute_colored_iso
from prooflab.cfi import (AutSpace, BASE_LIBRARY, CfiBase, K4, apply_shift,
                          automorphism_space, build_cfi, cfi_isomorphic,
                          coordinate_orbits, format_base_graph, parse_base_graph,
                          shift_point_map, to_graph, to_rel_structure, twisted_pair)
from prooflab.errors import UsageError


def inv_vectors(base, p):
    """All shift vectors satisfying the dual-edge constraint."""
    und = sorted(tuple(sorted(e)) for e in base.edges)
    for vals in product(range(p), repeat=len(und)):
        pi = {}
        for (u, v), x in zip(und, vals):
            pi[(u, v)] = x
            pi[(v, u)] = (-x) % p
        yield pi


def test_base_library_is_valid():
    for name, base in BASE_LIBRARY.items():
        assert all(len(base.neighbors(v)) == 3 for v in range(base.n)), name


def test_base_validation():
    with pytest.raises(UsageError):
        CfiBase(4, [(0, 1), (1, 2), (2, 3), (0, 3)])  # 2-regular
    with pytest.raises(UsageError):
        CfiBase(8, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
                    (4, 5), (4, 6), (4, 7), (5, 6), (5, 7), (6, 7)])  # disconnected
    for bad in ((0, 0), (0, 4), (-1, 0)):
        with pytest.raises(UsageError, match="bad edge"):
            CfiBase(4, [bad, (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


def test_base_text_round_trip():
    text = format_base_graph(K4)
    again = parse_base_graph(text)
    assert again.edges == K4.edges and again.n == K4.n


def test_build_counts_k4_p2():
    s = build_cfi(K4, 2, [0, 0, 0, 0])
    assert len(s.universe) == 24
    assert len(s.cfi_tuples) == 16  # p^2 per vertex
    # one directed p-cycle per edge class
    edges = s.edge_classes()
    for e in edges:
        cycle_pairs = [(a, b) for (a, b) in s.cycle
                       if s.universe[a][0] == e]
        assert len(cycle_pairs) == 2
    # I is a symmetric bijection between dual classes
    assert all((b, a) in s.inverse for (a, b) in s.inverse)
    assert len(s.inverse) == len(s.universe)


def test_build_rejects_bad_inputs():
    with pytest.raises(UsageError):
        build_cfi(K4, 4, [0, 0, 0, 0])
    with pytest.raises(UsageError):
        build_cfi(K4, 2, [0, 0])


def test_automorphism_dimension_matches_brute_force():
    for p in (2, 3):
        aut = automorphism_space(K4, p)
        assert aut.dimension == 3  # cycle-space dimension of K4
        brute = sum(1 for pi in inv_vectors(K4, p)
                    if all(sum(pi[(v, w)] for w in K4.neighbors(v)) % p == 0
                           for v in range(K4.n)))
        assert brute == p ** aut.dimension


def test_automorphism_basis_satisfies_constraints():
    for p in (2, 3):
        aut = automorphism_space(K4, p)
        for vec in aut.basis:
            for e in K4.directed_edges():
                rev = (e[1], e[0])
                assert (vec.get(e, 0) + vec.get(rev, 0)) % p == 0
            for v in range(K4.n):
                assert sum(vec.get((v, w), 0) for w in K4.neighbors(v)) % p == 0


def test_apply_shift_examples():
    s = build_cfi(K4, 2, [0, 1, 0, 1])
    zero = {e: 0 for e in K4.directed_edges()}
    assert apply_shift(s, zero).lam == s.lam
    aut = automorphism_space(K4, 2)
    for vec in aut.basis:
        assert apply_shift(s, vec).lam == s.lam  # automorphisms fix the load
    with pytest.raises(UsageError):
        apply_shift(s, {(0, 1): 1})  # violates the inverse constraint


def test_apply_shift_preserves_total_load():
    rng = random.Random(41)
    for p in (2, 3):
        s = build_cfi(K4, p, [rng.randrange(p) for _ in range(4)])
        for pi in random.Random(42).sample(list(inv_vectors(K4, p)), 10):
            assert apply_shift(s, pi).total_load() == s.total_load()


def test_isomorphism_by_load_sum():
    a = build_cfi(K4, 2, [0, 0, 0, 0])
    b = build_cfi(K4, 2, [1, 1, 0, 0])
    c = build_cfi(K4, 2, [1, 0, 0, 0])
    assert cfi_isomorphic(a, a)
    assert cfi_isomorphic(a, b)
    assert not cfi_isomorphic(a, c)
    with pytest.raises(UsageError):
        cfi_isomorphic(a, build_cfi(BASE_LIBRARY["prism"], 2, [0] * 6))


def test_shift_search_confirms_isomorphism_classes_k4_p2():
    # exhaustively over all 16 loads: shifts realise exactly the load-sum classes
    structures = {lam: build_cfi(K4, 2, lam) for lam in product((0, 1), repeat=4)}
    shifts = list(inv_vectors(K4, 2))
    for lam_a, a in structures.items():
        for lam_b, b in structures.items():
            found = False
            for pi in shifts:
                if apply_shift(a, pi).lam == b.lam:
                    # the point map must carry the relations exactly
                    pm = shift_point_map(a, pi)
                    assert {(pm[x], pm[y]) for (x, y) in a.cycle} == b.cycle
                    assert {(pm[x], pm[y]) for (x, y) in a.inverse} == b.inverse
                    mapped = {(pm[x], pm[y], pm[z]) for (x, y, z) in a.cfi_tuples}
                    assert mapped == b.cfi_tuples
                    found = True
                    break
            assert found == cfi_isomorphic(a, b)


def test_twisted_pair_shares_invariant_relations():
    a, b = twisted_pair(K4, 2)
    assert not cfi_isomorphic(a, b)
    assert a.cycle == b.cycle and a.inverse == b.inverse
    assert a.total_load() == 0 and b.total_load() == 1


def test_to_graph_shape():
    s = build_cfi(K4, 2, [0, 0, 0, 0])
    g = to_graph(s)
    assert g.n == 24 + 16
    inner = range(24, 40)
    adj = g.relations["A"]
    for i in inner:
        assert sum(1 for (a, b) in adj if a == i) == 3
    # colour class sizes within max(p, p^2)
    sizes = {}
    for c in g.colors:
        sizes[c] = sizes.get(c, 0) + 1
    assert max(sizes.values()) <= 4


def test_to_graph_separates_non_isomorphic_structures():
    a, b = twisted_pair(K4, 2)
    ga, gb = to_graph(a), to_graph(b)
    assert not brute_colored_iso(ga, gb)
    # control: isomorphic loads give isomorphic graphs
    c = build_cfi(K4, 2, [1, 1, 0, 0])
    assert brute_colored_iso(to_graph(a), to_graph(c))


def test_coordinate_orbits_k4():
    s = build_cfi(K4, 2, [0] * 4)
    aut = automorphism_space(K4, 2)
    orbits = coordinate_orbits(s, aut)
    # K4 is bridgeless: every edge class is one orbit of size p
    assert sorted(len(o) for o in orbits) == [2] * 12
    flat = sorted(i for o in orbits for i in o)
    assert flat == list(range(24))
    # empty automorphism space: everything splits into singletons
    empty = AutSpace(2, s.edge_classes(), [])
    assert sorted(len(o) for o in coordinate_orbits(s, empty)) == [1] * 24


def test_rel_structure_export():
    s = build_cfi(K4, 2, [0] * 4)
    rel = to_rel_structure(s)
    assert rel.universe_size == 24
    assert rel.relations["R"][0] == 3
    assert len(rel.relations["R"][1]) == 16
    # preorder is reflexive and total on classes
    pre = rel.relations["pre"][1]
    assert all((i, i) in pre for i in range(24))


def test_fp_refutes_cfi_p_at_degree_two():
    """Over F_p, monomial PC refutes the CFI_p twisted pair at degree 2;
    over Q and over a field of another characteristic it does not.  The
    degree is measured, not derived: the lines of a degree-2 refutation
    are not reconstructed here.  Unrefuted closures pin their dimension,
    and isomorphic controls (loads at vertices 0 and 1) stay unrefuted."""
    from prooflab.algebra import RATIONALS, Field
    from prooflab.encoders import encode_iso_poly_colored
    from prooflab.pc import monpc_saturate

    def closure(a, b, field):
        res = monpc_saturate(encode_iso_poly_colored(to_graph(a), to_graph(b), field), 2)
        return res.refuted, res.basis.dimension

    F2, F3 = Field(2), Field(3)
    unrefuted = {"k4": 5400, "prism": 11940, "cube": 21040, "petersen": 32700}
    for name, dim in unrefuted.items():
        a, b = twisted_pair(BASE_LIBRARY[name], 2)
        assert closure(a, b, F2)[0], name
        for field in (RATIONALS, F3):
            assert closure(a, b, field) == (False, dim), (name, field)
    a, b = twisted_pair(K4, 3)
    assert closure(a, b, F3)[0]
    for field in (RATIONALS, F2):
        assert closure(a, b, field) == (False, 52102), field
    for p, lam, dim in ((2, [1, 1, 0, 0], 5399), (3, [1, 2, 0, 0], 52085)):
        a, control = build_cfi(K4, p, [0] * 4), build_cfi(K4, p, lam)
        assert cfi_isomorphic(a, control)
        assert closure(a, control, Field(p)) == (False, dim), p


def test_base_graph_text_needs_exactly_m_edge_lines():
    text = format_base_graph(K4)
    n_m, *edges = text.splitlines()
    for lines in (edges[:-1], edges + ["0 1"]):
        with pytest.raises(UsageError, match="declares 6 edges"):
            parse_base_graph("\n".join([n_m] + lines) + "\n")
    with pytest.raises(UsageError, match="no colors"):
        parse_base_graph(text + "colors 0 0 1 1\n")
