import gc
import random
from itertools import product

import pytest

from conftest import brute_colored_iso, brute_graph_iso, poly_system_has_boolean_zero, sat_oracle
from prooflab.encoders import (brute_force_homomorphism, clique_structure,
                               cycle_structure, encode_iso_cnf, encode_iso_poly,
                               encode_iso_poly_colored, encode_kconsistency_cnf,
                               encode_nonreach, k_consistency)
from prooflab.errors import UsageError
from prooflab.logic import RelStructure, horn_encode, parse_formula
from prooflab.pc import min_refutation_degree, monpc_saturate
from prooflab.resolution import horn_refute, kres_refutes, kres_saturate
from prooflab.wl import ColoredGraph, wl_sweep


def bfs_reachable(n, edges, s, t):
    adj = {}
    for (u, v) in edges:
        adj.setdefault(u, []).append(v)
    seen, stack = {s}, [s]
    while stack:
        v = stack.pop()
        if v == t:
            return True
        for w in adj.get(v, ()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return t in seen


def random_digraph(rng, max_n=50):
    n = rng.randint(2, max_n)
    edges = {(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 3 * n))}
    edges = [(u, v) for (u, v) in edges if u != v]
    return n, edges


def test_nonreach_edge_and_isolated():
    f = encode_nonreach(2, [(0, 1)], 0, 1)
    assert horn_refute(f).refuted
    assert kres_saturate(f, 2).refuted
    assert f.width() <= 2
    assert not horn_refute(encode_nonreach(3, [(1, 2)], 0, 2)).refuted


def test_nonreach_matches_bfs():
    rng = random.Random(61)
    for _ in range(200):
        n, edges = random_digraph(rng)
        s, t = rng.randrange(n), rng.randrange(n)
        f = encode_nonreach(n, edges, s, t)
        assert horn_refute(f).refuted == bfs_reachable(n, edges, s, t)


def test_iso_cnf_basic_pairs():
    sat = encode_iso_cnf(2, [(0, 1)], 2, [(0, 1)])
    unsat = encode_iso_cnf(2, [(0, 1)], 2, [])
    assert sat_oracle(sat)
    assert not sat_oracle(unsat)


def test_iso_cnf_matches_brute_iso():
    rng = random.Random(62)
    for _ in range(50):
        n = rng.randint(1, 4)
        g = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
        h = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
        f = encode_iso_cnf(n, g, n, h)
        assert sat_oracle(f) == brute_graph_iso(n, g, n, h)


def test_iso_cnf_k2_vs_isolated_min_width():
    f = encode_iso_cnf(2, [(0, 1)], 2, [])
    assert not sat_oracle(f)  # independent unsatisfiability witness
    smallest = next(k for k in range(1, 5) if kres_saturate(f, k).refuted)
    assert smallest == 2


def test_iso_poly_agrees_with_cnf_solutions():
    rng = random.Random(63)
    for _ in range(20):
        n = rng.randint(1, 3)
        g = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
        h = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
        cnf = encode_iso_cnf(n, g, n, h)
        system = encode_iso_poly(n, g, n, h)
        assert poly_system_has_boolean_zero(system) == sat_oracle(cnf)


def test_iso_poly_identity_never_refuted():
    edges = [(0, 1), (1, 2)]
    system = encode_iso_poly(3, edges, 3, edges)
    for k in (2, 3):
        assert not monpc_saturate(system, k).refuted


def test_iso_poly_k2_vs_isolated_degree():
    system = encode_iso_poly(2, [(0, 1)], 2, [])
    degree = min_refutation_degree(system, "monpc", 4)
    g = ColoredGraph(2, None, {"E": {(0, 1), (1, 0)}})
    h = ColoredGraph(2, None, {"E": frozenset()})
    assert wl_sweep(g, h, 3) == 1
    assert degree == 2  # one above the distinguishing dimension


def test_iso_poly_colored_variable_count():
    g = ColoredGraph(4, (0, 0, 1, 1), {"E": {(0, 2), (2, 0)}})
    h = ColoredGraph(4, (0, 0, 1, 1), {"E": {(1, 3), (3, 1)}})
    system = encode_iso_poly_colored(g, h)
    assert system.num_vars == 8  # 2x2 per class instead of 16
    assert poly_system_has_boolean_zero(system)


def test_iso_poly_colored_rigid_classes():
    g = ColoredGraph(3, (0, 1, 2), {"E": {(0, 1), (1, 0)}})
    h_good = ColoredGraph(3, (0, 1, 2), {"E": {(0, 1), (1, 0)}})
    h_bad = ColoredGraph(3, (0, 1, 2), {"E": {(1, 2), (2, 1)}})
    assert poly_system_has_boolean_zero(encode_iso_poly_colored(g, h_good))
    assert not poly_system_has_boolean_zero(encode_iso_poly_colored(g, h_bad))


def test_iso_poly_colored_class_mismatch():
    g = ColoredGraph(2, (0, 0), {})
    h = ColoredGraph(2, (0, 1), {})
    with pytest.raises(UsageError):
        encode_iso_poly_colored(g, h)


def test_iso_encoders_compare_loops():
    # a 3-vertex path with a loop at an end against one with a loop in the
    # middle: only the one-variable conflict X[v -> w] for a loop at v but
    # not at w tells them apart
    path = [(0, 1), (1, 2)]
    ge, he = path + [(0, 0)], path + [(1, 1)]
    sym = lambda edges: frozenset(edges) | {(v, u) for (u, v) in edges}
    g = ColoredGraph(3, None, {"E": sym(ge)})
    h = ColoredGraph(3, None, {"E": sym(he)})
    assert wl_sweep(g, h, 3) == 1 and not brute_colored_iso(g, h)
    assert min_refutation_degree(encode_iso_poly(3, ge, 3, he), "monpc", 4) == 2
    assert min_refutation_degree(encode_iso_poly_colored(g, h), "monpc", 4) == 2
    cnf = encode_iso_cnf(3, ge, 3, he)
    assert not sat_oracle(cnf) and kres_refutes(cnf, 3)
    # a graph against itself keeps its loops consistent
    assert poly_system_has_boolean_zero(encode_iso_poly_colored(g, g))
    assert sat_oracle(encode_iso_cnf(3, ge, 3, ge))


def test_iso_poly_colored_cfi_control_pair():
    # a structure against itself is satisfiable: no refutation at low degree
    from prooflab.cfi import K4, build_cfi, to_graph
    g = to_graph(build_cfi(K4, 2, [0, 0, 0, 0]))
    system = encode_iso_poly_colored(g, g)
    assert not monpc_saturate(system, 2).refuted


def test_k_consistency_cycles_against_two_coloring():
    k2 = clique_structure(2)
    assert k_consistency(cycle_structure(4), k2, 3)
    assert not k_consistency(cycle_structure(3), k2, 3)
    assert k_consistency(RelStructure(0, {"E": (2, frozenset())}), k2, 2)


def test_k_consistency_monotone_in_k():
    k2 = clique_structure(2)
    for n in (3, 5):
        cyc = cycle_structure(n)
        assert not k_consistency(cyc, k2, 3)
        assert not k_consistency(cyc, k2, 4)


def test_k_consistency_vocabulary_mismatch():
    a = RelStructure(2, {"E": (2, frozenset())})
    t = RelStructure(2, {"F": (2, frozenset())})
    with pytest.raises(UsageError):
        k_consistency(a, t, 2)


def test_kconsistency_cnf_matches_direct_on_random_csp():
    from prooflab.encoders import _partial_homs
    rng = random.Random(64)
    done = 0
    while done < 25:
        n_a, n_t = rng.randint(1, 8), rng.randint(1, 3)
        a_edges = {(rng.randrange(n_a), rng.randrange(n_a)) for _ in range(rng.randint(0, 10))}
        t_edges = {(rng.randrange(n_t), rng.randrange(n_t)) for _ in range(rng.randint(0, 5))}
        a = RelStructure(n_a, {"E": (2, frozenset(a_edges))})
        t = RelStructure(n_t, {"E": (2, frozenset(t_edges))})
        # pick the largest k whose clause encoding stays test-sized
        k = 3
        while k > 1 and len(_partial_homs(a, t, k)) > 220:
            k -= 1
        direct = k_consistency(a, t, k)
        cnf = encode_kconsistency_cnf(a, t, k)
        width = max((len(c) for c in cnf.clauses), default=1)
        assert kres_refutes(cnf, width) == (not direct)
        if not direct:
            assert not brute_force_homomorphism(a, t)
        done += 1


def test_kconsistency_cnf_is_dual_horn():
    cnf = encode_kconsistency_cnf(cycle_structure(4), clique_structure(2), 3)
    for c in cnf.clauses:
        assert sum(1 for lit in c if lit < 0) <= 1


def test_encoders_and_closures_leave_no_reference_cycles():
    """Each call frees all it built by reference counting alone: with the
    cyclic collector off, a collection afterwards finds nothing."""
    path = RelStructure(30, {"E": (2, frozenset((i, i + 1) for i in range(29)))})
    reach = parse_formula("(lfp R (x) (or (= x s) (exists y (and (R y) (E y x)))) t)",
                          {"s": 0, "t": 29})
    c5, k2 = cycle_structure(5), clique_structure(2)
    # the 4-path against the 4-cycle: its conflict axioms are single terms
    system = encode_iso_poly(4, [(0, 1), (1, 2), (2, 3)], 4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    calls = {
        "horn_encode": lambda: horn_encode(path, reach),
        "k_consistency": lambda: k_consistency(c5, k2, 3),
        "encode_kconsistency_cnf": lambda: encode_kconsistency_cnf(c5, k2, 3),
        "monpc_saturate": lambda: monpc_saturate(system, 2).basis.quotient_size(),
    }
    gc.disable()
    try:
        gc.collect()
        for name, call in calls.items():
            call()
            assert gc.collect() == 0, name
    finally:
        gc.enable()
