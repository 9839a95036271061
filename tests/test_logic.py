import json
import random

import pytest

from conftest import random_poslfp, random_structure, stage_table_eval
from prooflab.errors import UsageError
from prooflab.logic import (LfpFormula, RelStructure, eval_poslfp, horn_encode,
                            parse_formula, structure_from_json, structure_to_json)
from prooflab.resolution import horn_refute, kres_refutes


def edge_graph(n, edges):
    sym = set()
    for (u, v) in edges:
        sym.add((u, v))
    return RelStructure(n, {"E": (2, frozenset(sym))})


REACH = "(lfp R (x) (or (= x s) (exists y (and (R y) (E y x)))) t)"


def test_eval_exists_identity():
    a = RelStructure(2, {"E": (2, frozenset())})
    assert eval_poslfp(a, parse_formula("(exists x (= x x))"))


def test_eval_reachability():
    a = edge_graph(2, [(0, 1)])
    assert eval_poslfp(a, parse_formula(REACH, {"s": 0, "t": 1}))
    assert not eval_poslfp(a, parse_formula(REACH, {"s": 1, "t": 0}))


def test_eval_rejects_free_variables_and_unknown_relations():
    a = edge_graph(2, [(0, 1)])
    with pytest.raises(UsageError):
        eval_poslfp(a, parse_formula("(P x)"))
    with pytest.raises(UsageError):
        eval_poslfp(a, parse_formula("(exists x (Q x))"))


def test_parser_rejects_non_poslfp():
    with pytest.raises(UsageError):
        parse_formula("(not (and (P x) (P y)))")
    with pytest.raises(UsageError):
        parse_formula("(lfp R (x) (lfp R (y) (R y) y) x)")
    with pytest.raises(UsageError):
        parse_formula("(not (not (P x)))")


def test_parser_arity_checks():
    with pytest.raises(UsageError):
        parse_formula("(lfp R (x y) (R x) x)")


def test_parser_rejects_a_fixpoint_name_bound_twice_side_by_side():
    # the compiler maps each fixpoint name to one binder, so with two
    # binders named R it refuted this false sentence
    text = "(and (lfp R (x) (or (P x) (R x)) s) (lfp R (x) (or (= x x) (R x)) s))"
    with pytest.raises(UsageError):
        parse_formula(text, {"s": 1})
    # an equal binder repeated is one binder
    a = RelStructure(2, {"P": (1, frozenset({(0,)}))})
    phi = parse_formula("(or (lfp R (x) (P x) s) (lfp R (x) (P x) s))", {"s": 1})
    assert not eval_poslfp(a, phi) and not horn_refute(horn_encode(a, phi).cnf).refuted


@pytest.mark.parametrize("text", ["(not (= x))", "(exists x (not (= x x y)))",
                                  "(exists x (= (E x x) x))", "(exists x (E (x) x))",
                                  "(lfp R ((x)) (R x) y)", "(lfp R (x) (R (x)) x)",
                                  "(exists x ((P) x))"])
def test_parser_rejects_malformed_terms(text):
    with pytest.raises(UsageError):
        parse_formula(text)


def test_efp0_detection():
    assert parse_formula("(exists x (P x))").is_efp0()
    assert not parse_formula("(forall x (P x))").is_efp0()


def test_horn_encode_exists_example():
    # universe {a, b}, P = {a}: the encoding derives the sentence and refutes
    a = RelStructure(2, {"P": (1, frozenset({(0,)}))})
    enc = horn_encode(a, parse_formula("(exists x (P x))"))
    assert horn_refute(enc.cnf).refuted
    widths = sorted(len(c) for c in enc.cnf.clauses)
    assert max(widths) <= 2
    # clause shapes: one positive unit (P holds at a), one negative unit for b,
    # two implications into the quantifier variable, one goal denial
    assert widths == [1, 1, 1, 2, 2]


def test_horn_encode_forall_is_wide_and_open():
    a = RelStructure(2, {"P": (1, frozenset({(0,)}))})
    enc = horn_encode(a, parse_formula("(forall x (P x))"))
    assert not horn_refute(enc.cnf).refuted
    assert max(len(c) for c in enc.cnf.clauses) == 3  # n + 1 with n = 2


def test_horn_encode_matches_eval_on_reachability():
    g = edge_graph(4, [(0, 1), (1, 2), (3, 2)])
    for s in range(4):
        for t in range(4):
            phi = parse_formula(REACH, {"s": s, "t": t})
            assert horn_refute(horn_encode(g, phi).cnf).refuted == eval_poslfp(g, phi)


def test_random_corpus_eval_encode_stage_tables_agree():
    rng = random.Random(77)
    total = efp0_count = 0
    while total < 120:
        a = random_structure(rng, max_n=4)
        phi = parse_formula(random_poslfp(rng), {})
        want = stage_table_eval(a, phi)
        assert eval_poslfp(a, phi) == want
        enc = horn_encode(a, phi)
        assert horn_refute(enc.cnf).refuted == want
        if phi.is_efp0():
            efp0_count += 1
            assert max((len(c) for c in enc.cnf.clauses), default=0) <= 3
            assert kres_refutes(enc.cnf, 3) == want
        total += 1
    assert efp0_count >= 20


def shadowing_lfp(rng: random.Random) -> str:
    """A reachability-style fixpoint R(u) whose body reads x or s, bound
    outside it, and whose recursive atom may sit under binders that rebind
    x, s, u or each other; s and t are parameters, and x is one too unless
    a forall binds it."""
    names = ["x", "s", "u", "y"]

    def atom(terms):
        v, w = rng.choice(terms), rng.choice(terms)
        return rng.choice([f"(P {v})", f"(E {v} {w})", f"(= {v} {w})", f"(not (E {v} {w}))"])

    v = rng.choice(names)
    step = f"({rng.choice(['exists', 'forall'])} {v} (and (R {v}) {atom([v, 'u', 'x'])}))"
    if rng.random() < 0.5:
        step = f"(exists {rng.choice(names)} {step})"
    outer = rng.choice(["x", "s"])
    body = f"(or {rng.choice([f'(= u {outer})', atom(['u', outer])])} {step})"
    lfp = f"(lfp R (u) {body} {rng.choice(['t', 'x', 's'])})"
    return rng.choice([lfp, f"(forall x {lfp})"])


@pytest.mark.parametrize("text,params", [
    # (R s) sits under a rebinding of the parameter s, which R's body also
    # reads outside it: read at the rebound s = 1, (= x s) puts 1 in R and
    # the edge (1, 2) then puts t = 2 in it
    ("(lfp R (x) (or (= x s) (exists s (and (R s) (E s x)))) t)", {"s": 0, "t": 2}),
    # (exists y ...) names no z, but its (R y) depends on the z that R's
    # body reads, and so does S through its body: with one variable for
    # every z, R(1) at z = 2 made R hold everywhere at z = 0
    ("(forall z (lfp R (u) (or (E u z) (exists y (and (R y) (P y)))) z))", {}),
    ("(forall z (lfp R (u) (or (E u z) (exists y (lfp S (v) (or (R v) (S v)) y))) z))", {})],
    ids=["rebound-parameter", "unnamed-outer-variable", "nested-binder"])
def test_horn_encode_keeps_the_outer_variables_of_a_fixpoint_atom(text, params):
    a = RelStructure(3, {"P": (1, frozenset({(0,), (1,)})), "E": (2, frozenset({(1, 2)}))})
    phi = parse_formula(text, params)
    assert not stage_table_eval(a, phi) and not eval_poslfp(a, phi)
    assert not horn_refute(horn_encode(a, phi).cnf).refuted


def test_horn_encode_agrees_with_stage_tables_under_shadowing_binders():
    rng = random.Random(13)
    for _ in range(150):
        a = random_structure(rng, max_n=4)
        params = {name: rng.randrange(a.universe_size) for name in "stx"}
        phi = parse_formula(shadowing_lfp(rng), params)
        want = stage_table_eval(a, phi)
        assert eval_poslfp(a, phi) == want
        assert horn_refute(horn_encode(a, phi).cnf).refuted == want


def test_horn_encode_deep_lfp_stages():
    """On a path the reachability stages are as deep as the path is long.
    A compiler that recursed once per instantiated subformula ran out of
    stack at the default recursion limit (1000) from 247 vertices up."""
    n = 300
    edges = frozenset((i, i + 1) for i in range(n - 1))
    for size, t, holds in ((n, n - 1, True), (n + 1, n, False)):  # n: an isolated vertex
        a = RelStructure(size, {"E": (2, edges)})
        enc = horn_encode(a, parse_formula(REACH, {"s": 0, "t": t}))
        assert horn_refute(enc.cnf).refuted is holds


def test_encoding_size_linear_in_instantiations():
    a = random_structure(random.Random(5), max_n=4)
    phi = parse_formula("(exists x (exists y (and (E x y) (P y))))")
    enc = horn_encode(a, phi)
    assert len(enc.cnf.clauses) <= a.universe_size * len(enc.var_map) + 1


def test_equal_subformulas_share_a_variable():
    # or, exists, and (P x) at 0 and at 1: one variable per distinct
    # subformula and instantiation, not per occurrence (which makes 7)
    a = RelStructure(2, {"P": (1, frozenset({(0,)}))})
    enc = horn_encode(a, parse_formula("(or (exists x (P x)) (exists x (P x)))"))
    assert enc.cnf.num_vars == len(enc.var_map) == 4


def test_var_map_is_injective():
    a = edge_graph(3, [(0, 1), (1, 2)])
    enc = horn_encode(a, parse_formula(REACH, {"s": 0, "t": 2}))
    assert len(set(enc.var_map.values())) == len(enc.var_map)


def test_structure_json_round_trip():
    a = random_structure(random.Random(8), max_n=5)
    again = structure_from_json(json.loads(json.dumps(structure_to_json(a))))
    assert again.universe_size == a.universe_size
    assert again.relations == a.relations


def test_structure_validation():
    with pytest.raises(UsageError):
        RelStructure(2, {"E": (2, frozenset({(0, 5)}))})
    with pytest.raises(UsageError):
        RelStructure(2, {"E": (2, frozenset({(0,)}))})


def test_wide_conjunction_evaluates_and_encodes():
    # an n-ary and of 3,000 parts folds to a balanced tree: a left-deep
    # chain made the tree walkers recurse once per part
    a = RelStructure(2, {"P": (1, frozenset({(1,)}))})
    for parts, holds in (("(P x)", True), ("(P x) (= x x)", True), ("(P x) (not (P x))", False)):
        phi = parse_formula("(exists x (and " + " ".join([parts] * 3000) + "))")
        assert eval_poslfp(a, phi) is holds
        assert horn_refute(horn_encode(a, phi).cnf).refuted is holds
    wide_or = parse_formula("(exists x (or " + " ".join(["(P x) (= x s)"] * 1500) + "))", {"s": 0})
    assert eval_poslfp(a, wide_or)
