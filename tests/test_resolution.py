import random

import pytest

from conftest import random_cnf, random_horn_cnf, sat_oracle
from prooflab.encoders import clique_structure, cycle_structure, encode_kconsistency_cnf
from prooflab.errors import UsageError
from prooflab.resolution import (CnfFormula, horn_refute, kres_refutes,
                                 kres_saturate, read_dimacs, two_sat_oracle,
                                 write_dimacs)


def test_horn_single_contradiction():
    f = CnfFormula(1, [[1], [-1]])
    res = horn_refute(f)
    assert res.refuted
    assert res.derived_units == frozenset({1})


def test_horn_empty_formula_satisfiable():
    res = horn_refute(CnfFormula(0, []))
    assert not res.refuted
    assert res.derived_units == frozenset()


def test_horn_empty_clause_refutes():
    assert horn_refute(CnfFormula(1, [[]])).refuted


def test_horn_rejects_non_horn():
    with pytest.raises(UsageError):
        horn_refute(CnfFormula(2, [[1, 2]]))


def test_horn_chain_propagation():
    # s -> m -> t reachability pattern
    f = CnfFormula(3, [[1], [-1, 2], [-2, 3], [-3]])
    res = horn_refute(f)
    assert res.refuted
    assert res.derived_units == frozenset({1, 2, 3})


def test_horn_matches_brute_force():
    rng = random.Random(100)
    for _ in range(300):
        f = random_horn_cnf(rng, rng.randint(1, 10), rng.randint(1, 25))
        assert horn_refute(f).refuted == (not sat_oracle(f))


def test_kres_unit_conflict_and_chain():
    assert kres_saturate(CnfFormula(1, [[1], [-1]]), 1).refuted
    chain = CnfFormula(3, [[1], [-1, 2], [-2, 3], [-3]])
    assert kres_saturate(chain, 2).refuted


def test_kres_rejects_bad_width():
    with pytest.raises(UsageError):
        kres_saturate(CnfFormula(1, [[1]]), 0)


def test_kres_wide_clauses_excluded_by_default():
    # the only contradiction runs through a width-3 clause
    f = CnfFormula(3, [[1, 2, 3], [-1], [-2], [-3]])
    assert not kres_saturate(f, 2).refuted
    assert kres_saturate(f, 3).refuted


def test_kres_soundness_and_two_sat_agreement():
    rng = random.Random(200)
    for _ in range(200):
        f = random_cnf(rng, rng.randint(1, 8), rng.randint(1, 18), max_width=2)
        sat = sat_oracle(f)
        assert two_sat_oracle(f) == sat
        assert kres_saturate(f, 2).refuted == (not sat)


def test_kres_monotone_in_width():
    rng = random.Random(300)
    for _ in range(40):
        f = random_cnf(rng, 6, 12, max_width=3)
        d2 = kres_saturate(f, 2).derived
        d3 = kres_saturate(f, 3).derived
        assert d2 <= d3


def test_kres_refuted_implies_unsat():
    rng = random.Random(400)
    for _ in range(120):
        f = random_cnf(rng, rng.randint(1, 9), rng.randint(1, 22), max_width=3)
        for k in (2, 3):
            if kres_saturate(f, k).refuted:
                assert not sat_oracle(f)


def test_kres_refutes_agrees_with_saturation():
    rng = random.Random(500)
    for _ in range(150):
        f = random_cnf(rng, rng.randint(1, 8), rng.randint(1, 20), max_width=3)
        for k in (2, 3):
            assert kres_refutes(f, k) == kres_saturate(f, k).refuted
    # denser formulas without units, where the same resolvent arises from
    # many pairs: two in five of the resolvents kres_refutes meets are repeats
    rng = random.Random(502)
    for _ in range(120):
        f = random_cnf(rng, rng.randint(6, 8), rng.randint(15, 25), max_width=3, min_width=2)
        for k in (2, 3):
            assert kres_refutes(f, k) == kres_saturate(f, k).refuted


def test_kres_refutes_empty_input_clause():
    assert kres_refutes(CnfFormula(2, [[], [1, 2]]), 1)


def _rename(f: CnfFormula, rng: random.Random) -> CnfFormula:
    """f with its variable ids permuted and a random set of variables
    negated in every clause."""
    perm = list(range(1, f.num_vars + 1))
    rng.shuffle(perm)
    sign = {v: rng.choice((1, -1)) for v in perm}
    return CnfFormula(f.num_vars, [[sign[abs(l)] * perm[abs(l) - 1] * (1 if l > 0 else -1)
                                    for l in c] for c in f.clauses])


def test_kres_refutes_invariant_under_renaming_and_polarity():
    # the formulas of test_kres_refutes_agrees_with_saturation, then the
    # 3-consistency encodings of C3..C7 against K2
    rng = random.Random(500)
    randoms = [random_cnf(rng, rng.randint(1, 8), rng.randint(1, 20), max_width=3)
               for _ in range(150)]
    k2 = clique_structure(2)
    cases = [(f, k) for f in randoms for k in (2, 3)]
    cases += [(encode_kconsistency_cnf(cycle_structure(n), k2, 3), 3) for n in range(3, 8)]
    rename = random.Random(501)
    for f, k in cases:
        assert kres_refutes(_rename(f, rename), k) == kres_refutes(f, k)


def test_kres_tautological_inputs_are_harmless():
    # resolving against a tautology must not shrink clauses unsoundly
    f = CnfFormula(2, [[1, -1], [1, 2]])
    res = kres_saturate(f, 2)
    assert not res.refuted
    assert sat_oracle(f)


def test_two_sat_examples():
    assert not two_sat_oracle(CnfFormula(1, [[1], [-1]]))
    assert two_sat_oracle(CnfFormula(2, [[1, 2]]))
    with pytest.raises(UsageError):
        two_sat_oracle(CnfFormula(3, [[1, 2, 3]]))


def test_width_two_resolution_agrees_with_the_oracle_past_brute_force_size():
    # 40-60 variables and n to 2n binary clauses straddle the 2-SAT
    # threshold, so both verdicts occur
    rng = random.Random(210)
    verdicts = set()
    for _ in range(30):
        n = rng.randint(40, 60)
        f = CnfFormula(n, [[rng.choice((-1, 1)) * v for v in rng.sample(range(1, n + 1), 2)]
                           for _ in range(rng.randint(n, 2 * n))])
        sat = two_sat_oracle(f)
        assert kres_refutes(f, 2) == kres_saturate(f, 2).refuted == (not sat)
        verdicts.add(sat)
    assert verdicts == {True, False}


def test_two_sat_oracle_on_a_long_implication_chain():
    # x1, x1 -> x2, ..., x(n-1) -> xn: a depth-first search runs 100,000
    # literals deep, past any recursion limit
    n = 100_000
    chain = [[1]] + [[-i, i + 1] for i in range(1, n)]
    assert two_sat_oracle(CnfFormula(n, chain))
    assert not two_sat_oracle(CnfFormula(n, chain + [[-n, -1]]))


def test_dimacs_round_trip():
    f = CnfFormula(4, [[1, -2], [3], [-1, -3, 4]])
    again = read_dimacs(write_dimacs(f))
    assert again.num_vars == 4
    assert again.clauses == f.clauses


def test_dimacs_parses_comments_and_header():
    text = "c comment\np cnf 3 2\n1 -2 0\n2 3 0\n"
    f = read_dimacs(text)
    assert f.num_vars == 3
    assert frozenset({1, -2}) in f.clauses
