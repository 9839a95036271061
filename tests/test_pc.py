import json
import random
import time
from fractions import Fraction
from itertools import combinations, product
from math import comb, gcd

import pytest

from conftest import poly_system_has_boolean_zero
from prooflab.algebra import Field, Matrix, RATIONALS, Vector, compress_image, gauss_solve
from prooflab.cfi import K4, to_graph, twisted_pair
from prooflab.encoders import encode_iso_poly_colored
from prooflab.errors import DegreeOverflowError, UsageError
from prooflab.pc import (ENGINES, Basis, Polynomial, PolySystem, degree_sweep, dumps_system,
                         loads_system, min_refutation_degree, mono_key, monpc_extend,
                         monpc_saturate, multlin, pc_saturate)

Q = RATIONALS


def P(terms, field=Q):
    return Polynomial(field, terms)


def test_multlin_paper_example():
    # X^2 Y + Z -> XY + Z
    p = multlin([(1, (1, 1, 2)), (1, (3,))], Q)
    assert p.terms == {(1, 2): Fraction(1), (3,): Fraction(1)}


def test_multlin_fixes_nothing_on_multilinear_input():
    p = P([((1, 2), 1), ((3,), -2)])
    assert multlin(p) is p


def test_multlin_collapses_booleanity_axiom():
    assert multlin([(1, (1, 1)), (-1, (1,))], Q).is_zero()


def test_polynomial_rejects_bad_ids():
    for mono in ((0,), (1.0,), (1.5,), (True,), (2, "3")):
        with pytest.raises(UsageError):
            P([(mono, 1)])
    with pytest.raises(UsageError):
        PolySystem(Q, 2.5, [])


def test_monpc_linear_combination_refutation():
    system = PolySystem(Q, 1, [P([((1,), 1)]), P([((), 1), ((1,), -1)])])
    assert monpc_saturate(system, 1).refuted


def test_monpc_lift_refutation():
    # XY - 1 and X: lift X by Y, subtract
    system = PolySystem(Q, 2, [P([((1, 2), 1), ((), -1)]), P([((1,), 1)])])
    assert monpc_saturate(system, 2).refuted
    assert min_refutation_degree(system, "monpc", 5) == 2


def test_monpc_satisfiable_never_refutes():
    system = PolySystem(Q, 1, [P([((1,), 1)])])
    for k in (1, 2, 3):
        assert not monpc_saturate(system, k).refuted


def test_degree_overflow():
    system = PolySystem(Q, 2, [P([((1, 2), 1)])])
    with pytest.raises(DegreeOverflowError):
        monpc_saturate(system, 1)


def test_pc_difference_refutation():
    system = PolySystem(Q, 2, [P([((1,), 1), ((2,), 1), ((), -1)]),
                               P([((1,), 1), ((2,), 1)])])
    assert pc_saturate(system, 1).refuted


def test_pc_over_f2():
    F2 = Field(2)
    system = PolySystem(F2, 2, [P([((1,), 1), ((2,), 1), ((), 1)], F2),
                                P([((1,), 1), ((2,), 1)], F2)])
    assert pc_saturate(system, 1).refuted


def test_min_degree_of_constant_system():
    assert min_refutation_degree(PolySystem(Q, 1, [P([((), 1)])]), "monpc", 3) == 1


def test_min_degree_ignores_axioms_above_the_bound():
    # the degree-1 subsystem {X, 1 - X} already refutes; the degree-2 axiom
    # cannot occur in a degree-1 proof and must not block the sweep
    system = PolySystem(Q, 2, [P([((1, 2), 1)]),
                               P([((1,), 1)]),
                               P([((), 1), ((1,), -1)])])
    assert min_refutation_degree(system, "monpc", 3) == 1


def test_min_degree_absent_when_satisfiable():
    assert min_refutation_degree(PolySystem(Q, 1, [P([((1,), 1)])]), "monpc", 3) is None


def test_min_degree_rejects_unknown_engine():
    with pytest.raises(UsageError):
        min_refutation_degree(PolySystem(Q, 1, []), "mystery", 2)


def random_system(rng, num_vars=6, n_axioms=4, field=Q):
    axioms = []
    for _ in range(n_axioms):
        terms = []
        for _ in range(rng.randint(1, 3)):
            d = rng.randint(0, 2)
            mono = tuple(sorted(rng.sample(range(1, num_vars + 1), d)))
            terms.append((mono, rng.choice([-2, -1, 1, 2])))
        axioms.append(Polynomial(field, terms))
    return PolySystem(field, num_vars, axioms)


def test_engines_sound_against_boolean_enumeration():
    rng = random.Random(21)
    for _ in range(60):
        system = random_system(rng, num_vars=rng.randint(2, 6))
        for engine in (monpc_saturate, pc_saturate):
            if engine(system, 2).refuted:
                assert not poly_system_has_boolean_zero(system)


def test_monpc_span_contained_in_pc_span():
    rng = random.Random(22)
    for _ in range(25):
        system = random_system(rng, num_vars=5)
        rm = monpc_saturate(system, 2, full_closure=True)
        rp = pc_saturate(system, 2, full_closure=True)
        for p in rm.basis.polynomials():
            assert rp.basis.contains(p)


def test_refutation_monotone_in_degree():
    rng = random.Random(23)
    for _ in range(25):
        system = random_system(rng, num_vars=5)
        for engine in (monpc_saturate, pc_saturate):
            if engine(system, 2).refuted:
                assert engine(system, 3).refuted


def test_basis_leading_monomials_distinct_and_reduced():
    rng = random.Random(24)
    for _ in range(20):
        system = random_system(rng, num_vars=5)
        basis = monpc_saturate(system, 2, full_closure=True).basis
        leads = list(basis._rows)
        assert len(leads) == len(set(leads))
        for lead, row in basis._rows.items():
            monos = row[::2]
            assert monos[0] is lead and len(set(monos)) == len(monos)
            assert max(monos, key=mono_key) == lead
        # span membership is reduction to zero: every row is in its own span
        for p in basis.polynomials():
            assert basis.contains(p)


def test_queries_leave_the_basis_unchanged():
    basis = Basis(Q, 2, 3)
    basis.insert({(1, 2): 1, (1,): 1})
    basis.insert({(1,): 1, (): 1})  # now leads the first row's tail monomial
    before = dict(basis._rows)
    assert basis.contains({(1, 2): 1, (): -1})
    assert not basis.span_monomial((1, 2))
    assert basis._rows == before  # the first row's stale tail is not reduced
    rng = random.Random(31)
    for field in (Q, Field(3)):
        for _ in range(10):
            basis = monpc_saturate(random_system(rng, num_vars=5, field=field), 2,
                                   full_closure=True).basis
            before = dict(basis._rows)
            for p in basis.polynomials():
                assert basis.contains(p)
            for lead in before:
                assert basis.span_monomial(lead) == (not _reduce_by_rescan(basis, {lead: 1}))
            assert basis._rows == before


def _reduce_by_rescan(basis, vec):
    """Reference reduction: rescan vec for its largest hit on every step."""
    f, rows = basis.field, basis._rows
    while True:
        hits = [m for m in vec if m in rows]
        if not hits:
            break
        m = max(hits, key=mono_key)
        row = dict(zip(rows[m][::2], rows[m][1::2]))
        if f.is_rational:
            g = gcd(vec[m], row[m])
            alpha, factor = row[m] // g, vec[m] // g
            vec = {t: c * alpha for t, c in vec.items()}
        else:
            factor = vec[m]
        for t, c in row.items():
            s = vec.get(t, 0) - factor * c
            s = s if f.is_rational else s % f.p
            if s:
                vec[t] = s
            else:
                vec.pop(t, None)
    g = gcd(*vec.values()) if f.is_rational else 1
    return {t: c // g for t, c in vec.items()} if g > 1 else vec


def test_reduce_matches_rescan_reference():
    rng = random.Random(27)
    for field in (Q, Field(3)):
        for _ in range(15):
            num_vars = rng.randint(3, 6)
            basis = monpc_saturate(random_system(rng, num_vars=num_vars, field=field),
                                   2, full_closure=True).basis
            monos = [()] + [tuple(sorted(rng.sample(range(1, num_vars + 1), d)))
                            for d in (1, 1, 2, 2, 2) for _ in range(3)]
            for _ in range(20):
                terms = {m: rng.choice([-3, -1, 1, 2]) for m in rng.sample(monos, 5)}
                vec = basis._normalize(terms)
                assert basis._reduce(dict(vec)) == _reduce_by_rescan(basis, dict(vec))


def test_field_transfer_logged_not_asserted(capsys):
    # refutable over Q at degree k usually stays refutable over F_p; log
    # exceptions rather than asserting them away
    rng = random.Random(25)
    mismatches = 0
    for _ in range(20):
        axioms = []
        for _ in range(3):
            terms = []
            for _ in range(rng.randint(1, 3)):
                d = rng.randint(0, 2)
                mono = tuple(sorted(rng.sample(range(1, 5), d)))
                terms.append((mono, rng.choice([-1, 1])))
            axioms.append(terms)
        q_system = PolySystem(Q, 4, [Polynomial(Q, t) for t in axioms])
        if not monpc_saturate(q_system, 2).refuted:
            continue
        assert not poly_system_has_boolean_zero(q_system)
        for p in (2, 3, 5):
            Fp = Field(p)
            p_system = PolySystem(Fp, 4, [Polynomial(Fp, t) for t in axioms])
            if not monpc_saturate(p_system, 2).refuted:
                mismatches += 1
                print(f"transfer gap at p={p}: {q_system.axioms}")
    print(f"field transfer mismatches: {mismatches}")


def test_monpc_extend_matches_cold_start():
    rng = random.Random(26)
    for _ in range(15):
        base = random_system(rng, num_vars=5, n_axioms=3)
        extra = random_system(rng, num_vars=5, n_axioms=1).axioms
        warm = monpc_extend(monpc_saturate(base, 2, full_closure=True).basis,
                            extra, full_closure=True)
        cold = monpc_saturate(PolySystem(Q, 5, base.axioms + extra), 2, full_closure=True)
        assert warm.refuted == cold.refuted
        assert warm.basis.dimension == cold.basis.dimension
        for p in cold.basis.polynomials():
            assert warm.basis.contains(p)


def test_monpc_extend_leaves_its_base_as_it_was():
    # an extension shares the base's stored rows, which both only ever
    # replace, and grows a copy of its quotient: extending one base twice
    # must find it as it was before
    rng = random.Random(27)
    shared = 0
    for field in (Q, Field(3)):
        for _ in range(10):
            base = monpc_saturate(random_system(rng, num_vars=5, n_axioms=2, field=field), 3,
                                  full_closure=True).basis
            rows = dict(base._rows)
            lifted = set(base.lifted)
            table, wide, dimension = list(base._nbr), set(base._wide), base.dimension
            for _ in range(2):
                extra = random_system(rng, num_vars=5, n_axioms=2, field=field).axioms
                warm = monpc_extend(base, extra, full_closure=True).basis
                assert base._rows == rows and base.lifted == lifted
                assert base._nbr == table and base._wide == wide
                assert base.dimension == dimension
                shared += sum(warm._rows.get(lead) is row for lead, row in base._rows.items())
    assert shared  # not copied row by row


def test_monpc_extend_of_a_refuted_early_exit_base():
    # the base stopped at its refutation with rows left unlifted; its
    # extension stops after at most one absorb, refuted, reports the whole
    # space and leaves the base as it was
    rng = random.Random(31)
    whole = sum(comb(5, d) for d in range(4))
    refuted = 0
    for field in (Q, Field(3)):
        for _ in range(20):
            base = monpc_saturate(random_system(rng, num_vars=5, n_axioms=3, field=field), 3).basis
            if not base.refuted:
                continue
            refuted += 1
            rows, lifted = dict(base._rows), set(base.lifted)
            for extra in ([], random_system(rng, num_vars=5, n_axioms=2, field=field).axioms):
                res = monpc_extend(base, extra)
                assert res.refuted and res.basis.dimension == whole
                assert len(res.basis._rows) <= len(rows) + 1
                assert base._rows == rows and base.lifted == lifted
    assert refuted >= 30


def test_queries_and_inserts_check_their_monomials():
    # the same checks without a quotient, with one given at construction,
    # and with one that a closure grew: X1 + X2 and X1 - X2 put X1 and X2
    # in the span, so their multiples X1 X2, X1 X3 and X2 X3 join them
    grown = monpc_saturate(PolySystem(Q, 3, [P([((1,), 1), ((2,), 1)]),
                                             P([((1,), 1), ((2,), -1)])]), 2).basis
    assert grown.in_quotient((1,)) and grown.in_quotient((2,)) and not grown.in_quotient((3,))
    assert grown.quotient_size() == 0 and grown.dimension == 5
    for basis in (Basis(Q, 2, 3), Basis(Q, 2, 3, [(1, 2)]), grown):
        for bad in ((7,), (0,), (2, 1), (1, 1), (True,), (1.0,), 1):
            for query in (lambda: basis.contains({bad: 1}), lambda: basis.span_monomial(bad),
                          lambda: basis.insert({bad: 1})):
                with pytest.raises(UsageError):
                    query()
        for query in (lambda: basis.contains({(1, 2, 3): 1}), lambda: basis.span_monomial((1, 2, 3)),
                      lambda: basis.insert(P([((1, 2, 3), 1), ((), 1)]))):
            with pytest.raises(DegreeOverflowError):
                query()
        assert not basis.contains({(3,): 1, (): 1})


def test_contains_reads_the_span_as_stored():
    # a closure that stops at its refutation counts the whole space in its
    # dimension, but contains reads only the rows and quotient it holds:
    # X1 - 1 and X1 refute in the axiom lifts, and only the full closure
    # goes on to lift the constant row and put X2 in the span
    system = PolySystem(Q, 3, [P([((1,), 1), ((), -1)]), P([((1,), 1)])])
    for saturate in ENGINES.values():
        early = saturate(system, 2).basis
        full = saturate(system, 2, full_closure=True).basis
        assert early.refuted and full.refuted
        assert early.dimension == full.dimension == 7
        assert not early.contains({(2,): 1})
        assert full.contains({(2,): 1})


def test_monpc_extend_rejects_bad_axioms():
    # base closures over variables 1..3 at k = 2, with a quotient ({X1 X2}) and without
    for base_axioms in ([P([((1, 2), 1)])], [P([((1,), 1), ((2,), 1)])]):
        basis = monpc_saturate(PolySystem(Q, 3, base_axioms), 2).basis
        with pytest.raises(UsageError):
            monpc_extend(basis, [P([((4,), 1), ((), -1)])])  # variable num_vars + 1
        with pytest.raises(DegreeOverflowError):
            monpc_extend(basis, [P([((1, 2, 3), 1)])])
        with pytest.raises(UsageError):
            monpc_extend(basis, [P([((1,), 1)], Field(3))])


def test_json_reader_requires_booleanity():
    # the engines assume the booleanity axioms, so a system that drops them is refused
    obj = {"field": {"kind": "Q"}, "num_vars": 1, "polys": [[{"coef": "2", "mono": [1]}]]}
    assert loads_system(json.dumps(obj)).num_vars == 1
    assert loads_system(json.dumps({**obj, "booleanity": True})).num_vars == 1
    for value in (False, 0, "true"):
        with pytest.raises(UsageError):
            loads_system(json.dumps({**obj, "booleanity": value}))
    assert "booleanity" not in dumps_system(loads_system(json.dumps(obj)))


def test_json_round_trip():
    F3 = Field(3)
    system = PolySystem(F3, 3, [P([((1, 3), 2), ((), 1)], F3)])
    again = loads_system(dumps_system(system))
    assert again.field == F3
    assert again.num_vars == 3
    assert again.axioms == system.axioms
    q_system = PolySystem(Q, 2, [P([((1,), Fraction(-7, 3))])])
    assert loads_system(dumps_system(q_system)).axioms == q_system.axioms


def _plain_reduce(f, rows, vec):
    """Reduce vec by rescanning for its largest hit, over the field's own
    operations; rows maps each lead to a monic row."""
    vec = {m: c for m, c in vec.items() if c != 0}
    while True:
        hits = [m for m in vec if m in rows]
        if not hits:
            return vec
        m = max(hits, key=mono_key)
        c = vec[m]
        for t, r in rows[m].items():
            s = f.sub(vec.get(t, f.zero()), f.mul(c, r))
            if s == 0:
                vec.pop(t, None)
            else:
                vec[t] = s


def _plain_insert(f, rows, vec):
    vec = _plain_reduce(f, rows, vec)
    if vec:
        lead = max(vec, key=mono_key)
        inv = f.inv(vec[lead])
        rows[lead] = {m: f.mul(inv, c) for m, c in vec.items()}


def _times(f, vec, x):
    return Polynomial(f, [(m + (x,), c) for m, c in vec.items()]).terms


def _plain_axiom_lifts(system, k):
    """Rows spanning every axiom lift reachable one variable at a time
    while the lift stays nonzero and within degree k."""
    f, n = system.field, system.num_vars
    rows = {}
    for p in system.axioms:
        _plain_insert(f, rows, dict(p.terms))
        seen, frontier = {()}, [((), dict(p.terms))]
        while frontier:
            m, lifted = frontier.pop()
            for x in range(1, n + 1):
                m2 = tuple(sorted(set(m) | {x}))
                if m2 in seen:
                    continue
                q = _times(f, lifted, x)
                if q and max(map(len, q)) <= k:
                    seen.add(m2)
                    _plain_insert(f, rows, dict(q))
                    frontier.append((m2, q))
    return rows


def _reference_monpc(system, k):
    """Monomial-PC closure computed the plain way, as an oracle for the
    engine's monomial quotient, its lifting of linear axioms and its lazily
    tail-reduced rows.  After the axiom lifts, every spanned monomial of
    degree < k is lifted by every variable until nothing changes."""
    f, n = system.field, system.num_vars
    rows = _plain_axiom_lifts(system, k)
    done = set()
    while True:
        fresh = [m for m in rows if len(m) < k and m not in done
                 and not _plain_reduce(f, rows, {m: f.one()})]
        if not fresh:
            return rows
        for m in fresh:
            done.add(m)
            for x in range(1, n + 1):
                _plain_insert(f, rows, _times(f, {m: f.one()}, x))


def _reference_pc(system, k):
    """Full-PC closure by the Gram/kernel route, as an oracle for the
    engine's echelon sub-degree rows and its lifting of new rows only.

    Every round solves for the combinations of the rows whose degree-k
    coordinates vanish (gauss_solve); they generate {p in span : deg(p) < k}.
    Over Q the generators are compressed through the Gram square
    (compress_image), which has the same image.  Every generator is lifted
    by every variable, every round, until nothing changes."""
    f, n = system.field, system.num_vars
    rows = _plain_axiom_lifts(system, k)
    while True:
        leads = tuple(rows)
        top = tuple({m for r in rows.values() for m in r if len(m) == k})
        low = tuple({m for r in rows.values() for m in r if len(m) < k})
        A = Matrix(f, top, leads, {(m, L): c for L in leads
                                   for m, c in rows[L].items() if len(m) == k})
        _, kernel = gauss_solve(A, Vector(f, top, {}))
        entries = {}
        for j, kv in enumerate(kernel):
            for L, coef in kv.entries.items():
                for m, c in rows[L].items():
                    entries[(m, j)] = f.add(entries.get((m, j), f.zero()), f.mul(coef, c))
        N = Matrix(f, low, tuple(range(len(kernel))), entries)
        if f.is_rational:
            N = compress_image(N)
        gens = {}
        for (m, j), c in N.entries.items():
            gens.setdefault(j, {})[m] = c
        size = len(rows)
        for g in gens.values():
            for x in range(1, n + 1):
                _plain_insert(f, rows, _times(f, g, x))
        if len(rows) == size:
            return rows


def _random_axioms(rng, field, num_vars):
    axioms = []
    for _ in range(rng.randint(1, 5)):
        terms = []
        for _ in range(rng.choice([1, 1, 2, 3])):
            mono = tuple(sorted(rng.sample(range(1, num_vars + 1), rng.choice([0, 1, 1, 2]))))
            terms.append((mono, rng.choice([-2, -1, 1, 2])))
        axioms.append(P(terms, field))
    return axioms


def _wide_monomial_systems(field):
    """Systems with a single-term axiom of three variables, next to one of
    one variable, one of two, a linear and a nonlinear axiom."""
    wide = P([((1, 3, 5), 1)], field)
    linear = P([((1,), 1), ((2,), 1), ((), -1)], field)
    nonlinear = P([((2, 4), 1), ((3,), -1)], field)
    return [PolySystem(field, 5, [wide]),
            PolySystem(field, 5, [wide, linear, nonlinear]),
            PolySystem(field, 5, [wide, P([((2,), 1)], field), linear, nonlinear]),
            PolySystem(field, 5, [wide, P([((4, 5), 2)], field), nonlinear,
                                  P([((3,), 1), ((4,), 1), ((5,), 1), ((), -1)], field)])]


def _assert_same_span(got, ref):
    """got is a SaturationResult, ref a reference closure's rows."""
    assert got.refuted == (() in ref)
    assert got.basis.dimension == len(ref)
    ref_basis = Basis(got.basis.field, got.basis.k, got.basis.num_vars)
    for row in ref.values():
        ref_basis.insert(row)
    for poly in got.basis.polynomials():
        assert ref_basis.contains(poly)
    for row in ref.values():
        assert got.basis.contains(row)
    return ref_basis


def test_monpc_matches_reference_closure():
    rng = random.Random(28)
    for field in (Q, Field(3)):
        for _ in range(40):
            num_vars = rng.randint(2, 5)
            axioms = _random_axioms(rng, field, num_vars)
            k = rng.choice([2, 3])
            system = PolySystem(field, num_vars, axioms)
            got = monpc_saturate(system, k, full_closure=True)
            ref_basis = _assert_same_span(got, _reference_monpc(system, k))
            for d in range(k + 1):
                for m in combinations(range(1, num_vars + 1), d):
                    assert got.basis.span_monomial(m) == ref_basis.contains({m: 1})
        # a single-term axiom of three variables is lifted into the rows, not the quotient
        for system in _wide_monomial_systems(field):
            for k in (3, 4):
                _assert_same_span(monpc_saturate(system, k, full_closure=True),
                                  _reference_monpc(system, k))


def test_pc_matches_reference_closure():
    rng = random.Random(29)
    for field in (Q, Field(3)):
        # X1 = 1 and X_i -> X_(i+1): each round derives the next 1 - X_i
        # below the degree bound, so the closure takes several rounds
        chain = [P([((), 1), ((1,), -1)], field)]
        chain += [P([((i,), 1), ((i, i + 1), -1)], field) for i in range(1, 5)]
        for k in (2, 3):
            systems = [PolySystem(field, 5, chain), PolySystem(field, 5, chain + [P([((5,), 1)], field)])]
            for _ in range(20):
                num_vars = rng.randint(2, 5)
                systems.append(PolySystem(field, num_vars, _random_axioms(rng, field, num_vars)))
            for system in systems:
                got = pc_saturate(system, k, full_closure=True)
                _assert_same_span(got, _reference_pc(system, k))
                assert pc_saturate(system, k).refuted == got.refuted
        for system in _wide_monomial_systems(field):
            for k in (3, 4):
                _assert_same_span(pc_saturate(system, k, full_closure=True),
                                  _reference_pc(system, k))


def test_pc_k4_cfi_pair_at_degree_two():
    # the colour-restricted isomorphism system of the K4 twisted pair is
    # not refuted at degree 2, over Q as over F_3; over Q a dense
    # elimination on the degree-2 coordinates once ran out of memory here.
    # The stored row and term counts pin the rows as this engine keeps them
    a, b = twisted_pair(K4, 2)
    ga, gb = to_graph(a), to_graph(b)
    terms = {None: (34055, 198794), 3: (32695, 198621)}  # at k = 2 and 3, over Q and F_3
    for field in (Q, Field(3)):
        system = encode_iso_poly_colored(ga, gb, field)
        system = PolySystem(field, system.num_vars, [p for p in system.axioms if p.degree <= 2])
        start = time.monotonic()
        result = pc_saturate(system, 2)
        assert time.monotonic() - start < 60
        assert not result.refuted
        assert result.basis.dimension == 6319
        rows = result.basis._rows
        assert len(rows) == 5647 and len(result.basis.lifted) == 106
        assert sum(len(row) // 2 for row in rows.values()) == terms[field.p][0]
        # full PC refutes the pair at degree 3, where monomial PC needs degree 4
        system = encode_iso_poly_colored(ga, gb, field)
        start = time.monotonic()
        result = pc_saturate(system, 3)
        assert time.monotonic() - start < 60
        assert result.refuted
        rows = result.basis._rows
        assert len(rows) == 77774
        assert sum(len(row) // 2 for row in rows.values()) == terms[field.p][1]


def _exactly_one_blocks(rng, field):
    """An isomorphism-shaped system: per colour block of size s, a grid of
    s x s variables whose row and column sums are 1 (so one axiom per block
    is dependent), as encode_iso_poly_colored writes them, plus random pair
    conflict monomials; some systems also get a constant axiom, a random
    linear axiom, a single-variable monomial or a nonlinear axiom."""
    sizes = rng.choice([[2, 2], [3], [1, 2, 2], [1, 1, 2], [2, 1]])
    axioms, num_vars = [], 0
    for s in sizes:
        grid = [[num_vars + s * i + j + 1 for j in range(s)] for i in range(s)]
        num_vars += s * s
        for line in grid + [list(col) for col in zip(*grid)]:
            axioms.append(P([((x,), 1) for x in line] + [((), -1)], field))
    for _ in range(rng.randint(0, 5)):
        axioms.append(P([(tuple(rng.sample(range(1, num_vars + 1), 2)), 1)], field))
    mix = rng.choice(["none", "none", "constant", "linear", "unit", "nonlinear"])
    if mix == "constant":
        axioms.append(P([((), rng.choice([1, 2]))], field))
    elif mix == "linear":
        axioms.append(P([((x,), rng.choice([-1, 1, 2])) for x in rng.sample(range(1, num_vars + 1), 3)]
                        + [((), rng.choice([0, 1]))], field))
    elif mix == "unit":
        axioms.append(P([((rng.randint(1, num_vars),), 1)], field))
    elif mix == "nonlinear":
        x, y, z = rng.sample(range(1, num_vars + 1), 3)
        axioms.append(P([((x, y), 1), ((z,), rng.choice([-1, 1])), ((), rng.choice([0, -1]))], field))
    rng.shuffle(axioms)
    return PolySystem(field, num_vars, axioms)


def test_exactly_one_blocks_match_reference_closures():
    # the engines lift only an echelon form of the linear axioms, and each
    # echelon row only by monomials free of the earlier rows' leads; the
    # reference closures lift every axiom by every monomial
    rng = random.Random(30)
    for field in (Q, Field(3)):
        for k in (2, 3):
            for _ in range(8):
                system = _exactly_one_blocks(rng, field)
                got = monpc_saturate(system, k, full_closure=True)
                _assert_same_span(got, _reference_monpc(system, k))
                assert monpc_saturate(system, k).refuted == got.refuted
                got = pc_saturate(system, k, full_closure=True)
                _assert_same_span(got, _reference_pc(system, k))


def test_linear_systems_match_reference_closure():
    # the lifts by monomials of degree k come from the axioms, not from
    # their echelon form: 2 X3 + 1 lifted by X3 gives 3 X3 and refutes at
    # k = 1, while a combination's top-degree lift may not be derivable
    rng = random.Random(33)
    for field in (Q, Field(3), Field(2)):
        for _ in range(40):
            num_vars = rng.randint(2, 4)
            axioms = []
            for _ in range(rng.randint(2, 3)):
                terms = [((x,), rng.choice([-2, -1, 1, 2]))
                         for x in rng.sample(range(1, num_vars + 1), rng.randint(1, num_vars))]
                axioms.append(P(terms + [((), rng.choice([-1, 0, 1]))], field))
            system = PolySystem(field, num_vars, axioms)
            for k in (1, 2):
                _assert_same_span(monpc_saturate(system, k, full_closure=True),
                                  _reference_monpc(system, k))


def test_monpc_extend_with_linear_extras_matches_cold_start():
    rng = random.Random(32)
    for field in (Q, Field(3)):
        for _ in range(8):
            system = _exactly_one_blocks(rng, field)
            linear = [p for p in system.axioms if p.degree <= 1]
            extra = rng.sample(linear, rng.randint(1, len(linear)))
            base = [p for p in system.axioms if all(p is not q for q in extra)]
            warm = monpc_extend(monpc_saturate(PolySystem(field, system.num_vars, base), 3,
                                               full_closure=True).basis,
                                extra, full_closure=True)
            cold = monpc_saturate(system, 3, full_closure=True)
            assert warm.refuted == cold.refuted
            assert warm.basis.dimension == cold.basis.dimension
            for p in cold.basis.polynomials():
                assert warm.basis.contains(p)


def test_monpc_k4_cfi_pair_at_degree_three():
    # the row count depends only on the span: the 233,560 dimensions less
    # the 150,144 monomials of degree <= 3 that are multiples of a conflict
    # monomial or of an in-span monomial of degree 1 or 2, the quotient
    # that the closure grows.  The stored term counts pin the rows as this
    # engine keeps them, tails as far as reduced
    a, b = twisted_pair(K4, 2)
    ga, gb = to_graph(a), to_graph(b)
    terms = {None: 215022, 3: 214799}  # over Q and over F_3
    for field in (Q, Field(3)):
        result = monpc_saturate(encode_iso_poly_colored(ga, gb, field), 3)
        assert not result.refuted
        rows = result.basis._rows
        assert len(rows) == 83416
        assert result.basis._count_quotient() == 150144
        assert result.basis.quotient_size() == 67712
        assert sum(len(row) // 2 for row in rows.values()) == terms[field.p]
        assert result.basis.dimension == 233560
        # the benchmark counts rows and terms through the dict view
        view = result.basis.vectors
        assert len(view) == len(rows) and sum(map(len, view.values())) == terms[field.p]


def _relabelled(system, perm):
    """The system with variable i renamed perm[i]."""
    return PolySystem(system.field, system.num_vars,
                      [P([(tuple(perm[v] for v in m), c) for m, c in p.terms.items()], system.field)
                       for p in system.axioms])


def _mixed_system(rng, field):
    """Single-term axioms of one to three variables next to linear and
    nonlinear axioms."""
    n = rng.randint(4, 6)
    axioms = [P([(tuple(rng.sample(range(1, n + 1), rng.randint(1, 3))), 1)], field)
              for _ in range(rng.randint(1, 3))]
    for _ in range(rng.randint(1, 2)):
        axioms.append(P([((x,), rng.choice([-1, 1, 2])) for x in rng.sample(range(1, n + 1), 3)]
                        + [((), rng.choice([0, -1]))], field))
    for _ in range(rng.randint(0, 2)):
        x, y, z = rng.sample(range(1, n + 1), 3)
        axioms.append(P([((x, y), 1), ((z,), rng.choice([-1, 1])), ((), rng.choice([0, 1]))],
                        field))
    return PolySystem(field, n, axioms)


def test_verdicts_invariant_under_variable_relabelling():
    # renaming the variables changes the graded lex order, so the engines
    # pick other leads, other echelon rows and other lifts to skip; the
    # verdict, the dimension and the minimal degree must not change, also
    # when a refutation stops the closure early
    rng = random.Random(34)
    for field in (Q, Field(3)):
        for _ in range(12):
            system = _mixed_system(rng, field)
            ids = list(range(1, system.num_vars + 1))
            perm = dict(zip(ids, rng.sample(ids, len(ids))))
            other = _relabelled(system, perm)
            for engine, saturate in ENGINES.items():
                for k, full_closure in product((3, 4), (True, False)):
                    a, b = (saturate(s, k, full_closure) for s in (system, other))
                    assert (a.refuted, a.basis.dimension) == (b.refuted, b.basis.dimension)
                assert list(degree_sweep(system, engine, 4)) == list(degree_sweep(other, engine, 4))
    a, b = twisted_pair(K4, 2)
    ga, gb = to_graph(a), to_graph(b)
    for field in (Q, Field(3)):
        system = encode_iso_poly_colored(ga, gb, field)
        system = PolySystem(field, system.num_vars, [p for p in system.axioms if p.degree <= 2])
        ids = list(range(1, system.num_vars + 1))
        other = _relabelled(system, dict(zip(ids, rng.sample(ids, len(ids)))))
        for saturate, dimension in ((monpc_saturate, 5400), (pc_saturate, 6319)):
            for s in (system, other):
                result = saturate(s, 2)
                assert not result.refuted
                assert result.basis.dimension == dimension


def _construction_multiples(system, k):
    """The number of monomials of degree <= k divisible by a single-term
    axiom of one or two variables, the quotient a closure starts from."""
    gens = [set(m) for p in system.axioms if len(p.terms) == 1 for m in p.terms if 0 < len(m) <= 2]
    return sum(any(g <= set(m) for g in gens)
               for d in range(k + 1) for m in combinations(range(1, system.num_vars + 1), d))


def _assert_grown_quotient(basis, construction, ref=None):
    """No stored row is led by a quotient monomial, and quotient_size()
    counts the multiples of the construction system's single-term axioms
    only.  Given a reference closure's rows, every monomial of degree 1 to
    k - 1 in their span lies in the quotient."""
    assert not any(basis.in_quotient(lead) for lead in basis._rows)
    assert basis.quotient_size() == _construction_multiples(construction, basis.k)
    if ref is None:
        return
    ref_basis = Basis(basis.field, basis.k, basis.num_vars)
    for row in ref.values():
        ref_basis.insert(row)
    for d in range(1, basis.k):
        for m in combinations(range(1, basis.num_vars + 1), d):
            assert basis.in_quotient(m) == ref_basis.contains({m: 1}), m


def test_closures_grow_the_quotient_with_every_spanned_monomial_below_k():
    # both engines' rules put every multiple of degree <= k of an in-span
    # monomial of degree 1 to k - 1 in the span, so the closures make each
    # such monomial a quotient generator and evict the rows its multiples
    # led; at k = 4 the generators of three variables go in the wide set
    rng = random.Random(37)
    references = {"monpc": _reference_monpc, "pc": _reference_pc}
    for field in (Q, Field(3)):
        systems = [random_system(rng, num_vars=5, field=field) for _ in range(4)]
        systems += [_exactly_one_blocks(rng, field) for _ in range(4)]
        systems += [_mixed_system(rng, field) for _ in range(4)]
        for system in systems + _wide_monomial_systems(field):
            for k in (2, 3, 4):
                if system.num_vars > 6 and k == 4:
                    continue  # the reference closures grow too slow
                usable = PolySystem(field, system.num_vars, [p for p in system.axioms if p.degree <= k])
                for engine, saturate in ENGINES.items():
                    ref = references[engine](usable, k)
                    _assert_grown_quotient(saturate(usable, k, True).basis, usable, ref)
                    early = saturate(usable, k)
                    _assert_grown_quotient(early.basis, usable, None if early.refuted else ref)
                base = PolySystem(field, system.num_vars, usable.axioms[:1])
                for full_closure in (True, False):
                    warm = monpc_extend(monpc_saturate(base, k, full_closure).basis,
                                        usable.axioms[1:], full_closure)
                    _assert_grown_quotient(warm.basis, base,
                                           None if warm.refuted and not full_closure
                                           else references["monpc"](usable, k))


def test_closures_do_not_read_the_row_view(monkeypatch):
    # Basis.vectors builds a dict on every read and is kept for the
    # benchmark's row and term counts; the engines read the stored rows
    def refuse(basis):
        raise AssertionError("Basis.vectors was read")

    monkeypatch.setattr(Basis, "vectors", property(refuse))
    rng = random.Random(36)
    for field in (Q, Field(3)):
        for _ in range(8):
            system = _mixed_system(rng, field)
            for full_closure in (True, False):
                cold = monpc_saturate(system, 3, full_closure)
                pc_saturate(system, 3, full_closure)
                base = monpc_saturate(PolySystem(field, system.num_vars, system.axioms[:1]), 3,
                                      full_closure).basis
                warm = monpc_extend(base, system.axioms[1:], full_closure)
                assert (warm.refuted, warm.basis.dimension) == (cold.refuted, cold.basis.dimension)
            for engine in ENGINES:
                assert list(degree_sweep(system, engine, 3))


def _random_generators(rng, n, k):
    """Random single and pair generators, and wide ones of three to k
    variables, over variables 1..n."""
    small = [(v,) for v in rng.sample(range(1, n + 1), rng.randint(0, 2))]
    small += [tuple(sorted(rng.sample(range(1, n + 1), 2))) for _ in range(rng.randint(0, 4))]
    wide = [tuple(sorted(rng.sample(range(1, n + 1), rng.randint(3, k))))
            for _ in range(rng.randint(0, 3) if k >= 3 else 0)]
    return small, wide


def _divides(gens, m):
    return any(set(g) <= set(m) for g in gens)


def _basis_with(n, k, small, wide):
    basis = Basis(Q, k, n, small)
    for g in wide:
        basis._add_generator(g)
    return basis


def test_walk_matches_brute_force():
    # from the constant the walk yields each monomial of degree <= d
    # outside the quotient once, with its bits and the variables above it
    # that keep it outside; from a root m outside the quotient it yields
    # each multiple of m of degree <= k that no single or pair generator
    # divides, a wide one dividing it or not
    rng = random.Random(38)
    n, wide_seen = 7, 0
    for _ in range(60):
        k = rng.randint(2, 4)
        small, wide = _random_generators(rng, n, k)
        wide_seen += bool(wide)
        basis = _basis_with(n, k, small, wide)
        every = [m for d in range(k + 1) for m in combinations(range(1, n + 1), d)]
        outside = [m for m in every if not _divides(small + wide, m)]
        for d in range(k + 1):
            walked = list(basis._walk(d))
            assert sorted(m for m, _, _ in walked) == sorted(m for m in outside if len(m) <= d)
            for m, bits, cands in walked:
                assert bits == 1 | sum(1 << v for v in m)
                above = range(max(m, default=0) + 1, n + 1)
                assert cands == sum(1 << v for v in above if not _divides(small + wide, m + (v,)))
        for root in outside:
            if not 0 < len(root) < k:
                continue
            multiples = [m for m in every if set(root) <= set(m) and not _divides(small, m)]
            assert sorted(m for m, _, _ in basis._walk(k, root)) == sorted(multiples)
    assert wide_seen >= 20


def test_grow_evicts_the_rows_its_multiples_led():
    # _grow finds the rows to evict by a walk from m when that visits fewer
    # monomials than there are rows, and by a scan of the leads otherwise;
    # either way it evicts exactly the rows led by multiples of m and hands
    # back their tails less the quotient terms
    rng = random.Random(39)
    n, sides = 6, set()
    for _ in range(80):
        k = rng.randint(2, 4)
        small, wide = _random_generators(rng, n, k)
        basis = _basis_with(n, k, small, wide)
        every = [m for d in range(k + 1) for m in combinations(range(1, n + 1), d)]
        for _ in range(rng.randint(2, 60)):
            basis.insert({m: rng.choice([-2, -1, 1, 2]) for m in rng.sample(every, rng.randint(1, 4))})
        roots = [m for m in every if 0 < len(m) < k and not basis.in_quotient(m)]
        if not roots:
            continue
        m = rng.choice(roots)
        rows = dict(basis._rows)
        sides.add(sum(comb(n - len(m), e) for e in range(k - len(m) + 1)) < len(rows))
        left = basis._grow(m)
        evicted = [lead for lead in rows if set(m) <= set(lead)]
        assert basis.in_quotient(m)
        assert set(basis._rows) == set(rows) - set(evicted)
        tails = [{t: c for t, c in zip(rows[lead][2::2], rows[lead][3::2]) if not basis.in_quotient(t)}
                 for lead in evicted]
        assert sorted(sorted(vec.items()) for vec in left) == sorted(sorted(vec.items()) for vec in tails if vec)
    assert sides == {True, False}
