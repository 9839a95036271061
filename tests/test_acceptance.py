"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they
complete.  Criteria with stated time budgets assert them.
"""

import json
import random
import subprocess
import sys
import time
from itertools import product

from conftest import (child_env, poly_system_has_boolean_zero, random_cnf, random_horn_cnf,
                      random_poslfp, random_structure, sat_oracle, stage_table_eval)
from prooflab.algebra import (Matrix, RATIONALS, Vector, compress_image,
                              gauss_solve, gram_solvable, kernel_generators)
from prooflab.cfi import K4, automorphism_space, build_cfi, cfi_isomorphic, treewidth
from prooflab.encoders import (brute_force_homomorphism, clique_structure,
                               cycle_structure, encode_iso_poly_colored,
                               encode_kconsistency_cnf, k_consistency)
from prooflab.experiments import calibration_pairs, experiment_degree_growth
from prooflab.games import ThresholdGame, encode_threshold_axioms, solve_threshold_game
from prooflab.logic import eval_poslfp, horn_encode, parse_formula
from prooflab.pc import (Polynomial, PolySystem, min_refutation_degree, monpc_extend,
                         monpc_saturate, pc_saturate)
from prooflab.resolution import horn_refute, kres_refutes, kres_saturate, two_sat_oracle
from prooflab.wl import wl_sweep


def report(num: int, ok: bool, detail: str):
    print(f"\nACCEPTANCE CRITERION {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_horn_completeness():
    rng = random.Random(1001)
    t0 = time.time()
    for _ in range(500):
        f = random_horn_cnf(rng, rng.randint(1, 18), rng.randint(1, 40))
        assert horn_refute(f).refuted == (not sat_oracle(f))
    elapsed = time.time() - t0
    report(1, elapsed < 10.0, f"500 Horn formulas vs brute force in {elapsed:.1f}s")


def test_criterion_2_poslfp_horn_equivalence():
    rng = random.Random(1002)
    t0 = time.time()
    total = efp0 = 0
    while total < 100:
        a = random_structure(rng, max_n=5)
        phi = parse_formula(random_poslfp(rng), {})
        want = eval_poslfp(a, phi)
        assert stage_table_eval(a, phi) == want
        enc = horn_encode(a, phi)
        assert horn_refute(enc.cnf).refuted == want
        if phi.is_efp0():
            efp0 += 1
            assert max((len(c) for c in enc.cnf.clauses), default=0) <= 3
            if want:
                assert kres_refutes(enc.cnf, 3)
            else:
                assert not kres_refutes(enc.cnf, 3)
        total += 1
    elapsed = time.time() - t0
    report(2, elapsed < 60.0 and efp0 >= 20,
           f"{total} pairs ({efp0} EFP0) equivalent in {elapsed:.1f}s")


def test_criterion_3_width2_matches_twosat():
    rng = random.Random(1003)
    for _ in range(200):
        f = random_cnf(rng, rng.randint(1, 10), rng.randint(1, 25), max_width=2)
        sat = sat_oracle(f)
        assert two_sat_oracle(f) == sat
        assert kres_saturate(f, 2).refuted == (not sat)
    report(3, True, "200 random 2-CNFs, three-way agreement")


def test_criterion_4_rational_linear_algebra():
    rng = random.Random(1004)
    t0 = time.time()
    for _ in range(200):
        nr, nc = rng.randint(1, 8), rng.randint(1, 8)
        dense = [[rng.randint(-3, 3) for _ in range(nc)] for _ in range(nr)]
        M = Matrix.from_dense(RATIONALS, dense)
        if rng.random() < 0.5:
            x = [rng.randint(-3, 3) for _ in range(nc)]
            b = Vector.from_list(RATIONALS, [sum(r * v for r, v in zip(row, x)) for row in dense])
        else:
            b = Vector.from_list(RATIONALS, [rng.randint(-3, 3) for _ in range(nr)])
        assert gram_solvable(M, b) == (gauss_solve(M, b) is not None)
        S = kernel_generators(M)
        assert M.matmul(S).entries == {}
        assert S.rank() == nc - M.rank()
        NNt = compress_image(M)
        assert NNt.rank() == M.rank()
        for c in M.cols:
            col = Vector(RATIONALS, M.rows, {r: M.get(r, c) for r in M.rows if M.get(r, c) != 0})
            assert gauss_solve(NNt, col) is not None
    elapsed = time.time() - t0
    report(4, elapsed < 30.0, f"200 random systems, Gram/elimination/kernel agree in {elapsed:.1f}s")


def test_criterion_5_threshold_game_regions():
    # Lemma 4.6/4.7: adding X_v = 1 refutes exactly on W1, adding X_v = 0
    # exactly on W0 (the spec's criterion swaps the two regions relative to
    # the source construction; this asserts the sound orientation)
    rng = random.Random(1005)
    t0 = time.time()
    games_checked = 0
    while games_checked < 50:
        n = rng.randint(1, 10)
        edges = []
        for v in range(n):
            succ = rng.sample(range(v + 1, n), min(rng.randint(0, 3), n - v - 1))
            edges.extend((v, w) for w in succ)
        outdeg = [sum(1 for (u, _) in edges if u == v) for v in range(n)]
        theta = [rng.randint(0, outdeg[v] + 1) for v in range(n)]
        game = ThresholdGame(n, edges, theta)
        w0, w1 = solve_threshold_game(game)
        ax = encode_threshold_axioms(game)
        field = ax.system.field
        base = monpc_saturate(ax.system, 2, full_closure=True)
        assert not base.refuted
        for v in range(n):
            xid = ax.var_map[f"X_{v}"]
            as_one = Polynomial(field, [((xid,), 1), ((), -1)])
            as_zero = Polynomial(field, [((xid,), 1)])
            assert monpc_extend(base.basis, [as_one]).refuted == (v in w1)
            assert monpc_extend(base.basis, [as_zero]).refuted == (v in w0)
        games_checked += 1
    elapsed = time.time() - t0
    report(5, elapsed < 300.0,
           f"{games_checked} games decided node-by-node at degree 2 in {elapsed:.1f}s")


def test_criterion_6_pc_soundness_and_containment():
    rng = random.Random(1006)
    for _ in range(100):
        num_vars = rng.randint(2, 10)
        axioms = []
        for _ in range(rng.randint(1, 4)):
            terms = []
            for _ in range(rng.randint(1, 3)):
                d = rng.randint(0, 2)
                mono = tuple(sorted(rng.sample(range(1, num_vars + 1), d)))
                terms.append((mono, rng.choice([-2, -1, 1, 2])))
            axioms.append(Polynomial(RATIONALS, terms))
        system = PolySystem(RATIONALS, num_vars, axioms)
        rm = monpc_saturate(system, 2, full_closure=True)
        rp = pc_saturate(system, 2, full_closure=True)
        if rm.refuted or rp.refuted:
            assert not poly_system_has_boolean_zero(system)
        for p in rm.basis.polynomials():
            assert rp.basis.contains(p)
    report(6, True, "100 random systems: refutations sound, monpc span within pc span")


def test_criterion_7_wl_degree_calibration():
    pairs = calibration_pairs(include_cfi=True)
    offsets = {}
    wl_dims = {}
    for (name, g, h, _) in pairs:
        degree = min_refutation_degree(encode_iso_poly_colored(g, h), "monpc", 4)
        wl_dims[name] = wl_sweep(g, h, 3)
        assert degree is not None and wl_dims[name] is not None, name
        offsets[name] = degree - wl_dims[name]
    distinct = sorted(set(offsets.values()))
    uniform = len(distinct) == 1 and distinct[0] in (0, 1)
    c = distinct[0] if uniform else None

    # stability across runs: recompute a sample and compare
    for (name, g, h, _) in pairs[:3]:
        system = encode_iso_poly_colored(g, h)
        assert min_refutation_degree(system, "monpc", 4) - wl_sweep(g, h, 3) == offsets[name]

    # CFI/K4 twisted pair: its WL dimension is the base's treewidth
    (name, _, _, _) = pairs[-1]
    assert name == "cfi_k4_twisted"
    tw = treewidth(K4)
    report(7, uniform and wl_dims[name] == tw,
           f"c = {c} uniform over {len(offsets)} pairs; cfi_k4: wl = {wl_dims[name]}, "
           f"treewidth(K4) = {tw}, degree = {wl_dims[name] + offsets[name]}")


# prints the verdicts at degrees 3 and 4 of one sweep (a sweep stops at its
# first refutation), the child's CPU seconds and its own peak RSS.  The peak
# is VmHWM, in kB: on Linux ru_maxrss keeps across exec the peak of the
# process that spawned the child, here the test session
_K4_DEGREE_CHILD = """
import json, resource
from prooflab.cfi import K4, to_graph, twisted_pair
from prooflab.encoders import encode_iso_poly_colored
from prooflab.pc import degree_sweep
a, b = twisted_pair(K4, 2)
system = encode_iso_poly_colored(to_graph(a), to_graph(b))
verdicts = {k: refuted for k, refuted, _ in degree_sweep(system, "monpc", 4)}
usage = resource.getrusage(resource.RUSAGE_SELF)
with open("/proc/self/status") as status:
    peak_kb = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
print(json.dumps({"refuted_3": verdicts[3], "refuted_4": verdicts.get(4),
                  "cpu_s": usage.ru_utime + usage.ru_stime, "peak_rss_mb": peak_kb / 1024}))
"""


def test_cfi_k4_degree_is_four():
    # the minimal monomial-PC degree of the K4 colored twisted-pair system
    # is exactly 4, as criterion 7 finds, within a time and a memory bound.
    # The sweep over degrees 1 to 4 takes about 2 s of CPU at 36 MB peak
    # RSS on a shared 2-core machine, the degree-4 closure under 1 s of it.  It
    # runs in a fresh interpreter, so that the peak it reports is its own
    # and not the test session's.
    t0 = time.time()
    proc = subprocess.run([sys.executable, "-c", _K4_DEGREE_CHILD], env=child_env(),
                          capture_output=True, text=True, timeout=600)
    elapsed = time.time() - t0
    assert proc.returncode == 0, proc.stderr
    child = json.loads(proc.stdout.splitlines()[-1])
    assert not child["refuted_3"], "refuted at degree 3"
    assert child["refuted_4"], "not refuted at degree 4"
    assert elapsed < 300.0, f"the sweep took {elapsed:.0f}s of 300s ({child['cpu_s']:.1f}s of CPU)"
    assert child["peak_rss_mb"] < 72, f"peak RSS {child['peak_rss_mb']:.0f} MB, over 72 MB"


def test_criterion_8_cfi_isomorphism_classes():
    t0 = time.time()
    # p = 2: exhaustive over all 16 loads with shift-search confirmation
    structures = {lam: build_cfi(K4, 2, lam) for lam in product((0, 1), repeat=4)}
    classes = {}
    for lam, s in structures.items():
        classes.setdefault(s.total_load(), []).append(lam)
    assert len(classes) == 2
    from prooflab.cfi import apply_shift, shift_point_map
    und = sorted(tuple(sorted(e)) for e in K4.edges)
    shifts = []
    for vals in product(range(2), repeat=len(und)):
        pi = {}
        for (u, v), x in zip(und, vals):
            pi[(u, v)] = x
            pi[(v, u)] = x
        shifts.append(pi)
    for lam_a, a in structures.items():
        for lam_b, b in structures.items():
            witnessed = False
            for pi in shifts:
                if apply_shift(a, pi).lam == b.lam:
                    pm = shift_point_map(a, pi)
                    assert {(pm[x], pm[y], pm[z]) for (x, y, z) in a.cfi_tuples} == b.cfi_tuples
                    witnessed = True
                    break
            assert witnessed == cfi_isomorphic(a, b)
    elapsed = time.time() - t0
    assert elapsed < 60.0
    # p = 3: exactly 3 classes over all 81 loads
    classes3 = set()
    for lam in product((0, 1, 2), repeat=4):
        classes3.add(build_cfi(K4, 3, lam).total_load())
    assert len(classes3) == 3
    report(8, True, f"p=2: 2 classes with shift witnesses ({elapsed:.1f}s); p=3: 3 classes")


def test_criterion_9_automorphism_dimension():
    for p in (2, 3):
        aut = automorphism_space(K4, p)
        assert aut.dimension == 3
        und = sorted(tuple(sorted(e)) for e in K4.edges)
        count = 0
        for vals in product(range(p), repeat=len(und)):
            pi = {}
            for (u, v), x in zip(und, vals):
                pi[(u, v)] = x
                pi[(v, u)] = (-x) % p
            if all(sum(pi[(v, w)] for w in K4.neighbors(v)) % p == 0 for v in range(4)):
                count += 1
        assert count == p ** 3
    report(9, True, "dim 3 for p in {2, 3}, matching exhaustive enumeration")


def test_criterion_10_degree_growth():
    # Thm 6.2: no fixed degree refutes the isomorphism axioms of every CFI
    # twisted pair.  A finite ladder can certify the lower bound on each
    # rung: 2-WL splits none of the four pairs, and no monomial-PC
    # derivation of degree <= 3 refutes any of them.  A strict increase is
    # not checked: K4, prism and cube have treewidth 3 and Petersen has
    # treewidth 4, so with criterion 7's offset c = 1 the predicted minimal
    # degrees are 4, 4, 4, 5.  The first step shows only at Petersen, and
    # ruling out degree 4 there is a closure over ~2.5e8 monomials.
    bases = ["k4", "prism", "cube", "petersen"]
    t0 = time.time()
    rows = experiment_degree_growth(bases, p=2, field=RATIONALS,
                                    k_max=3, dim_max=2, timeout_s=1800.0)
    elapsed = time.time() - t0
    assert [row.get("base") for row in rows] == bases
    certified = all(row.get("status") == "done" and row.get("k_checked") == 3
                    and row.get("min_degree") is None
                    and "wl_dim" in row and row["wl_dim"] is None
                    for row in rows)
    cells = []
    for row in rows:
        degree = row.get("min_degree")
        bound = f">= {row.get('k_checked', 0) + 1}" if degree is None else f"= {degree}"
        wl = row.get("wl_dim", "unmeasured")
        cells.append(f"{row.get('base')}: {row.get('status')}, degree {bound}, "
                     f"wl_dim={'null' if wl is None else wl}, "
                     f"dims {row.get('basis_dims')}, last k in {row.get('k_seconds')}s")
    report(10, certified and elapsed <= 1800.0,
           f"{'; '.join(cells)}; {elapsed:.0f}s of 1800s; strict increase expected first "
           f"at Petersen (treewidth 4, degree 5), beyond desk scale")


def test_criterion_11_csp_dichotomy_on_cycles():
    template = clique_structure(2)
    for n in range(3, 11):
        cyc = cycle_structure(n)
        direct = k_consistency(cyc, template, 3)
        brute = brute_force_homomorphism(cyc, template)
        cnf = encode_kconsistency_cnf(cyc, template, 3)
        width = max(len(c) for c in cnf.clauses)
        resolution_sat = not kres_refutes(cnf, width)
        assert direct == resolution_sat == brute, f"C{n}"
    report(11, True, "cycles C3..C10: resolution, direct test, and brute force agree")
