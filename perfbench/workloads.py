"""The four workloads.

Each class builds its inputs from the seed in __init__ (the set-up) and
makes one round of verdict calls in `round`, checking every verdict
outside the timed calls.  In cfi-monpc and cfi-wl the seed picks only
what the checks sample, so the timed work is the same for every seed; in
resolution it draws the digraphs and in small-systems the relabellings
and the games.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from math import comb
from pathlib import Path

import oracles
from tracing import cpu_seconds

from prooflab import (BASE_LIBRARY, RATIONALS, ColoredGraph, Polynomial, PolySystem,
                      RelStructure, ThresholdGame, encode_iso_poly, encode_iso_poly_colored,
                      encode_kconsistency_cnf, encode_threshold_axioms, horn_encode,
                      horn_refute, k_consistency, kres_refutes, min_refutation_degree,
                      monpc_extend, monpc_saturate, parse_formula, pc_saturate,
                      solve_threshold_game, to_graph, twisted_pair, wl_distinguishes, wl_sweep)
from prooflab.algebra import Field
from prooflab.encoders import clique_structure, cycle_structure
from prooflab.experiments import calibration_pairs

ROOT = Path(__file__).resolve().parent.parent
F3 = Field(3)


def _closure(saturate, system, k, **kwargs):
    """A saturation together with its basis dimension, which is part of
    the verdict a caller reads."""
    res = saturate(system, k, **kwargs)
    return res, res.basis.dimension


def _up_to_degree(system: PolySystem, k: int) -> PolySystem:
    """The axioms a degree-k proof can use, as min_refutation_degree takes them."""
    return PolySystem(system.field, system.num_vars, [p for p in system.axioms if p.degree <= k])


def _relabelled(g: ColoredGraph, rng: random.Random) -> ColoredGraph:
    """g with its vertices renamed by a seeded permutation: vertex u
    becomes perm[u], and keeps its colour."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    colors = [None] * g.n
    for u, c in enumerate(g.colors):
        colors[perm[u]] = c
    return ColoredGraph(g.n, colors, {r: frozenset((perm[u], perm[v]) for u, v in pairs)
                                      for r, pairs in g.relations.items()})


class CfiMonpc:
    """Monomial-PC closures of the K4 twisted pair's colour-restricted
    isomorphism system at k = 1, 2, 3, over Q and over F_3.  The pair's
    minimal degree is 4, so no closure refutes."""

    K = 3
    LIFT_SAMPLES = 100
    MONOMIAL_SAMPLES = 20

    def __init__(self, run, seed: int):
        self.rng = random.Random(seed)
        with run.span("cfi.build"):
            a, b = twisted_pair(BASE_LIBRARY["k4"], 2)
            ga, gb = to_graph(a), to_graph(b)
        self.systems = {}
        for tag, field in (("q", RATIONALS), ("f3", F3)):
            with run.span("encoders.iso_poly"):
                system = encode_iso_poly_colored(ga, gb, field)
            self.systems[tag] = [_up_to_degree(system, k) for k in range(1, self.K + 1)]
        self._quotient_counts = None

    def quotient_counts(self) -> list:
        if self._quotient_counts is None:
            system = self.systems["q"][-1]
            gens = [m for p in system.axioms if len(p.terms) == 1 for m in p.terms]
            self._quotient_counts = oracles.divisible_monomial_counts(
                system.num_vars, gens, self.K)
        return self._quotient_counts

    def round(self, run):
        for tag in ("q", "f3"):
            for k in range(1, self.K + 1):
                op = run.call(f"pc.monpc_{tag}", _closure, monpc_saturate,
                              self.systems[tag][k - 1], k)
                if op.failed:
                    continue
                res, _ = op.result
                where = f"monpc over {tag} at k={k}"
                op.check(not res.refuted, f"{where}: refuted, but the pair's minimal degree is 4")
                op.check(res.basis.quotient_size() == self.quotient_counts()[k],
                         f"{where}: quotient size {res.basis.quotient_size()}, "
                         f"expected {self.quotient_counts()[k]}")
                if k == self.K:
                    if tag == "q":
                        # read before the checks: their reductions tail-reduce
                        # stored rows, which changes the term count
                        run.count("pc.stored_rows", len(res.basis.vectors))
                        run.count("pc.stored_terms", sum(map(len, res.basis.vectors.values())))
                    self.check_span(op, res.basis, self.systems[tag][k - 1], where)

    def check_span(self, op, basis, system, where):
        """Seeded samples: axiom lifts of degree <= k lie in the span, and
        the span is closed under multiplying an in-span monomial of degree
        < k by a variable."""
        rng, k, n = self.rng, self.K, system.num_vars
        p = system.field.p
        drawn = 0
        while drawn < self.LIFT_SAMPLES:
            axiom = rng.choice(system.axioms)
            m = tuple(sorted(rng.sample(range(1, n + 1), rng.randint(0, k - 1))))
            lift = oracles.multilinear_lift(m, axiom.terms, p)
            if max(map(len, lift), default=0) > k:
                continue
            drawn += 1
            if not op.check(basis.contains(lift), f"{where}: lift of an axiom by {m} not in span"):
                return
        low = sorted(lead for lead in basis.vectors if len(lead) < k)
        in_span = [m for m in low if basis.span_monomial(m)]
        in_span += sorted({m for a in system.axioms if len(a.terms) == 1 for m in a.terms})
        for m in rng.sample(in_span, min(self.MONOMIAL_SAMPLES, len(in_span))):
            for x in range(1, n + 1):
                xm = tuple(sorted(set(m) | {x}))
                if not op.check(basis.span_monomial(xm),
                                f"{where}: {m} in span but {xm} is not"):
                    return


class CfiWl:
    """wl_distinguishes on the CFI twisted pairs over K4 and prism at
    dimensions 1 and 2 (none splits: the bases have treewidth 3), and on
    the 4x4 rook's graph against the Shrikhande graph at dimensions 1-3
    (split at 3 only)."""

    BASES = ("k4", "prism")

    def __init__(self, run, seed: int):
        rng = random.Random(seed)
        self.pairs = []
        for name in self.BASES:
            with run.span("cfi.build"):
                a, b = twisted_pair(BASE_LIBRARY[name], 2)
                ga, gb = to_graph(a), to_graph(b)
            self.pairs.append((name, a, b, ga, gb))
        self.rook = ColoredGraph(16, None, {"E": oracles.rook_graph_edges()})
        self.shrikhande = ColoredGraph(16, None, {"E": oracles.shrikhande_edges()})
        self.k4_relabelled = _relabelled(self.pairs[0][3], rng)
        self._facts = None

    def facts(self) -> dict:
        """What the benchmark knows about the inputs without WL."""
        if self._facts is None:
            rook, shri = oracles.rook_graph_edges(), oracles.shrikhande_edges()
            self._facts = {
                "loads": {name: (oracles.cfi_load_sum(a.universe, a.cfi_tuples, a.p),
                                 oracles.cfi_load_sum(b.universe, b.cfi_tuples, b.p))
                          for name, a, b, _, _ in self.pairs},
                "srg": (oracles.strongly_regular_parameters(16, rook),
                        oracles.strongly_regular_parameters(16, shri)),
                "cliques": (oracles.clique_number(16, rook), oracles.clique_number(16, shri)),
            }
        return self._facts

    def round(self, run):
        facts = self.facts()
        for name, _, _, ga, gb in self.pairs:
            load_a, load_b = facts["loads"][name]
            for dim in (1, 2):
                op = run.call(f"wl.dim{dim}", wl_distinguishes, ga, gb, dim)
                if op.failed:
                    continue
                where = f"{name} pair at dimension {dim}"
                op.check(load_a != load_b, f"{where}: the two loads have the same sum")
                op.check(op.result is False, f"{where}: split below the base's treewidth")
                if name == "k4":
                    op.check(not wl_distinguishes(ga, self.k4_relabelled, dim),
                             f"{where}: split from a relabelling of itself")
        same_parameters = facts["srg"][0] is not None and facts["srg"][0] == facts["srg"][1]
        for dim in (1, 2, 3):
            op = run.call(f"wl.dim{dim}", wl_distinguishes, self.rook, self.shrikhande, dim)
            if op.failed:
                continue
            where = f"rook's graph vs Shrikhande at dimension {dim}"
            op.check(same_parameters, f"{where}: not strongly regular with equal parameters")
            # equal SRG parameters hide the pair from dimension 2; a 4-clique,
            # which only the rook's graph has, is a 4-variable property
            op.check(op.result is (dim == 3 and facts["cliques"][0] != facts["cliques"][1]),
                     f"{where}: verdict {op.result}")


class Resolution:
    """3-consistency of the cycles C3..C7 against K2, by k_consistency and
    by width-3 kres_refutes on the dual-Horn encoding; and a posLFP
    reachability sentence on two seeded random digraphs, compiled by
    horn_encode and refuted by horn_refute and width-3 kres_refutes.  The
    same sentence with a target that s cannot reach, an added isolated
    vertex, is decided by horn_refute, which must not refute it."""

    CYCLES = range(3, 8)
    DIGRAPHS = 2
    DIGRAPH_N = 80
    OUT_DEGREE = 2
    REACH = "(lfp R (x) (or (= x s) (exists y (and (R y) (E y x)))) t)"

    def __init__(self, run, seed: int):
        rng = random.Random(seed)
        k2 = clique_structure(2)
        self.cycles = []
        for n in self.CYCLES:
            cyc = cycle_structure(n)
            with run.span("encoders.kconsistency_cnf"):
                cnf = encode_kconsistency_cnf(cyc, k2, 3)
            self.cycles.append((n, cyc, k2, cnf))
        n = self.DIGRAPH_N
        self.digraphs = []
        for _ in range(self.DIGRAPHS):
            edges = sorted({(u, v) for u in range(n)
                            for v in rng.sample([w for w in range(n) if w != u], self.OUT_DEGREE)})
            # the target is a vertex farthest from 0, so the sentence holds
            # and the Horn encoding is refutable
            dist = oracles.distances(n, edges, 0)
            target = max(dist, key=lambda v: (dist[v], v))
            cnfs = []
            for size, t in ((n, target), (n + 1, n)):
                structure = RelStructure(size, {"E": (2, frozenset(edges))})
                with run.span("logic.horn_encode"):
                    cnfs.append(horn_encode(structure,
                                            parse_formula(self.REACH, {"s": 0, "t": t})).cnf)
            self.digraphs.append((edges, target, *cnfs))

    def round(self, run):
        for n, cyc, k2, cnf in self.cycles:
            colourable = oracles.bipartite(n, [(i, (i + 1) % n) for i in range(n)])
            op = run.call("encoders.k_consistency", k_consistency, cyc, k2, 3)
            if not op.failed:
                op.check(op.result == colourable, f"k_consistency on C{n}: {op.result}")
            # the even cycles are the 2-colourable ones, where width-3
            # resolution saturates without refuting; the check confirms it
            name = "resolution.kres_sat" if n % 2 == 0 else "resolution.kres_unsat"
            op = run.call(name, kres_refutes, cnf, 3)
            if not op.failed:
                op.check(op.result == (not colourable), f"kres_refutes on C{n}: {op.result}")
        for edges, target, cnf, unreachable_cnf in self.digraphs:
            dist = oracles.distances(self.DIGRAPH_N + 1, edges, 0)
            holds = target in dist
            op = run.call("resolution.horn", horn_refute, cnf)
            if not op.failed:
                op.check(op.result.refuted == holds, f"horn_refute on reachability: {op.result.refuted}")
            op = run.call("resolution.horn", horn_refute, unreachable_cnf)
            if not op.failed:
                op.check(op.result.refuted == (self.DIGRAPH_N in dist),
                         f"horn_refute on an isolated target: {op.result.refuted}")
            op = run.call("resolution.kres_unsat", kres_refutes, cnf, 3)
            if not op.failed:
                op.check(op.result == holds, f"kres_refutes on reachability: {op.result}")


class SmallSystems:
    """The 20 small calibration pairs (minimal monpc degree, full PC at
    k = 2 over Q and F_3, the WL sweep), decided again on seeded
    relabellings of two of their graphs against the graph itself, which
    nothing may refute or split; 50 seeded threshold games decided node by
    node with monpc_extend; and one wl-calibrate CLI call."""

    GAMES = 50
    RELABELLED = ("paw_vs_c4", "colored_path_swap")  # their first graph
    CLI = ["-m", "prooflab.cli", "experiment", "wl-calibrate", "--no-cfi"]

    def __init__(self, run, seed: int):
        rng = random.Random(seed)
        pairs = calibration_pairs(include_cfi=False)
        pairs += [(f"{name}_relabelled", g, _relabelled(g, rng), colored)
                  for name, g, _, colored in pairs if name in self.RELABELLED]
        self.pairs = []
        for name, g, h, colored in pairs:
            systems = []
            for field in (RATIONALS, F3):
                with run.span("encoders.iso_poly"):
                    if colored:
                        system = encode_iso_poly_colored(g, h, field)
                    else:
                        system = encode_iso_poly(g.n, sorted(g.relations["E"]),
                                                 h.n, sorted(h.relations["E"]), field)
                systems.append(system)
            self.pairs.append((name, g, h, systems[0], _up_to_degree(systems[0], 2),
                               _up_to_degree(systems[1], 2)))
        self.games = []
        for _ in range(self.GAMES):
            game = _random_game(rng)
            with run.span("games.encode"):
                ax = encode_threshold_axioms(game)
            f = ax.system.field
            asserts = [(Polynomial(f, [((ax.var_map[f"X_{v}"],), 1), ((), -1)]),
                        Polynomial(f, [((ax.var_map[f"X_{v}"],), 1)])) for v in range(game.n)]
            self.games.append((game, ax.system, asserts))
        self._facts = None

    def facts(self) -> tuple:
        """Per pair: isomorphic by permutation search, and split by colour
        refinement (which is what WL at dimension 1 is)."""
        if self._facts is None:
            iso, refined = {}, {}
            for name, g, h, *_ in self.pairs:
                iso[name] = oracles.colored_isomorphic(g.n, g.colors, g.relations,
                                                       h.n, h.colors, h.relations)
                refined[name] = oracles.colour_refinement_splits(
                    g.n, g.colors, g.relations["E"], h.colors, h.relations["E"])
            self._facts = iso, refined
        return self._facts

    def round(self, run):
        iso, refined = self.facts()
        offsets = set()
        for name, g, h, system, sub_q, sub_f3 in self.pairs:
            op = run.call("pc.min_degree", min_refutation_degree, system, "monpc", 4)
            degree = None if op.failed else op.result
            if not op.failed:
                # criterion 7 holds every calibration pair refutable by degree 4
                op.check((degree is None) == iso[name],
                         f"{name}: minimal degree {degree}, isomorphic: {iso[name]}")
            full_space = sum(comb(system.num_vars, d) for d in range(3))
            for layer, sub, kwargs in (("pc.pc_saturate_q", sub_q, {}),
                                       ("pc.pc_saturate_f3", sub_f3, {"full_closure": True})):
                op = run.call(layer, _closure, pc_saturate, sub, 2, **kwargs)
                if op.failed:
                    continue
                res, dim = op.result
                where = f"{name}: {layer} at k=2"
                op.check(not res.refuted or not iso[name], f"{where}: refuted an isomorphic pair")
                op.check(res.refuted or degree is None or degree > 2,
                         f"{where}: monomial PC refutes at degree {degree}, full PC does not")
                if kwargs:
                    op.check(not res.refuted or dim == full_space,
                             f"{where}: refuted closure has dimension {dim}, not {full_space}")
            op = run.call("wl.sweep", wl_sweep, g, h, 3)
            if not op.failed:
                op.check((op.result is None) == iso[name],
                         f"{name}: WL sweep gives {op.result}, isomorphic: {iso[name]}")
                op.check((op.result == 1) == refined[name],
                         f"{name}: WL sweep gives {op.result}, colour refinement "
                         f"{'splits' if refined[name] else 'does not split'}")
                if degree is not None and op.result is not None:
                    offsets.add(degree - op.result)
        for game, system, asserts in self.games:
            wins = oracles.threshold_winners(game.n, game.edges, game.theta)
            op = run.call("games.solve", solve_threshold_game, game)
            if not op.failed:
                op.check(op.result.w0 == wins, f"game {game.edges}: W0 {set(op.result.w0)} != {wins}")
            base = run.call("pc.game_base", monpc_saturate, system, 2, full_closure=True)
            if base.failed:
                continue
            base.check(not base.result.refuted, f"game {game.edges}: the axioms alone refute")
            for v, (as_one, as_zero) in enumerate(asserts):
                for claim, refutes in ((as_one, v not in wins), (as_zero, v in wins)):
                    op = run.call("pc.monpc_extend", monpc_extend, base.result.basis, [claim])
                    if not op.failed:
                        op.check(op.result.refuted == refutes,
                                 f"game {game.edges} node {v}: refuted={op.result.refuted}")
        self.call_cli(run, sorted(offsets))

    def call_cli(self, run, offsets: list):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        op = run.call("cli.wl_calibrate", subprocess.run, [sys.executable] + self.CLI,
                      cwd=ROOT, env=env, capture_output=True, text=True, timeout=150)
        wall = time.perf_counter() - t0
        # the CLI and its workers are reaped inside the call, so their CPU
        # time is in this process's children total
        run.count("experiments.idle_s", wall - (cpu_seconds() - cpu0))
        if op.failed:
            return
        proc = op.result
        if not op.check(proc.returncode == 0, f"wl-calibrate exited {proc.returncode}: "
                        f"{proc.stderr.strip()[-300:]}"):
            return
        try:
            report = json.loads(proc.stdout)
        except ValueError:
            report = {}
        want = {"offsets": offsets, "c": offsets[0] if len(offsets) == 1 else None}
        op.check(report == want, f"wl-calibrate reported {report}, in-process calls give {want}")


def _random_game(rng: random.Random) -> ThresholdGame:
    """A threshold game on up to 10 nodes whose edges go from lower to
    higher ids, with thresholds up to out-degree + 1."""
    n = rng.randint(1, 10)
    edges = []
    for v in range(n):
        succ = rng.sample(range(v + 1, n), min(rng.randint(0, 3), n - v - 1))
        edges.extend((v, w) for w in succ)
    outdeg = [sum(1 for (u, _) in edges if u == v) for v in range(n)]
    return ThresholdGame(n, edges, [rng.randint(0, outdeg[v] + 1) for v in range(n)])


WORKLOADS = {"cfi-monpc": CfiMonpc, "cfi-wl": CfiWl,
             "resolution": Resolution, "small-systems": SmallSystems}
