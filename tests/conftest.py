"""Shared independent oracles and random generators for the test suite."""

from __future__ import annotations

import os
import random
from itertools import permutations, product
from pathlib import Path

import pytest

import prooflab
from prooflab.logic import (And, Atom, Eq, Exists, Forall, FpAtom, Lfp,
                            LfpFormula, Or, RelStructure)
from prooflab.resolution import CnfFormula
from prooflab.wl import ColoredGraph


def child_env() -> dict:
    """The environment for a fresh interpreter that imports the prooflab
    this test session imports."""
    src = str(Path(prooflab.__file__).resolve().parent.parent)
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


def sat_oracle(f: CnfFormula) -> bool:
    """Brute-force satisfiability by bit-parallel evaluation over all 2^n
    assignments (one bit per assignment, packed into big integers)."""
    n = f.num_vars
    if frozenset() in f.clauses:
        return False
    if not f.clauses:
        return True
    size = 1 << n
    full = (1 << size) - 1
    masks = {}
    for i in range(1, n + 1):
        half = 1 << (i - 1)
        period = half << 1
        unit = ((1 << half) - 1) << half
        masks[i] = unit * (full // ((1 << period) - 1)) if period < size else unit
    acc = full
    for c in f.clauses:
        m = 0
        for lit in c:
            m |= masks[abs(lit)] if lit > 0 else (~masks[abs(lit)] & full)
        acc &= m
        if not acc:
            return False
    return True


def poly_system_has_boolean_zero(system) -> bool:
    """Exhaustive check for a common {0,1} zero of all axioms."""
    n = system.num_vars
    for bits in product((0, 1), repeat=n):
        assignment = {i + 1: bits[i] for i in range(n)}
        if all(p.evaluate(assignment) == 0 for p in system.axioms):
            return True
    return False


def brute_graph_iso(n_g: int, g_edges, n_h: int, h_edges) -> bool:
    """Permutation search on plain graphs (n <= 8)."""
    if n_g != n_h:
        return False
    ge = {frozenset(e) for e in g_edges}
    he = {frozenset(e) for e in h_edges}
    if len(ge) != len(he):
        return False
    for perm in permutations(range(n_g)):
        if {frozenset((perm[u], perm[v])) for (u, v) in ge} == he:
            return True
    return False


def brute_colored_iso(g: ColoredGraph, h: ColoredGraph) -> bool:
    """Backtracking isomorphism search on colored multi-relation graphs."""
    if g.n != h.n or sorted(g.colors) != sorted(h.colors):
        return False
    rels = sorted(set(g.relations) | set(h.relations))
    g_rel = {r: g.relations.get(r, frozenset()) for r in rels}
    h_rel = {r: h.relations.get(r, frozenset()) for r in rels}
    candidates = [[w for w in range(h.n) if h.colors[w] == g.colors[v]]
                  for v in range(g.n)]
    order = sorted(range(g.n), key=lambda v: len(candidates[v]))
    mapping = {}
    used = set()

    def consistent(v, w):
        for u, x in [*mapping.items(), (v, w)]:  # u = v compares the loops at v and w
            for r in rels:
                if ((u, v) in g_rel[r]) != ((x, w) in h_rel[r]):
                    return False
                if ((v, u) in g_rel[r]) != ((w, x) in h_rel[r]):
                    return False
        return True

    def backtrack(i):
        if i == len(order):
            return True
        v = order[i]
        for w in candidates[v]:
            if w in used or not consistent(v, w):
                continue
            mapping[v] = w
            used.add(w)
            if backtrack(i + 1):
                return True
            del mapping[v]
            used.discard(w)
        return False

    return backtrack(0)


# --- independent posLFP oracle: explicit stage tables -----------------------

def stage_table_eval(a: RelStructure, phi: LfpFormula) -> bool:
    """Evaluates the formula point by point; every fixpoint materialises its
    stage tables over all tuples of the universe until they are stable.
    Independent of logic.eval_poslfp."""
    universe = list(range(a.universe_size))

    def term(t, env):
        if t in env:
            return env[t]
        return phi.params[t]

    def point(node, env, fps) -> bool:
        if isinstance(node, Atom):
            holds = a.holds(node.rel, tuple(term(t, env) for t in node.args))
            return holds != node.negated
        if isinstance(node, Eq):
            holds = term(node.left, env) == term(node.right, env)
            return holds != node.negated
        if isinstance(node, FpAtom):
            return tuple(term(t, env) for t in node.args) in fps[node.fp]
        if isinstance(node, And):
            return point(node.left, env, fps) and point(node.right, env, fps)
        if isinstance(node, Or):
            return point(node.left, env, fps) or point(node.right, env, fps)
        if isinstance(node, Exists):
            return any(point(node.body, {**env, node.var: e}, fps) for e in universe)
        if isinstance(node, Forall):
            return all(point(node.body, {**env, node.var: e}, fps) for e in universe)
        if isinstance(node, Lfp):
            table: set = set()
            while True:
                nxt = set(table)
                for tup in product(universe, repeat=len(node.vars)):
                    inner = {**env, **dict(zip(node.vars, tup))}
                    if point(node.body, inner, {**fps, node.fp: table}):
                        nxt.add(tup)
                if nxt == table:
                    break
                table = nxt
            return tuple(term(t, env) for t in node.args) in table
        raise AssertionError(node)

    return point(phi.root, {}, {})


# --- random generators -------------------------------------------------------

def random_horn_cnf(rng: random.Random, num_vars: int, num_clauses: int) -> CnfFormula:
    clauses = []
    for _ in range(num_clauses):
        width = rng.randint(1, min(4, num_vars))
        vars_ = rng.sample(range(1, num_vars + 1), width)
        if rng.random() < 0.7:
            head, *body = vars_
            clauses.append([head] + [-v for v in body])
        else:
            clauses.append([-v for v in vars_])
    return CnfFormula(num_vars, clauses)


def random_cnf(rng: random.Random, num_vars: int, num_clauses: int,
               max_width: int = 3, min_width: int = 1) -> CnfFormula:
    clauses = []
    for _ in range(num_clauses):
        width = rng.randint(min_width, min(max_width, num_vars))
        vars_ = rng.sample(range(1, num_vars + 1), width)
        clauses.append([v if rng.random() < 0.5 else -v for v in vars_])
    return CnfFormula(num_vars, clauses)


def random_structure(rng: random.Random, max_n: int = 5) -> RelStructure:
    n = rng.randint(1, max_n)
    rels = {}
    for name, arity in (("P", 1), ("E", 2)):
        count = rng.randint(0, n ** arity)
        tuples = set()
        for _ in range(count):
            tuples.add(tuple(rng.randrange(n) for _ in range(arity)))
        rels[name] = (arity, frozenset(tuples))
    return RelStructure(n, rels)


def random_poslfp(rng: random.Random, allow_forall: bool = True) -> str:
    """Random posLFP sentence over the vocabulary {P/1, E/2}."""
    var_pool = ["x", "y", "z"]

    def atom(bound):
        v = rng.choice(bound) if bound else None
        if v is None:
            return "(exists x (P x))"
        choices = [f"(P {v})", f"(= {v} {v})"]
        if len(bound) >= 2:
            w = rng.choice(bound)
            choices += [f"(E {v} {w})", f"(E {w} {v})", f"(= {v} {w})",
                        f"(not (E {v} {w}))", f"(not (P {v}))"]
        else:
            choices += [f"(E {v} {v})", f"(not (P {v}))"]
        return rng.choice(choices)

    def formula(depth, bound):
        if depth <= 0:
            return atom(bound)
        kind = rng.choice(["and", "or", "exists", "atom"]
                          + (["forall"] if allow_forall else [])
                          + (["exists"] if not bound else []))
        if kind == "atom":
            return atom(bound)
        if kind in ("and", "or"):
            return f"({kind} {formula(depth - 1, bound)} {formula(depth - 1, bound)})"
        fresh = next((v for v in var_pool if v not in bound), None)
        if fresh is None:
            return atom(bound)
        return f"({kind} {fresh} {formula(depth - 1, bound + [fresh])})"

    if rng.random() < 0.5:
        # wrap a fixpoint: reachability-style recursion applied existentially
        body = formula(1, ["u"])
        return f"(exists t (lfp R (u) (or {body} (exists y (and (R y) (E y u)))) t))"
    return formula(rng.randint(1, 3), [])


@pytest.fixture
def rng():
    return random.Random(20240817)
