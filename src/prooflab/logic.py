"""Finite relational structures, posLFP formulas, and the Horn compiler.

Formulas use a small s-expression grammar, e.g.

    (lfp R (x) (or (= x s) (exists y (and (R y) (E y x)))) t)

where `s`, `t` are parameter names bound to universe elements by a map
supplied at parse time.  Negation is allowed on input atoms and equalities
only (the posLFP discipline), every fixpoint name is bound once, and an lfp
node may list application terms after its body (defaulting to its own bound
variables).  N-ary and/or fold to binary nodes, which keeps the compiled
clauses at width 3 for universal-free formulas.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import NamedTuple, Optional

from .errors import UsageError, malformed_input
from .resolution import CnfFormula


@dataclass
class RelStructure:
    universe_size: int
    relations: dict  # name -> (arity, frozenset of tuples)

    def __post_init__(self):
        rels = {}
        for name, (arity, tuples) in self.relations.items():
            tuples = frozenset(tuple(t) for t in tuples)
            for t in tuples:
                if len(t) != arity:
                    raise UsageError(f"tuple {t} has wrong arity for {name}/{arity}")
                if any(not (0 <= e < self.universe_size) for e in t):
                    raise UsageError(f"tuple {t} outside universe of size {self.universe_size}")
            rels[name] = (arity, tuples)
        self.relations = rels

    def holds(self, name: str, args: tuple) -> bool:
        return args in self.relations[name][1]


def structure_to_json(a: RelStructure) -> dict:
    return {"n": a.universe_size,
            "relations": {name: {"arity": ar, "tuples": sorted(map(list, tups))}
                          for name, (ar, tups) in sorted(a.relations.items())}}


def structure_from_json(obj: dict) -> RelStructure:
    with malformed_input("structure JSON"):
        rels = {name: (int(r["arity"]), frozenset(tuple(t) for t in r["tuples"]))
                for name, r in obj.get("relations", {}).items()}
        return RelStructure(int(obj["n"]), rels)


# --- formula tree ----------------------------------------------------------

@dataclass(frozen=True)
class Atom:
    rel: str
    args: tuple
    negated: bool = False


@dataclass(frozen=True)
class Eq:
    left: str
    right: str
    negated: bool = False


@dataclass(frozen=True)
class FpAtom:
    fp: str
    args: tuple


@dataclass(frozen=True)
class And:
    left: object
    right: object


@dataclass(frozen=True)
class Or:
    left: object
    right: object


@dataclass(frozen=True)
class Exists:
    var: str
    body: object


@dataclass(frozen=True)
class Forall:
    var: str
    body: object


@dataclass(frozen=True)
class Lfp:
    fp: str
    vars: tuple
    body: object
    args: tuple


class LfpFormula(NamedTuple):
    root: object
    params: dict  # parameter name -> universe element

    def is_efp0(self) -> bool:
        return not _has_forall(self.root)


def _has_forall(node) -> bool:
    if isinstance(node, Forall):
        return True
    if isinstance(node, (And, Or)):
        return _has_forall(node.left) or _has_forall(node.right)
    if isinstance(node, (Exists,)):
        return _has_forall(node.body)
    if isinstance(node, Lfp):
        return _has_forall(node.body)
    return False


def _tokenize(text: str) -> list:
    return text.replace("(", " ( ").replace(")", " ) ").split()


def _read(tokens: list, pos: int):
    if pos >= len(tokens):
        raise UsageError("unexpected end of formula")
    tok = tokens[pos]
    if tok == "(":
        out = []
        pos += 1
        while pos < len(tokens) and tokens[pos] != ")":
            node, pos = _read(tokens, pos)
            out.append(node)
        if pos >= len(tokens):
            raise UsageError("missing )")
        return out, pos + 1
    if tok == ")":
        raise UsageError("unexpected )")
    return tok, pos + 1


_KEYWORDS = {"and", "or", "not", "exists", "forall", "lfp", "="}


def _fold(cls, parts):
    node = parts[0]
    for nxt in parts[1:]:
        node = cls(node, nxt)
    return node


def _build(sexp, bound_fps: dict, negated_ok=True):
    if isinstance(sexp, str):
        raise UsageError(f"bare term {sexp!r} where a formula was expected")
    if not sexp:
        raise UsageError("empty () is not a formula")
    head = sexp[0]
    if head == "and" or head == "or":
        parts = [_build(s, bound_fps) for s in sexp[1:]]
        if not parts:
            raise UsageError(f"({head}) needs at least one argument")
        return _fold(And if head == "and" else Or, parts)
    if head == "not":
        if len(sexp) != 2:
            raise UsageError("(not ...) takes one argument")
        inner = sexp[1]
        if not isinstance(inner, list) or not inner:
            raise UsageError("(not ...) must wrap an atom")
        if inner[0] == "=":
            return Eq(inner[1], inner[2], negated=True)
        if inner[0] in _KEYWORDS or inner[0] in bound_fps:
            raise UsageError("negation is allowed on input atoms only")
        return Atom(inner[0], tuple(inner[1:]), negated=True)
    if head == "=":
        if len(sexp) != 3:
            raise UsageError("(= ...) takes two terms")
        return Eq(sexp[1], sexp[2])
    if head == "exists" or head == "forall":
        if len(sexp) != 3 or not isinstance(sexp[1], str):
            raise UsageError(f"({head} var body)")
        body = _build(sexp[2], bound_fps)
        return (Exists if head == "exists" else Forall)(sexp[1], body)
    if head == "lfp":
        if len(sexp) < 4 or not isinstance(sexp[1], str) or not isinstance(sexp[2], list):
            raise UsageError("(lfp R (vars...) body args...)")
        name = sexp[1]
        if name in bound_fps:
            raise UsageError(f"fixpoint name {name} bound twice")
        fp_vars = tuple(sexp[2])
        bound_fps = dict(bound_fps)
        bound_fps[name] = len(fp_vars)
        body = _build(sexp[3], bound_fps)
        args = tuple(sexp[4:]) or fp_vars
        if len(args) != len(fp_vars):
            raise UsageError(f"lfp {name} applied to {len(args)} terms, expected {len(fp_vars)}")
        return Lfp(name, fp_vars, body, args)
    if head in bound_fps:
        args = tuple(sexp[1:])
        if len(args) != bound_fps[head]:
            raise UsageError(f"fixpoint atom {head} has wrong arity")
        return FpAtom(head, args)
    # input relation atom
    return Atom(head, tuple(sexp[1:]))


def parse_formula(text: str, params: Optional[dict] = None) -> LfpFormula:
    tokens = _tokenize(text)
    sexp, pos = _read(tokens, 0)
    if pos != len(tokens):
        raise UsageError("trailing tokens after formula")
    root = _build(sexp, {})
    return LfpFormula(root, dict(params or {}))


def free_vars(node) -> frozenset:
    if isinstance(node, Atom):
        return frozenset(node.args)
    if isinstance(node, Eq):
        return frozenset((node.left, node.right))
    if isinstance(node, FpAtom):
        return frozenset(node.args)
    if isinstance(node, (And, Or)):
        return free_vars(node.left) | free_vars(node.right)
    if isinstance(node, (Exists, Forall)):
        return free_vars(node.body) - {node.var}
    if isinstance(node, Lfp):
        return (free_vars(node.body) - set(node.vars)) | frozenset(node.args)
    raise UsageError(f"unknown node {node!r}")


def _check_vocabulary(a: RelStructure, node):
    if isinstance(node, Atom):
        if node.rel not in a.relations:
            raise UsageError(f"relation {node.rel} not in structure vocabulary")
        if a.relations[node.rel][0] != len(node.args):
            raise UsageError(f"atom {node.rel} has wrong arity")
    elif isinstance(node, (And, Or)):
        _check_vocabulary(a, node.left)
        _check_vocabulary(a, node.right)
    elif isinstance(node, (Exists, Forall)):
        _check_vocabulary(a, node.body)
    elif isinstance(node, Lfp):
        _check_vocabulary(a, node.body)


def _binders(node, out: dict):
    if isinstance(node, Lfp):
        out[node.fp] = node
        _binders(node.body, out)
    elif isinstance(node, (And, Or)):
        _binders(node.left, out)
        _binders(node.right, out)
    elif isinstance(node, (Exists, Forall)):
        _binders(node.body, out)
    return out


def _term_evaluator(a: RelStructure, phi: LfpFormula):
    """Check phi against a's vocabulary and its free variables against its
    parameters; return term(t, env), the element a term denotes under env."""
    _check_vocabulary(a, phi.root)
    unresolved = free_vars(phi.root) - set(phi.params)
    if unresolved:
        raise UsageError(f"free variables {sorted(unresolved)} not bound by parameters")

    def term(t, env):
        if t in env:
            return env[t]
        if t in phi.params:
            return phi.params[t]
        raise UsageError(f"unbound term {t!r}")

    return term


def eval_poslfp(a: RelStructure, phi: LfpFormula) -> bool:
    """Least-fixed-point model checking by naive stage iteration."""
    term = _term_evaluator(a, phi)
    universe = range(a.universe_size)

    def ev(node, env, fps):
        if isinstance(node, Atom):
            val = a.holds(node.rel, tuple(term(t, env) for t in node.args))
            return val != node.negated
        if isinstance(node, Eq):
            val = term(node.left, env) == term(node.right, env)
            return val != node.negated
        if isinstance(node, FpAtom):
            return tuple(term(t, env) for t in node.args) in fps[node.fp]
        if isinstance(node, And):
            return ev(node.left, env, fps) and ev(node.right, env, fps)
        if isinstance(node, Or):
            return ev(node.left, env, fps) or ev(node.right, env, fps)
        if isinstance(node, Exists):
            return any(ev(node.body, {**env, node.var: e}, fps) for e in universe)
        if isinstance(node, Forall):
            return all(ev(node.body, {**env, node.var: e}, fps) for e in universe)
        if isinstance(node, Lfp):
            stage: set = set()
            arity = len(node.vars)
            while True:
                new = set(stage)
                inner_fps = {**fps, node.fp: stage}
                for tup in product(universe, repeat=arity):
                    if tup in new:
                        continue
                    inner_env = {**env, **dict(zip(node.vars, tup))}
                    if ev(node.body, inner_env, inner_fps):
                        new.add(tup)
                if new == stage:
                    break
                stage = new
            return tuple(term(t, env) for t in node.args) in stage
        raise UsageError(f"unknown node {node!r}")

    return ev(phi.root, {}, {})


class HornEncoding(NamedTuple):
    cnf: CnfFormula
    var_map: dict  # printable instantiated-subformula key -> variable id


def horn_encode(a: RelStructure, phi: LfpFormula) -> HornEncoding:
    """Compile model checking of a posLFP sentence into a Horn CNF.

    One propositional variable per instantiated subformula; the returned
    CNF is unsatisfiable iff the structure satisfies the sentence.  Inputs
    without universal quantifiers compile to clauses of width at most 3.
    """
    term = _term_evaluator(a, phi)
    universe = range(a.universe_size)
    binders = _binders(phi.root, {})
    # an lfp binder may mention variables bound outside it; those extra
    # values become part of every instantiation of its fixpoint atoms
    binder_extra = {name: tuple(sorted(free_vars(b.body) - set(b.vars)))
                    for name, b in binders.items()}

    var_map: dict = {}
    todo: list = []  # (node, env, x) whose defining clauses are not written yet
    clauses: list = []

    def var_of(node, env) -> int:
        if isinstance(node, FpAtom):
            vals = tuple(term(t, env) for t in node.args)
            extra = tuple(term(v, env) for v in binder_extra[node.fp])
            key = ("fp", node.fp, vals, extra)
        else:
            # nodes hash structurally, so shared subformulas with equal
            # instantiations collapse onto one propositional variable
            fv = tuple(sorted(free_vars(node)))
            key = (node, tuple(term(v, env) for v in fv))
        x = var_map.get(key)
        if x is None:
            x = var_map[key] = len(var_map) + 1
            todo.append((node, env, x))
        return x

    # a worklist, not recursion: LFP stages as deep as the universe is
    # large would otherwise exceed the interpreter's recursion limit
    top = var_of(phi.root, {})
    while todo:
        node, env, x = todo.pop()
        if isinstance(node, Atom):
            holds = a.holds(node.rel, tuple(term(t, env) for t in node.args)) != node.negated
            clauses.append([x] if holds else [-x])
        elif isinstance(node, Eq):
            holds = (term(node.left, env) == term(node.right, env)) != node.negated
            clauses.append([x] if holds else [-x])
        elif isinstance(node, Or):
            clauses.append([-var_of(node.left, env), x])
            clauses.append([-var_of(node.right, env), x])
        elif isinstance(node, And):
            clauses.append([-var_of(node.left, env), -var_of(node.right, env), x])
        elif isinstance(node, Exists):
            for e in universe:
                clauses.append([-var_of(node.body, {**env, node.var: e}), x])
        elif isinstance(node, Forall):
            clauses.append([-var_of(node.body, {**env, node.var: e}) for e in universe] + [x])
        elif isinstance(node, Lfp):
            vals = tuple(term(t, env) for t in node.args)
            inner_env = {**env, **dict(zip(node.vars, vals))}
            clauses.append([-var_of(node.body, inner_env), x])
        elif isinstance(node, FpAtom):
            binder = binders[node.fp]
            vals = tuple(term(t, env) for t in node.args)
            inner_env = {**env, **dict(zip(binder.vars, vals))}
            clauses.append([-var_of(binder.body, inner_env), x])
        else:
            raise UsageError(f"unknown node {node!r}")
    clauses.append([-top])
    num_vars = len(var_map)
    cnf = CnfFormula(num_vars, clauses)
    readable = {f"{key}": v for key, v in var_map.items()}
    return HornEncoding(cnf, readable)
