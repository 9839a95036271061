"""Finite relational structures, posLFP formulas, and the Horn compiler.

Formulas use a small s-expression grammar, e.g.

    (lfp R (x) (or (= x s) (exists y (and (R y) (E y x)))) t)

where `s`, `t` are parameter names bound to universe elements by a map
supplied at parse time.  Negation is allowed on input atoms and equalities
only (the posLFP discipline), every fixpoint name is bound once, and an lfp
node may list application terms after its body (defaulting to its own bound
variables).  N-ary and/or fold to balanced trees of binary nodes, which
keeps the compiled clauses at width 3 for universal-free formulas.  A
binder of a name already bound around it is renamed apart at parse time.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import product
from typing import NamedTuple, Optional

from .errors import UsageError, malformed_input
from .resolution import CnfFormula


@dataclass
class RelStructure:
    universe_size: int
    relations: dict  # name -> (arity, frozenset of tuples)

    def __post_init__(self):
        if type(self.universe_size) is not int or self.universe_size < 0:
            raise UsageError(f"universe size must be an int >= 0, got {self.universe_size!r}")
        rels = {}
        for name, (arity, tuples) in self.relations.items():
            if type(arity) is not int or arity < 0:
                raise UsageError(f"arity of {name} must be an int >= 0, got {arity!r}")
            tuples = frozenset(tuple(t) for t in tuples)
            for t in tuples:
                if len(t) != arity:
                    raise UsageError(f"tuple {t} has wrong arity for {name}/{arity}")
                if any(type(e) is not int or not 0 <= e < self.universe_size for e in t):
                    raise UsageError(f"tuple {t} is not of ints in range({self.universe_size})")
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
        rels = {name: (r["arity"], frozenset(tuple(t) for t in r["tuples"]))
                for name, r in obj.get("relations", {}).items()}
        return RelStructure(obj["n"], rels)


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
        return not any(isinstance(node, Forall) for node in _subformulas(self.root)[0])


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


def _fold(cls, parts):
    """The parts joined by the binary cls as a balanced tree, so that the
    tree walkers recurse to a depth logarithmic in the number of parts; two
    or three parts give the left-deep chain."""
    if len(parts) == 1:
        return parts[0]
    mid = (len(parts) + 1) // 2
    return cls(_fold(cls, parts[:mid]), _fold(cls, parts[mid:]))


def _terms(parts, scope: dict) -> tuple:
    """parts as a tuple of terms, each read through scope: a term is a
    name, never a parenthesised list."""
    for t in parts:
        if not isinstance(t, str):
            raise UsageError(f"a term must be a name, not ({' '.join(map(str, t))})")
    return tuple(scope.get(t, t) for t in parts)


def _bind(scope: dict, names, depth: int) -> dict:
    """scope with names bound by a binder depth binders down.  A name bound
    already, by an enclosing binder or as a parameter, is renamed apart (the
    tokenizer cannot read the new name back), so no binder hides a variable
    of an enclosing one: horn_encode relies on that."""
    inner = dict(scope)
    for v in names:
        inner[v] = f"{v}({depth})" if v in scope else v
    return inner


def _build(sexp, bound_fps: dict, scope: dict, depth: int):
    """The formula tree of sexp.  scope maps each name bound around it,
    parameters included, to the name it has in the tree; depth counts the
    binders around it."""
    if isinstance(sexp, str):
        raise UsageError(f"bare term {sexp!r} where a formula was expected")
    if not sexp:
        raise UsageError("empty () is not a formula")
    head = sexp[0]
    if not isinstance(head, str):
        raise UsageError("a formula must start with a keyword or a relation name")
    if head == "and" or head == "or":
        parts = [_build(s, bound_fps, scope, depth) for s in sexp[1:]]
        if not parts:
            raise UsageError(f"({head}) needs at least one argument")
        return _fold(And if head == "and" else Or, parts)
    if head == "not":
        if len(sexp) != 2:
            raise UsageError("(not ...) takes one argument")
        inner = _build(sexp[1], bound_fps, scope, depth)
        if not isinstance(inner, (Atom, Eq)) or inner.negated:
            raise UsageError("negation is allowed on input atoms only")
        return replace(inner, negated=True)
    if head == "=":
        if len(sexp) != 3:
            raise UsageError("(= ...) takes two terms")
        return Eq(*_terms(sexp[1:], scope))
    if head == "exists" or head == "forall":
        if len(sexp) != 3 or not isinstance(sexp[1], str):
            raise UsageError(f"({head} var body)")
        inner = _bind(scope, [sexp[1]], depth)
        body = _build(sexp[2], bound_fps, inner, depth + 1)
        return (Exists if head == "exists" else Forall)(inner[sexp[1]], body)
    if head == "lfp":
        if len(sexp) < 4 or not isinstance(sexp[1], str) or not isinstance(sexp[2], list):
            raise UsageError("(lfp R (vars...) body args...)")
        name = sexp[1]
        fp_vars = _terms(sexp[2], {})
        inner = _bind(scope, fp_vars, depth)
        body = _build(sexp[3], {**bound_fps, name: len(fp_vars)}, inner, depth + 1)
        # the arguments, given or defaulted to the variables' names, are read outside
        args = _terms(sexp[4:] or fp_vars, scope)
        if len(args) != len(fp_vars):
            raise UsageError(f"lfp {name} applied to {len(args)} terms, expected {len(fp_vars)}")
        return Lfp(name, tuple(inner[v] for v in fp_vars), body, args)
    if head in bound_fps:
        args = _terms(sexp[1:], scope)
        if len(args) != bound_fps[head]:
            raise UsageError(f"fixpoint atom {head} has wrong arity")
        return FpAtom(head, args)
    # input relation atom
    return Atom(head, _terms(sexp[1:], scope))


def parse_formula(text: str, params: Optional[dict] = None) -> LfpFormula:
    params = dict(params or {})
    tokens = _tokenize(text)
    sexp, pos = _read(tokens, 0)
    if pos != len(tokens):
        raise UsageError("trailing tokens after formula")
    root = _build(sexp, {}, {name: name for name in params}, 0)
    # two different binders may not share a name: the compiler maps a name to one binder
    binders: dict = {}
    for i, node in enumerate(_subformulas(root)[0]):
        if isinstance(node, Lfp) and binders.setdefault(node.fp, i) != i:
            raise UsageError(f"fixpoint name {node.fp} bound twice")
    return LfpFormula(root, params)


def _children(node) -> tuple:
    """The subformulas directly below node."""
    if isinstance(node, (And, Or)):
        return (node.left, node.right)
    if isinstance(node, (Exists, Forall, Lfp)):
        return (node.body,)
    return ()


def _subformulas(root):
    """Each structurally distinct subformula of root once, children before
    parents and left before right (root last), and each one's child indices.
    Equality is read off own fields and child indices: hashing whole nodes
    recurses once per level, past the interpreter's limit on a long chain."""
    subs, kids = [], []
    index: dict = {}  # (type, own fields, child indices) -> index in subs
    at: dict = {}  # id(node) -> index in subs, for the nodes walked so far
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        children = _children(node)
        if not expanded:
            stack.append((node, True))
            stack.extend((child, False) for child in reversed(children))
            continue
        own = tuple(v for v in vars(node).values() if all(v is not c for c in children))
        kid = [at[id(child)] for child in children]
        key = (type(node), own, tuple(kid))
        if key not in index:
            index[key] = len(subs)
            subs.append(node)
            kids.append(kid)
        at[id(node)] = index[key]
    return subs, kids


def _dependencies(subs: list, kids: list) -> list:
    """Per subformula id, the sorted variables its truth depends on: its
    free variables and, below a fixpoint atom, the outer variables of the
    atom's binder, those the binder's body depends on but does not bind.
    An atom need not name them; the parser's renaming keeps them unshadowed
    down to it.  An atom inside a nested binder hands them on to that
    binder, so the table is iterated to a fixpoint."""
    outer = {node.fp: frozenset() for node in subs if isinstance(node, Lfp)}
    while True:
        deps: list = []
        for node, kid in zip(subs, kids):
            below = frozenset().union(*(deps[j] for j in kid))
            if isinstance(node, Atom):
                deps.append(frozenset(node.args))
            elif isinstance(node, Eq):
                deps.append(frozenset((node.left, node.right)))
            elif isinstance(node, FpAtom):
                deps.append(frozenset(node.args) | outer[node.fp])
            elif isinstance(node, (Exists, Forall)):
                deps.append(below - {node.var})
            elif isinstance(node, Lfp):
                deps.append(below - set(node.vars) | frozenset(node.args))
            else:  # and, or
                deps.append(below)
        found = {node.fp: deps[kid[0]] - set(node.vars)
                 for node, kid in zip(subs, kids) if isinstance(node, Lfp)}
        if found == outer:
            return [tuple(sorted(d)) for d in deps]
        outer = found


def _check(a: RelStructure, phi: LfpFormula):
    """Check phi's parameters against a's universe, its free variables
    against its parameters, so that every term is bound in an env that
    starts as phi.params, and its atoms against a's vocabulary; return
    phi's _subformulas and their _dependencies."""
    bad = {name: e for name, e in phi.params.items()
           if type(e) is not int or not 0 <= e < a.universe_size}
    if bad:
        raise UsageError(f"parameters {bad} are not elements of the "
                         f"{a.universe_size}-element structure")
    subs, kids = _subformulas(phi.root)
    deps = _dependencies(subs, kids)
    unresolved = set(deps[-1]) - set(phi.params)
    if unresolved:
        raise UsageError(f"free variables {sorted(unresolved)} not bound by parameters")
    for node in subs:
        if isinstance(node, Atom):
            if node.rel not in a.relations:
                raise UsageError(f"relation {node.rel} not in structure vocabulary")
            if a.relations[node.rel][0] != len(node.args):
                raise UsageError(f"atom {node.rel} has wrong arity")
    return subs, kids, deps


def eval_poslfp(a: RelStructure, phi: LfpFormula) -> bool:
    """Least-fixed-point model checking by naive stage iteration."""
    _check(a, phi)
    universe = range(a.universe_size)

    def ev(node, env, fps):
        if isinstance(node, Atom):
            val = a.holds(node.rel, tuple(env[t] for t in node.args))
            return val != node.negated
        if isinstance(node, Eq):
            val = env[node.left] == env[node.right]
            return val != node.negated
        if isinstance(node, FpAtom):
            return tuple(env[t] for t in node.args) in fps[node.fp]
        if isinstance(node, And):
            return ev(node.left, env, fps) and ev(node.right, env, fps)
        if isinstance(node, Or):
            return ev(node.left, env, fps) or ev(node.right, env, fps)
        if isinstance(node, (Exists, Forall)):
            # a plain loop, not any()/all(): one frame per quantifier level
            witness = isinstance(node, Exists)  # the value that decides it
            for e in universe:
                if ev(node.body, {**env, node.var: e}, fps) == witness:
                    return witness
            return not witness
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
            return tuple(env[t] for t in node.args) in stage
        raise UsageError(f"unknown node {node!r}")

    return ev(phi.root, dict(phi.params), {})


class HornEncoding(NamedTuple):
    cnf: CnfFormula
    # key -> variable id; a key is (subformula id, values of the sorted
    # variables it depends on)
    var_map: dict


def horn_encode(a: RelStructure, phi: LfpFormula) -> HornEncoding:
    """Compile model checking of a posLFP sentence into a Horn CNF.

    One propositional variable per instantiated subformula; the returned
    CNF is unsatisfiable iff the structure satisfies the sentence.  Inputs
    without universal quantifiers compile to clauses of width at most 3.
    """
    # a subformula's id is its index in subs; equal subformulas share an id,
    # and so a variable per instantiation
    subs, kids, deps = _check(a, phi)
    universe = range(a.universe_size)
    binders = {node.fp: (node.vars, kids[i][0]) for i, node in enumerate(subs)
               if isinstance(node, Lfp)}  # fixpoint name -> (its variables, body id)

    var_map: dict = {}
    todo: list = []  # (id, env, x) whose defining clauses are not written yet
    clauses: list = []

    def var_of(i: int, env) -> int:
        key = (i, tuple(env[v] for v in deps[i]))
        x = var_map.get(key)
        if x is None:
            x = var_map[key] = len(var_map) + 1
            todo.append((i, env, x))
        return x

    # a worklist, not recursion: LFP stages as deep as the universe is
    # large would otherwise exceed the interpreter's recursion limit
    top = var_of(len(subs) - 1, dict(phi.params))
    while todo:
        i, env, x = todo.pop()
        node = subs[i]
        if isinstance(node, Atom):
            holds = a.holds(node.rel, tuple(env[t] for t in node.args)) != node.negated
            clauses.append([x] if holds else [-x])
        elif isinstance(node, Eq):
            holds = (env[node.left] == env[node.right]) != node.negated
            clauses.append([x] if holds else [-x])
        elif isinstance(node, Or):
            left, right = kids[i]
            clauses.append([-var_of(left, env), x])
            clauses.append([-var_of(right, env), x])
        elif isinstance(node, And):
            left, right = kids[i]
            clauses.append([-var_of(left, env), -var_of(right, env), x])
        elif isinstance(node, Exists):
            (body,) = kids[i]
            for e in universe:
                clauses.append([-var_of(body, {**env, node.var: e}), x])
        elif isinstance(node, Forall):
            (body,) = kids[i]
            clauses.append([-var_of(body, {**env, node.var: e}) for e in universe] + [x])
        else:  # an lfp node or a fixpoint atom: its binder's body at its arguments
            fp_vars, body = binders[node.fp]
            vals = tuple(env[t] for t in node.args)
            clauses.append([-var_of(body, {**env, **dict(zip(fp_vars, vals))}), x])
    clauses.append([-top])
    return HornEncoding(CnfFormula(len(var_map), clauses), var_map)
