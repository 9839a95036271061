"""Acyclic threshold games: direct solver and the degree-2 axiom encoding.

In a threshold game Player 0 picks at least theta(v) successors of the
current node and Player 1 picks one of them; Player 0 wins at nodes with
theta(v) = 0 and loses where the out-degree falls short of the threshold.
The axiom encoding produces, per game, a polynomial system over which the
degree-2 monomial-PC can decide the winning regions node by node.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple

from .algebra import Field, RATIONALS
from .errors import UsageError, malformed_input
from .pc import Polynomial, PolySystem


@dataclass
class ThresholdGame:
    n: int
    edges: list          # list of (v, w) pairs, a DAG
    theta: list          # threshold per node
    start: int = 0

    def __post_init__(self):
        self.edges = [tuple(e) for e in self.edges]
        if type(self.n) is not int or self.n < 0:
            raise UsageError(f"node count must be an int >= 0, got {self.n!r}")
        if any(type(x) is not int for x in chain([self.start], self.theta, *self.edges)):
            raise UsageError("the start node, thresholds and edge endpoints must be ints")
        seen = set()
        for (v, w) in self.edges:
            if not (0 <= v < self.n and 0 <= w < self.n):
                raise UsageError(f"edge {(v, w)} outside node range")
            if (v, w) in seen:
                raise UsageError(f"duplicate edge {(v, w)}")
            seen.add((v, w))
        if len(self.theta) != self.n:
            raise UsageError("theta must assign every node a threshold")
        if not (0 <= self.start < self.n) and self.n > 0:
            raise UsageError("start node out of range")
        self._topo = self._toposort()
        for v in range(self.n):
            if self.theta[v] < 0:
                raise UsageError(f"negative threshold at node {v}")
            if self.theta[v] > self.outdeg(v) + 1:
                raise UsageError(
                    f"theta({v}) = {self.theta[v]} exceeds out-degree + 1 = {self.outdeg(v) + 1}")

    def successors(self, v: int) -> list:
        return sorted(w for (u, w) in self.edges if u == v)

    def outdeg(self, v: int) -> int:
        return sum(1 for (u, _) in self.edges if u == v)

    def _toposort(self) -> list:
        indeg = [0] * self.n
        for (_, w) in self.edges:
            indeg[w] += 1
        order = [v for v in range(self.n) if indeg[v] == 0]
        i = 0
        while i < len(order):
            v = order[i]
            i += 1
            for w in self.successors(v):
                indeg[w] -= 1
                if indeg[w] == 0:
                    order.append(w)
        if len(order) != self.n:
            raise UsageError("game graph contains a cycle")
        return order


class WinningRegions(NamedTuple):
    w0: frozenset
    w1: frozenset


def solve_threshold_game(g: ThresholdGame) -> WinningRegions:
    """Backward induction: v is winning for Player 0 iff at least theta(v)
    of its successors are."""
    w0: set = set()
    for v in reversed(g._topo):
        ws = sum(1 for u in g.successors(v) if u in w0)
        if ws >= g.theta[v]:
            w0.add(v)
    w1 = frozenset(range(g.n)) - w0
    return WinningRegions(frozenset(w0), w1)


class GameAxioms(NamedTuple):
    system: PolySystem
    var_map: dict   # printable variable name -> id
    tags: dict      # id of each axiom position -> family tag (T)/(C)/(E)/(N)


def _variable_layout(g: ThresholdGame) -> dict:
    names = {}
    for v in range(g.n):
        names[f"X_{v}"] = len(names) + 1
    for v in range(g.n):
        for m in range(g.outdeg(v) + 1):
            names[f"Y_{v}^{m}"] = len(names) + 1
    for v in range(g.n):
        s = g.outdeg(v)
        for m in range(1, s + 1):
            for u in g.successors(v):
                for j in range(1, m + 1):
                    names[f"Z_{v}^{m}[{u}->{j}]"] = len(names) + 1
    for v in range(g.n):
        names[f"Xbar_{v}"] = len(names) + 1
    return names


def encode_threshold_axioms(g: ThresholdGame, field: Field = RATIONALS) -> GameAxioms:
    """The four degree-<=2 axiom families describing the game semantics.

    (T) pins terminal verdicts, (C) ties the counting variables Y_v^m to the
    number of winning successors via the matching variables Z, (E) makes the
    Y-block a partition selecting the side of the threshold, and (N) defines
    the dual variables.  Satisfiable in the intended model; the degree-2
    monomial-PC derives each node's verdict from it.
    """
    names = _variable_layout(g)
    num_vars = len(names)

    def P(terms):
        return Polynomial(field, terms)

    def X(v):
        return (names[f"X_{v}"],)

    def Y(v, m):
        return (names[f"Y_{v}^{m}"],)

    def Z(v, m, u, j):
        return (names[f"Z_{v}^{m}[{u}->{j}]"],)

    def Xbar(v):
        return (names[f"Xbar_{v}"],)

    axioms = []
    tags = {}

    def add(poly, tag):
        tags[len(axioms)] = tag
        axioms.append(poly)

    for v in range(g.n):
        s = g.outdeg(v)
        if g.theta[v] == 0:
            add(P([(X(v), 1), ((), -1)]), "T")
        elif s < g.theta[v]:
            add(P([(X(v), 1)]), "T")

    for v in range(g.n):
        s = g.outdeg(v)
        if s == 0:
            continue
        succ = g.successors(v)
        for m in range(1, s + 1):
            for u in succ:
                add(P([(Z(v, m, u, j), 1) for j in range(1, m + 1)] + [(Y(v, m), -1)]), "C")
            for j in range(1, m + 1):
                terms = [(tuple(sorted(set(X(u) + Z(v, m, u, j)))), 1) for u in succ]
                add(P(terms + [(Y(v, m), -1)]), "C")
        add(P([(tuple(sorted(set(X(u) + Y(v, 0)))), 1) for u in succ]), "C")

    for v in range(g.n):
        s = g.outdeg(v)
        low = [(Y(v, m), -1) for m in range(0, g.theta[v])]
        add(P([((), 1), (X(v), -1)] + low), "E")
        high = [(Y(v, m), -1) for m in range(g.theta[v], s + 1)]
        add(P([(X(v), 1)] + high), "E")

    for v in range(g.n):
        add(P([((), 1), (X(v), -1), (Xbar(v), -1)]), "N")

    system = PolySystem(field, num_vars, axioms)
    return GameAxioms(system, names, tags)


def intended_model(g: ThresholdGame) -> dict:
    """The satisfying assignment built from the true winning regions:
    X_v flags Player 0's region, Y_v^m selects m = ws(v), and the Z block
    realises the matching witnessing that count."""
    w0, _ = solve_threshold_game(g)
    names = _variable_layout(g)
    assign = {name: 0 for name in names}
    for v in range(g.n):
        assign[f"X_{v}"] = 1 if v in w0 else 0
        assign[f"Xbar_{v}"] = 0 if v in w0 else 1
        succ = g.successors(v)
        ws = sum(1 for u in succ if u in w0)
        for m in range(g.outdeg(v) + 1):
            assign[f"Y_{v}^{m}"] = 1 if m == ws else 0
        if ws > 0:
            winners = [u for u in succ if u in w0]
            for i, u in enumerate(winners, start=1):
                for j in range(1, ws + 1):
                    assign[f"Z_{v}^{ws}[{u}->{j}]"] = 1 if j == i else 0
            for u in succ:
                if u not in w0:
                    assign[f"Z_{v}^{ws}[{u}->1]"] = 1
    return {names[name]: val for name, val in assign.items()}


def game_to_json(g: ThresholdGame) -> dict:
    return {"n": g.n, "edges": [list(e) for e in g.edges],
            "theta": list(g.theta), "start": g.start}


def game_from_json(obj: dict) -> ThresholdGame:
    with malformed_input("game JSON"):
        return ThresholdGame(obj["n"], [tuple(e) for e in obj["edges"]],
                             list(obj["theta"]), obj.get("start", 0))
