"""Experiment drivers: CFI degree growth, WL/degree calibration, CSP sweeps.

Each cell runs in a worker subprocess with a wall-clock timeout.  A cell is
a generator of dicts that its worker sends down a one-way pipe; the parent
waits on the pipes, merges every dict into the cell's row, and learns that
a cell ended from the end of its pipe (a worker's last dict says "done" or
"error"; a cell that exits without one is an error) or from its deadline
(the cell is stopped, what it sent is kept, and the row reads "timeout").
Both pair experiments run one cell body: the WL sweep, then the degree
sweep.  Reports are deterministic given the same inputs and are emitted as
CSV plus a JSON mirror (one object per row, same keys as the CSV columns).
"""

from __future__ import annotations

import csv
import io
import json
import multiprocessing as mp
import os
import time
from multiprocessing.connection import wait
from typing import Optional

from .algebra import Field, RATIONALS, is_prime
from .cfi import BASE_LIBRARY, to_graph, twisted_pair
from .encoders import (brute_force_homomorphism, clique_structure, cycle_structure,
                       encode_iso_poly, encode_iso_poly_colored, encode_kconsistency_cnf,
                       k_consistency)
from .errors import UsageError
from .pc import PolySystem, degree_sweep
from .resolution import kres_refutes
from .wl import ColoredGraph, wl_sweep


def _cell_worker(conn, func, args):
    with conn:
        try:
            for message in func(*args):
                conn.send(message)
            conn.send({"status": "done"})
        except Exception as exc:  # surfaced in the row rather than crashing the run
            conn.send({"status": "error", "error": f"{type(exc).__name__}: {exc}"})


def run_cells(cells: list, timeout_s: float, workers: Optional[int] = None) -> dict:
    """Run (key, generator_func, args) cells in worker processes.

    Each cell yields dicts, which are merged into its result in order; the
    result per key then carries a status of "done", "timeout", or "error".
    A cell that exits without saying how it ended is an error.  Results
    merge deterministically by key.  `workers` defaults to min(4,
    cpu_count) and must be at least 1.
    """
    if workers is None:
        workers = min(4, os.cpu_count() or 1)
    elif workers < 1:
        raise UsageError(f"workers must be >= 1, got {workers}")
    results: dict = {}
    pending = list(cells)
    running: dict = {}  # reading end -> (key, process, deadline)
    while pending or running:
        while pending and len(running) < workers:
            key, func, args = pending.pop(0)
            reader, writer = mp.Pipe(duplex=False)
            proc = mp.Process(target=_cell_worker, args=(writer, func, args), daemon=True)
            proc.start()
            writer.close()  # the cell holds the only sending end, so its exit is EOF
            results[key] = {}
            running[reader] = (key, proc, time.monotonic() + timeout_s)
        earliest = min(deadline for _, _, deadline in running.values())
        for conn in wait(list(running), max(0.0, earliest - time.monotonic())):
            try:
                results[running[conn][0]].update(conn.recv())
            except (EOFError, OSError):  # the cell has exited; all it sent whole is read
                key, proc, _ = running.pop(conn)
                proc.join()
                conn.close()
                results[key].setdefault("status", "error")
        now = time.monotonic()
        for conn in [c for c, (_, _, deadline) in running.items() if deadline <= now]:
            key, proc, _ = running.pop(conn)
            proc.terminate()
            proc.join()
            # stopped, the cell sends nothing more: read what its pipe holds
            try:
                while conn.poll():
                    results[key].update(conn.recv())
            except (EOFError, OSError):  # OSError: a send cut short
                pass
            conn.close()
            results[key]["status"] = "timeout"
    return results


# --- cell bodies (generators yielding dicts for the row) ---------------------


def _pair_cell(row: dict, g: ColoredGraph, h: ColoredGraph, system: PolySystem,
               k_max: int, dim_max: int):
    """The WL dimension of a pair of graphs, then the minimal monomial-PC
    degree of its isomorphism system.  WL goes first: it is cheap next to
    the closures, so a row cut by the timeout still carries wl_dim, and a
    missing key means "not measured"."""
    yield dict(row, num_vars=system.num_vars, min_degree=None, k_checked=0, basis_dims=[])
    t0 = time.monotonic()
    wl_dim = wl_sweep(g, h, dim_max)
    yield {"wl_dim": wl_dim, "wl_seconds": round(time.monotonic() - t0, 2)}
    dims = []
    t0 = time.monotonic()
    for k, refuted, dimension in degree_sweep(system, "monpc", k_max):
        dims.append(dimension)
        yield {"k_checked": k, "basis_dims": list(dims), "min_degree": k if refuted else None,
               "k_seconds": round(time.monotonic() - t0, 2)}
        t0 = time.monotonic()


def _csp_cell(n: int, k: int):
    cyc = cycle_structure(n)
    template = clique_structure(2)
    direct = k_consistency(cyc, template, k)
    cnf = encode_kconsistency_cnf(cyc, template, k)
    width = max(len(c) for c in cnf.clauses)
    res_verdict = not kres_refutes(cnf, width)
    brute = brute_force_homomorphism(cyc, template)
    yield {"cycle": n, "k": k, "direct": direct, "resolution": res_verdict,
           "brute_force": brute, "width": width, "agree": direct == res_verdict == brute}


def experiment_degree_growth(bases: list, p: int = 2, field: Field = RATIONALS,
                             k_max: int = 4, dim_max: int = 3,
                             timeout_s: float = 300.0,
                             workers: Optional[int] = None) -> list:
    """Minimal monomial-PC refutation degree of the twisted-pair isomorphism
    system, per base graph, next to the WL distinguishing dimension.

    Rows are sorted by base size; cells are started largest base first.
    The WL sweep runs before the degree sweep, so a row cut short during
    the degree sweep still carries wl_dim; a row without the key was not
    measured.  A cell that exceeds the timeout keeps the
    partial degrees it reported (min_degree stays None with k_checked
    showing how far the sweep got).
    """
    for b in bases:
        if b not in BASE_LIBRARY:
            raise UsageError(f"unknown base graph {b!r}; shipped: {sorted(BASE_LIBRARY)}")
    if not is_prime(p):
        raise UsageError(f"the CFI p must be prime, got {p}")
    if field.p == p:
        raise UsageError("field characteristic must differ from the CFI prime")
    if k_max < 1 or dim_max < 1:
        raise UsageError(f"k_max and dim_max must be >= 1, got {k_max} and {dim_max}")
    by_size = sorted(bases, key=lambda b: BASE_LIBRARY[b].n)
    cells = []
    # largest base first: its cell bounds the wall time, so it should not
    # wait in the queue behind the small ones
    for b in reversed(by_size):
        ga, gb = map(to_graph, twisted_pair(BASE_LIBRARY[b], p))
        row = {"base": b, "base_n": BASE_LIBRARY[b].n, "p": p}
        cells.append((b, _pair_cell, (row, ga, gb, encode_iso_poly_colored(ga, gb, field),
                                      k_max, dim_max)))
    results = run_cells(cells, timeout_s, workers)
    return [results[b] for b in by_size]


def calibration_pairs(include_cfi: bool = True) -> list:
    """The standard calibration corpus: small colored/uncolored pairs with
    known structure plus the CFI/K4 twisted pair."""
    def graph(n, edges, colors=None):
        sym = set()
        for (u, v) in edges:
            sym.add((u, v))
            sym.add((v, u))
        return ColoredGraph(n, colors, {"E": frozenset(sym)})

    pairs = []
    tri2 = graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    c6 = graph(6, [(i, (i + 1) % 6) for i in range(6)])
    pairs.append(("triangles_vs_c6", tri2, c6, False))
    # degree-profile pairs: distinguishable already by color refinement
    pairs.append(("path3_vs_triangle", graph(3, [(0, 1), (1, 2)]),
                  graph(3, [(0, 1), (1, 2), (0, 2)]), False))
    pairs.append(("star_vs_path4", graph(4, [(0, 1), (0, 2), (0, 3)]),
                  graph(4, [(0, 1), (1, 2), (2, 3)]), False))
    pairs.append(("k4_vs_c4", graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
                  graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]), False))
    pairs.append(("c5_vs_path5", graph(5, [(i, (i + 1) % 5) for i in range(5)]),
                  graph(5, [(i, i + 1) for i in range(4)]), False))
    pairs.append(("matching_vs_path", graph(4, [(0, 1), (2, 3)]),
                  graph(4, [(0, 1), (1, 2)]), False))
    pairs.append(("k33_vs_prism", graph(6, [(i, j + 3) for i in range(3) for j in range(3)]),
                  graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]), False))
    pairs.append(("c4_vs_2k2", graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
                  graph(4, [(0, 1), (2, 3)]), False))
    pairs.append(("p5_vs_star5", graph(5, [(i, i + 1) for i in range(4)]),
                  graph(5, [(0, i) for i in range(1, 5)]), False))
    pairs.append(("triangle_iso_vs_p4", graph(4, [(0, 1), (1, 2), (0, 2)]),
                  graph(4, [(0, 1), (1, 2), (2, 3)]), False))
    pairs.append(("k23_vs_c5", graph(5, [(i, j + 2) for i in range(2) for j in range(3)]),
                  graph(5, [(i, (i + 1) % 5) for i in range(5)]), False))
    pairs.append(("2triangles_vs_c3c3_colored",
                  graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)], [0, 0, 0, 1, 1, 1]),
                  graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)], [0, 0, 1, 1, 1, 0]), True))
    pairs.append(("colored_path_swap",
                  graph(4, [(0, 1), (1, 2), (2, 3)], [0, 1, 1, 0]),
                  graph(4, [(0, 1), (1, 2), (2, 3)], [1, 0, 0, 1]), True))
    pairs.append(("c6_vs_2c3_colored",
                  graph(6, [(i, (i + 1) % 6) for i in range(6)], [0] * 6),
                  graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)], [0] * 6), True))
    pairs.append(("paw_vs_c4", graph(4, [(0, 1), (1, 2), (0, 2), (0, 3)]),
                  graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]), False))
    pairs.append(("bull_vs_cricket", graph(5, [(0, 1), (1, 2), (0, 2), (1, 3), (2, 4)]),
                  graph(5, [(0, 1), (1, 2), (0, 2), (1, 3), (1, 4)]), False))
    pairs.append(("diamond_vs_c4", graph(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)]),
                  graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]), False))
    pairs.append(("k5_vs_k5_minus", graph(5, [(i, j) for i in range(5) for j in range(i + 1, 5)]),
                  graph(5, [(i, j) for i in range(5) for j in range(i + 1, 5) if (i, j) != (3, 4)]), False))
    pairs.append(("house_vs_gem", graph(5, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (1, 4)]),
                  graph(5, [(0, 1), (1, 2), (2, 3), (0, 4), (1, 4), (2, 4), (3, 4)]), False))
    pairs.append(("2k2_vs_p4_colored", graph(4, [(0, 1), (2, 3)], [0, 1, 0, 1]),
                  graph(4, [(0, 1), (1, 2), (2, 3)], [0, 1, 0, 1]), True))
    if include_cfi:
        a, b = twisted_pair(BASE_LIBRARY["k4"], 2)
        pairs.append(("cfi_k4_twisted", to_graph(a), to_graph(b), True))
    return pairs


def experiment_wl_calibrate(k_max: int = 4, dim_max: int = 3,
                            timeout_s: float = 300.0,
                            workers: Optional[int] = None,
                            pairs: Optional[list] = None) -> dict:
    """Fit the single offset between minimal refutation degree and WL
    dimension over `pairs` (default: the whole calibration corpus), each
    encoded over Q; rows keep the per-pair data."""
    if k_max < 1 or dim_max < 1:
        raise UsageError(f"k_max and dim_max must be >= 1, got {k_max} and {dim_max}")
    if pairs is None:
        pairs = calibration_pairs()
    cells = []
    for name, g, h, colored in pairs:
        if colored:
            system = encode_iso_poly_colored(g, h)
        else:
            system = encode_iso_poly(g.n, sorted(g.relations.get("E", frozenset())),
                                     h.n, sorted(h.relations.get("E", frozenset())))
        cells.append((name, _pair_cell, ({"pair": name}, g, h, system, k_max, dim_max)))
    results = run_cells(cells, timeout_s, workers)
    rows = [results[name] for (name, _, _, _) in pairs]
    offsets = sorted({row["min_degree"] - row["wl_dim"] for row in rows
                      if row.get("min_degree") is not None and row.get("wl_dim") is not None})
    return {"rows": rows, "offsets": offsets,
            "c": offsets[0] if len(offsets) == 1 else None}


def experiment_csp_sweep(cycle_min: int = 3, cycle_max: int = 8, k: int = 3,
                         timeout_s: float = 600.0,
                         workers: Optional[int] = None) -> list:
    """Two-coloring dichotomy sweep: direct k-consistency, resolution on the
    clause encoding, and brute-force homomorphism, per cycle."""
    if k < 1:
        raise UsageError(f"k must be >= 1, got {k}")
    cells = [(n, _csp_cell, (n, k)) for n in range(cycle_min, cycle_max + 1)]
    results = run_cells(cells, timeout_s, workers)
    return [results[n] for n in range(cycle_min, cycle_max + 1)]


# --- report persistence ------------------------------------------------------

def rows_to_csv(rows: list) -> str:
    if not rows:
        return ""
    keys = sorted({k for row in rows for k in row})
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=keys)
    writer.writeheader()
    for row in rows:
        writer.writerow({k: json.dumps(row[k]) if isinstance(row[k], (list, dict))
                         else row[k] for k in row})
    return buf.getvalue()


def write_report(rows: list, csv_path: Optional[str] = None,
                 json_path: Optional[str] = None):
    if csv_path:
        with open(csv_path, "w") as fh:
            fh.write(rows_to_csv(rows))
    if json_path:
        with open(json_path, "w") as fh:
            json.dump(rows, fh, indent=1)
            fh.write("\n")
