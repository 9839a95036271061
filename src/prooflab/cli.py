"""Command-line interface.

Verdict-bearing subcommands exit 10 when they refute/distinguish and 11
when they do not; 0 means a neutral command completed; 2 is a usage error.
Verdict output is JSON on stdout, logs go to stderr.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys

from . import algebra, cfi, encoders, experiments, games, logic, pc, resolution, wl
from .errors import UsageError, malformed_input

log = logging.getLogger("prooflab")

EXIT_OK = 0
EXIT_REFUTED = 10
EXIT_NOT_REFUTED = 11
EXIT_USAGE = 2


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path) as fh:
        return fh.read()


def _parse_json(text: str, path: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path} is not JSON: {exc}") from exc


def _read_json(path: str):
    return _parse_json(_read(path), path)


def _emit(obj, out: str | None = None) -> None:
    text = json.dumps(obj, indent=1, default=str) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _verdict_exit(refuted: bool) -> int:
    return EXIT_REFUTED if refuted else EXIT_NOT_REFUTED


def _parse_field(text: str) -> algebra.Field:
    if text in ("Q", "q"):
        return algebra.RATIONALS
    if text.startswith("Fp:") and text[3:].strip().isdecimal():
        return algebra.Field(int(text[3:]))
    raise UsageError(f"field must be Q or Fp:<prime>, got {text!r}")


CONFIG_KEYS = ("bases", "timeout")


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    out = {}
    for line in _read(path).splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"bad config line {line!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if key not in CONFIG_KEYS:
            raise UsageError(f"unknown config key {key!r} in {path}; use one of {CONFIG_KEYS}")
        out[key] = value.strip()
    return out


def _load_graph(path: str) -> wl.ColoredGraph:
    text = _read(path)
    if text.lstrip().startswith("{"):
        obj = _parse_json(text, path)
        with malformed_input(f"graph JSON in {path}"):
            return wl.ColoredGraph(obj["n"], obj.get("colors"),
                                   {name: [tuple(p) for p in pairs]
                                    for name, pairs in obj.get("relations", {}).items()})
    return wl.parse_colored_graph(text)


def _base_graph(name_or_path: str) -> cfi.CfiBase:
    if name_or_path in cfi.BASE_LIBRARY:
        return cfi.BASE_LIBRARY[name_or_path]
    return cfi.parse_base_graph(_read(name_or_path))


def cmd_encode(args) -> int:
    if args.problem == "nonreach":
        g = _load_graph(args.graph)
        edges = sorted(g.relations.get("E", frozenset()))
        f = encoders.encode_nonreach(g.n, edges, args.s, args.t)
        sys.stdout.write(resolution.write_dimacs(f))
    elif args.problem == "iso":
        g, h = _load_graph(args.g), _load_graph(args.h)
        relations = set(g.relations) | set(h.relations)
        if args.format != "poly-colored" and (len(set(g.colors) | set(h.colors)) > 1
                                              or relations - {"E"}):
            raise UsageError(f"--format {args.format} encodes the edge relation E of "
                             "uncoloured graphs only; use --format poly-colored")
        if args.format == "cnf":
            f = encoders.encode_iso_cnf(g.n, sorted(g.relations.get("E", frozenset())),
                                        h.n, sorted(h.relations.get("E", frozenset())))
            sys.stdout.write(resolution.write_dimacs(f))
        else:
            field = _parse_field(args.field)
            if args.format == "poly":
                system = encoders.encode_iso_poly(
                    g.n, sorted(g.relations.get("E", frozenset())),
                    h.n, sorted(h.relations.get("E", frozenset())), field)
            else:
                system = encoders.encode_iso_poly_colored(g, h, field)
            sys.stdout.write(pc.dumps_system(system) + "\n")
    else:
        raise UsageError(f"unknown encode problem {args.problem!r}")
    return EXIT_OK


def cmd_res(args) -> int:
    f = resolution.read_dimacs(_read(args.cnf))
    if args.engine == "horn":
        res = resolution.horn_refute(f)
        _emit({"refuted": res.refuted, "derived_units": sorted(res.derived_units)})
        return _verdict_exit(res.refuted)
    refuted = resolution.kres_refutes(f, args.width)
    _emit({"refuted": refuted, "width": args.width})
    return _verdict_exit(refuted)


def cmd_pc(args) -> int:
    system = pc.system_from_json(_read_json(args.system))
    if args.field is not None and _parse_field(args.field) != system.field:
        raise UsageError(f"--field {args.field} does not match the system's field {system.field}")
    saturate = pc.ENGINES[args.engine]
    res = saturate(system, args.degree)
    _emit({"refuted": res.refuted, "degree": args.degree,
           "basis_dimension": res.basis.dimension})
    return _verdict_exit(res.refuted)


def cmd_min_degree(args) -> int:
    system = pc.system_from_json(_read_json(args.system))
    k = pc.min_refutation_degree(system, args.engine, args.k_max)
    _emit({"min_degree": k, "k_max": args.k_max, "engine": args.engine})
    return _verdict_exit(k is not None)


def cmd_wl(args) -> int:
    g, h = _load_graph(args.g), _load_graph(args.h)
    dim = wl.wl_sweep(g, h, args.dim_max)
    _emit({"distinguishing_dim": dim, "dim_max": args.dim_max})
    return _verdict_exit(dim is not None)


def cmd_cfi(args) -> int:
    base = _base_graph(args.base)
    if args.action == "gen":
        try:
            lam = [int(x) for x in args.load.split(",")] if args.load else [0] * base.n
        except ValueError:
            raise UsageError(f"--load must be comma-separated integers, got {args.load!r}") from None
        s = cfi.build_cfi(base, args.p, lam)
        _emit({"meta": cfi.structure_meta(s),
               "structure": logic.structure_to_json(cfi.to_rel_structure(s))}, args.out)
    elif args.action == "pair":
        a, b = cfi.twisted_pair(base, args.p)
        _emit({"first": {"meta": cfi.structure_meta(a),
                         "structure": logic.structure_to_json(cfi.to_rel_structure(a))},
               "second": {"meta": cfi.structure_meta(b),
                          "structure": logic.structure_to_json(cfi.to_rel_structure(b))}},
              args.out)
    elif args.action == "aut":
        aut = cfi.automorphism_space(base, args.p)
        _emit({"dimension": aut.dimension, "order": args.p ** aut.dimension,
               "basis": [{f"{e}": v for e, v in vec.items()} for vec in aut.basis]})
    else:
        raise UsageError(f"unknown cfi action {args.action!r}")
    return EXIT_OK


def cmd_game(args) -> int:
    g = games.game_from_json(_read_json(args.game))
    if args.action == "solve":
        w0, w1 = games.solve_threshold_game(g)
        _emit({"w0": sorted(w0), "w1": sorted(w1)})
        return EXIT_OK
    if args.action == "encode":
        ax = games.encode_threshold_axioms(g, _parse_field(args.field))
        sys.stdout.write(pc.dumps_system(ax.system) + "\n")
        return EXIT_OK
    raise UsageError(f"unknown game action {args.action!r}")


def cmd_csp(args) -> int:
    a = logic.structure_from_json(_read_json(args.instance))
    t = logic.structure_from_json(_read_json(args.template))
    if args.action == "check":
        verdict = encoders.k_consistency(a, t, args.k)
        _emit({"consistent": verdict, "k": args.k})
        return _verdict_exit(not verdict)
    if args.action == "encode":
        f = encoders.encode_kconsistency_cnf(a, t, args.k)
        sys.stdout.write(resolution.write_dimacs(f))
        return EXIT_OK
    raise UsageError(f"unknown csp action {args.action!r}")


def cmd_lfp(args) -> int:
    a = logic.structure_from_json(_read_json(args.structure))
    params = {}
    for binding in args.param or []:
        name, _, value = binding.partition("=")
        with malformed_input(f"--param {binding!r}, expected name=element"):
            params[name] = int(value)
    phi = logic.parse_formula(_read(args.formula), params)
    if args.action == "eval":
        holds = logic.eval_poslfp(a, phi)
        _emit({"satisfied": holds})
        return _verdict_exit(holds)
    if args.action == "encode":
        enc = logic.horn_encode(a, phi)
        sys.stdout.write(resolution.write_dimacs(enc.cnf))
        return EXIT_OK
    raise UsageError(f"unknown lfp action {args.action!r}")


def cmd_experiment(args) -> int:
    config = _load_config(args.config)
    with malformed_input(f"timeout in {args.config}"):
        config_timeout = float(config.get("timeout", 300.0))
    timeout = config_timeout if args.timeout is None else args.timeout  # a given flag wins
    if args.kind == "degree-growth":
        bases = (args.bases or config.get("bases", "k4,prism,cube,petersen")).split(",")
        field = _parse_field(args.field)
        rows = experiments.experiment_degree_growth(
            bases, p=args.p, field=field, k_max=args.k_max,
            dim_max=args.dim_max, timeout_s=timeout, workers=args.workers)
    elif args.kind == "wl-calibrate":
        report = experiments.experiment_wl_calibrate(
            k_max=args.k_max, dim_max=args.dim_max, timeout_s=timeout,
            workers=args.workers,
            pairs=experiments.calibration_pairs(include_cfi=not args.no_cfi))
        rows = report["rows"]
        log.info("offsets observed: %s; c = %s", report["offsets"], report["c"])
        _emit({"offsets": report["offsets"], "c": report["c"]})
    elif args.kind == "csp-sweep":
        rows = experiments.experiment_csp_sweep(
            cycle_min=args.cycle_min, cycle_max=args.cycle_max,
            k=args.k, timeout_s=timeout, workers=args.workers)
    else:
        raise UsageError(f"unknown experiment {args.kind!r}")
    experiments.write_report(rows, args.out_csv, args.out_json)
    if args.kind != "wl-calibrate":
        _emit(rows)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="prooflab",
                                 description="polynomial-time proof system laboratory")
    ap.add_argument("-v", "--verbose", action="count", default=0)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", help="encode a problem as DIMACS or a polynomial system")
    p.add_argument("problem", choices=["nonreach", "iso"])
    p.add_argument("--graph", help="graph file (nonreach)")
    p.add_argument("--s", type=int, default=0)
    p.add_argument("--t", type=int, default=1)
    p.add_argument("--g", help="first graph (iso)")
    p.add_argument("--h", help="second graph (iso)")
    p.add_argument("--format", choices=["cnf", "poly", "poly-colored"], default="cnf")
    p.add_argument("--field", default="Q")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("res", help="resolution engines on a DIMACS file")
    p.add_argument("engine", choices=["horn", "kres"])
    p.add_argument("cnf", help="DIMACS file or - for stdin")
    p.add_argument("--width", type=int, default=3)
    p.set_defaults(func=cmd_res)

    p = sub.add_parser("pc", help="polynomial calculus saturation")
    p.add_argument("system", help="PolySystem JSON file or -")
    p.add_argument("--engine", choices=["monpc", "pc"], default="monpc")
    p.add_argument("--degree", type=int, default=2)
    p.add_argument("--field", default=None, help="optional check against the system file's field")
    p.set_defaults(func=cmd_pc)

    p = sub.add_parser("min-degree", help="smallest refuting degree")
    p.add_argument("system")
    p.add_argument("--engine", choices=["monpc", "pc"], default="monpc")
    p.add_argument("--k-max", type=int, default=4)
    p.set_defaults(func=cmd_min_degree)

    p = sub.add_parser("wl", help="Weisfeiler-Leman distinguishing sweep")
    p.add_argument("--g", required=True)
    p.add_argument("--h", required=True)
    p.add_argument("--dim-max", type=int, default=3)
    p.set_defaults(func=cmd_wl)

    p = sub.add_parser("cfi", help="CFI structure generation and symmetries")
    p.add_argument("action", choices=["gen", "pair", "aut"])
    p.add_argument("--base", default="k4", help="library name or base-graph file")
    p.add_argument("--p", type=int, default=2)
    p.add_argument("--load", help="comma-separated load vector")
    p.add_argument("--out")
    p.set_defaults(func=cmd_cfi)

    p = sub.add_parser("game", help="threshold games")
    p.add_argument("action", choices=["solve", "encode"])
    p.add_argument("game", help="game JSON file or -")
    p.add_argument("--field", default="Q")
    p.set_defaults(func=cmd_game)

    p = sub.add_parser("csp", help="k-consistency")
    p.add_argument("action", choices=["check", "encode"])
    p.add_argument("--instance", required=True)
    p.add_argument("--template", required=True)
    p.add_argument("--k", type=int, default=3)
    p.set_defaults(func=cmd_csp)

    p = sub.add_parser("lfp", help="posLFP evaluation and Horn compilation")
    p.add_argument("action", choices=["eval", "encode"])
    p.add_argument("--structure", required=True)
    p.add_argument("--formula", required=True)
    p.add_argument("--param", action="append", help="name=element, repeatable")
    p.set_defaults(func=cmd_lfp)

    p = sub.add_parser("experiment", help="experiment drivers")
    p.add_argument("kind", choices=["degree-growth", "wl-calibrate", "csp-sweep"])
    p.add_argument("--bases")
    p.add_argument("--p", type=int, default=2)
    p.add_argument("--field", default="Q")
    p.add_argument("--k-max", type=int, default=4)
    p.add_argument("--dim-max", type=int, default=3)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--cycle-min", type=int, default=3)
    p.add_argument("--cycle-max", type=int, default=8)
    p.add_argument("--timeout", type=float, help="seconds per cell (default: the config's, "
                   "else 300)")
    p.add_argument("--workers", type=int)
    p.add_argument("--no-cfi", action="store_true")
    p.add_argument("--config", help="line-oriented key=value file")
    p.add_argument("--out-csv")
    p.add_argument("--out-json")
    p.set_defaults(func=cmd_experiment)
    return ap


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalise other codes
        return EXIT_USAGE if exc.code not in (0,) else 0
    logging.basicConfig(stream=sys.stderr,
                        level=logging.DEBUG if args.verbose else logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
