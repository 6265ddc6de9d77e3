"""Command-line front end.

Exit codes: 0 success (or solvable / cover found), 1 unsolvable / no cover,
2 undecided within the node budget, 64 usage error (including an option
value the library rejects and an output path that cannot be written), 65
unreadable or invalid input file.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import reduction, sampling, solvability, thresholds
from .graphs import (
    FAMILIES,
    configuration_from_dict,
    configuration_to_dict,
    generate_family,
    graph_from_dict,
    graph_to_dict,
)
from .stacking import cover_pebbling_number

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_UNDECIDED = 2
EXIT_USAGE = 64
EXIT_INPUT = 65


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _non_negative_int(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _parts(text: str) -> list:
    return [_positive_int(r) for r in text.split(",")]


def _load_json(path: str) -> dict:
    try:
        with open(path) as handle:
            return json.load(handle)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from exc


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w") as handle:
            handle.write(text)
    except OSError as exc:
        raise _UsageError(f"cannot write {path}: {exc.strerror}") from exc


def _write_json(path: str, payload: dict) -> None:
    _write_text(path, json.dumps(payload) + "\n")


def _load_graph(path: str):
    return graph_from_dict(_load_json(path))


def _load_config(path: str):
    return configuration_from_dict(_load_json(path))


def _load_instance(path: str):
    return reduction.instance_from_dict(_load_json(path))


def _build_parser() -> _Parser:
    parser = _Parser(prog="coverpebble", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("lambda", help="cover pebbling number of a graph")
    p.add_argument("--graph", required=True)

    p = sub.add_parser("solve", help="decide cover solvability")
    p.add_argument("--graph", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--certificate", help="write the move certificate JSON here")
    p.add_argument("--budget", type=_positive_int, default=solvability.DEFAULT_NODE_BUDGET)
    p.add_argument("--oracle", action="store_true",
                   help="use the exhaustive brute-force oracle instead of the solver")

    p = sub.add_parser("verify", help="check a move certificate")
    p.add_argument("--graph", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--certificate", required=True)

    p = sub.add_parser("sample", help="draw random configurations")
    p.add_argument("--model", required=True, choices=["mb", "be"])
    p.add_argument("--n", required=True, type=_non_negative_int)
    p.add_argument("--t", required=True, type=_non_negative_int)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--count", type=_non_negative_int, default=1)

    p = sub.add_parser("dist", help="exact Bose-Einstein odd-stack distribution")
    p.add_argument("--n", required=True, type=_positive_int)
    p.add_argument("--t", required=True, type=_non_negative_int)
    p.add_argument("--x", type=int)

    p = sub.add_parser("threshold", help="Monte Carlo solvability sweep on K_n")
    p.add_argument("--model", required=True, choices=["mb", "be"])
    p.add_argument("--n", required=True, type=_positive_int)
    p.add_argument("--t-min", required=True, type=_non_negative_int)
    p.add_argument("--t-max", required=True, type=_non_negative_int)
    p.add_argument("--step", required=True, type=_positive_int)
    p.add_argument("--trials", required=True, type=_positive_int)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--workers", type=_positive_int, default=1)
    p.add_argument("--crossing", action="store_true")
    p.add_argument("--out")

    p = sub.add_parser("reduce", help="build the exact-cover gadget graph")
    p.add_argument("--instance", required=True)
    p.add_argument("--out-graph", required=True)
    p.add_argument("--out-config", required=True)

    p = sub.add_parser("xcover", help="brute-force exact cover by 4-sets")
    p.add_argument("--instance", required=True)

    p = sub.add_parser("gen", help="generate a named graph family")
    p.add_argument("--family", required=True, choices=list(FAMILIES))
    p.add_argument("--n", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--parts", type=_parts, help="comma-separated descending part sizes")
    p.add_argument("--p", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    return parser


def _cmd_lambda(args) -> int:
    result = cover_pebbling_number(_load_graph(args.graph))
    print(json.dumps({"lambda": str(result.cover_number), "argmax": result.argmax_vertex}))
    return EXIT_OK


def _cmd_solve(args) -> int:
    graph = _load_graph(args.graph)
    config = _load_config(args.config)
    if args.oracle:
        answer = solvability.solve_bruteforce(graph, config)
        print(json.dumps({"status": "solvable" if answer else "unsolvable"}))
        return EXIT_OK if answer else EXIT_NEGATIVE
    result = solvability.solve(graph, config, args.budget)
    print(json.dumps({
        "status": result.status,
        "nodes_expanded": result.nodes_expanded,
        "fast_path": result.fast_path,
    }))
    if result.status == solvability.SOLVABLE and args.certificate:
        _write_json(args.certificate, solvability.certificate_to_dict(result.certificate))
    if result.status == solvability.SOLVABLE:
        return EXIT_OK
    if result.status == solvability.UNSOLVABLE:
        return EXIT_NEGATIVE
    return EXIT_UNDECIDED


def _cmd_verify(args) -> int:
    ok = solvability.verify_certificate(
        _load_graph(args.graph),
        _load_config(args.config),
        solvability.certificate_from_dict(_load_json(args.certificate)),
    )
    print("valid" if ok else "invalid")
    return EXIT_OK if ok else EXIT_NEGATIVE


def _cmd_sample(args) -> int:
    sampler = (sampling.sample_mb if args.model == "mb" else sampling.sample_be_polya)
    for index in range(args.count):
        config = sampler(args.n, args.t, sampling.SeededStream(args.seed, index))
        print(json.dumps(configuration_to_dict(config)))
    return EXIT_OK


def _cmd_dist(args) -> int:
    if args.x is not None:
        p = sampling.be_odd_stack_pmf(args.n, args.t, args.x)
        print(f"{p.numerator}/{p.denominator}")
        return EXIT_OK
    for x in range(args.t % 2, min(args.n, args.t) + 1, 2):
        p = sampling.be_odd_stack_pmf(args.n, args.t, x)
        print(f"{x} {p.numerator}/{p.denominator} {float(p)}")
    return EXIT_OK


def _cmd_threshold(args) -> int:
    curve = thresholds.sweep(
        sampling.RandomModel(args.model), args.n, args.t_min, args.t_max,
        args.step, args.trials, args.seed, workers=args.workers,
    )
    text = thresholds.curve_to_csv(curve, include_crossing=args.crossing)
    if args.out:
        _write_text(args.out, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_reduce(args) -> int:
    built = reduction.build_reduction(_load_instance(args.instance))
    _write_json(args.out_graph, graph_to_dict(built.graph))
    _write_json(args.out_config, configuration_to_dict(built.config))
    return EXIT_OK


def _cmd_xcover(args) -> int:
    witness = reduction.exact_cover_bruteforce(_load_instance(args.instance))
    if witness is None:
        print("none")
        return EXIT_NEGATIVE
    print(" ".join(str(i) for i in witness))
    return EXIT_OK


def _cmd_gen(args) -> int:
    params = {name: getattr(args, name) for name in FAMILIES[args.family][1]}
    missing = [f"--{name}" for name, value in params.items() if value is None]
    if missing:
        raise _UsageError(f"family {args.family} requires {' and '.join(missing)}")
    _write_json(args.out, graph_to_dict(generate_family(args.family, **params)))
    return EXIT_OK


# command -> (handler, reads input files): a ValueError means a bad input
# file if it does, else an option value the library rejected
_COMMANDS = {
    "lambda": (_cmd_lambda, True),
    "solve": (_cmd_solve, True),
    "verify": (_cmd_verify, True),
    "sample": (_cmd_sample, False),
    "dist": (_cmd_dist, False),
    "threshold": (_cmd_threshold, False),
    "reduce": (_cmd_reduce, True),
    "xcover": (_cmd_xcover, True),
    "gen": (_cmd_gen, False),
}


def run_cli(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler, reads_files = _COMMANDS[args.command]
    try:
        return handler(args)
    except (_UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if reads_files and not isinstance(exc, _UsageError):
            return EXIT_INPUT
        raise SystemExit(EXIT_USAGE) from exc


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
