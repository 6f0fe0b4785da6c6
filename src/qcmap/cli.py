"""Command-line front end.

Subcommands: solve (JSON), cmap / simulate / ode (CSV), validate-graph.
Exit codes: 0 success, 1 solver or validation failure, 2 usage error.
Failures emit a JSON envelope {error, message, context} on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import re
import sys

import numpy as np

from . import __version__
from .activations import parse_activation
from .errors import DomainError, QcmapError, UnattainableTargetError
from .finite_width import InitScheme, SimConfig, run_simulation, theory_trace
from .kernel_maps import LocalMapParams, kernel_map
from .netgraph import (
    NetworkGraph,
    build_rescaled_resnet,
    build_vanilla,
    eval_U,
    load_graph_json,
    validate_graph,
)
from .ode_limit import find_T, integrate_psi
from .solvers import eoc_lrelu, solve_dks, solve_eoc_smooth, solve_tat_lrelu, solve_tat_smooth

__all__ = ["main", "run"]


def _parse_graph(spec: str) -> NetworkGraph:
    kind, _, rest = spec.partition(":")
    if kind == "vanilla":
        return build_vanilla(int(rest))
    if kind == "resnet":
        parts = rest.split(":")
        if len(parts) < 2:
            raise ValueError("resnet graph spec needs resnet:<blocks>:<w>[:transitions]")
        blocks, w = int(parts[0]), float(parts[1])
        transitions = len(parts) > 2 and parts[2] == "transitions"
        return build_rescaled_resnet(
            blocks, w, with_transitions=transitions, final_nonlinear=transitions
        )
    if kind == "file":
        return load_graph_json(rest)
    raise ValueError(f"unknown graph spec: {spec!r}")


def _emit_error(code: str, message: str, context: dict | None = None) -> None:
    envelope = {"error": code, "message": message, "context": context or {}}
    print(json.dumps(envelope), file=sys.stderr)


def _context(err: QcmapError) -> dict:
    """The attributes the error carries (max_value, last_iterate, residual,
    f_lo, f_hi, node_id) as strict JSON: arrays as lists, non-finite as null."""
    def finite(v):
        return None if isinstance(v, float) and not math.isfinite(v) else v
    return {name: [finite(v) for v in value.tolist()] if isinstance(value, np.ndarray)
            else finite(value) for name, value in vars(err).items()}


@contextlib.contextmanager
def _output(path: str | None):
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", newline="") as out:
            yield out


def _write_csv(path: str | None, header: list[str], rows) -> None:
    """The header and the rows, each a preformatted line of comma-joined
    fields, written in one piece with CRLF line ends, as the csv module's
    default dialect writes them; no field needs quoting (names and numbers)."""
    with _output(path) as out:
        out.write("\r\n".join([",".join(header), *rows]) + "\r\n")


def _cmd_solve(args) -> int:
    if args.method != "eoc" and not args.graph:
        raise ValueError(f"{args.method} requires --graph")
    graph = _parse_graph(args.graph) if args.graph else None
    if args.method == "tat-lrelu":
        if args.eta is None:
            raise ValueError("tat-lrelu requires --eta")
        solution = solve_tat_lrelu(graph, args.eta)
        payload = solution.to_dict()
        payload["achieved_eta"] = solution.achieved_eta
    elif args.method == "tat-smooth":
        if args.tau is None:
            raise ValueError("tat-smooth requires --tau")
        solution = solve_tat_smooth(graph, parse_activation(args.activation), args.tau)
        payload = solution.to_dict()
    elif args.method == "dks":
        if args.zeta is None:
            raise ValueError("dks requires --zeta")
        solution = solve_dks(graph, parse_activation(args.activation), args.zeta)
        payload = solution.to_dict()
    elif args.method == "eoc":
        act = parse_activation(args.activation)
        solve = solve_eoc_smooth if act.smooth else eoc_lrelu
        payload = solve(act, sigma_b=args.sigma_b).to_dict()
        payload["activation"] = args.activation
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown method {args.method}")
    with _output(args.output) as out:
        json.dump(payload, out, indent=2)
        out.write("\n")
    return 0


def _cmd_cmap(args) -> int:
    if args.points < 1:
        raise ValueError(f"--points must be >= 1, got {args.points}")
    if not abs(args.start) <= 1.0:
        raise DomainError(f"--from must lie in [-1, 1], got {args.start}")
    graph = _parse_graph(args.graph)
    local = kernel_map(LocalMapParams(parse_activation(args.activation)))
    grid = np.linspace(args.start, 1.0, args.points)
    values = eval_U(graph, local, grid)
    _write_csv(args.output, ["c", "C_f"], (
        f"{c:.12g},{v:.12g}" for c, v in zip(grid.tolist(), np.atleast_1d(values).tolist())))
    return 0


def _cmd_simulate(args) -> int:
    act = parse_activation(args.activation)
    config = SimConfig(
        width=args.width,
        depth=args.depth,
        trials=args.trials,
        pairs_per_trial=args.pairs,
        seed=args.seed,
        initial_c=args.c0,
    )
    scheme = InitScheme(args.init)
    trace = run_simulation(config, act, scheme)
    theory = theory_trace(kernel_map(LocalMapParams(act)), config.initial_c, config.depth)
    _write_csv(args.output, ["layer_index", "mean_c", "std_c", "mean_q", "theory_c"], (
        ",".join([str(layer), *(f"{v:.12g}" for v in (trace.mean_c[layer], trace.std_c[layer],
                                                      trace.mean_q[layer], theory[layer]))])
        for layer in range(config.depth + 1)))
    return 0


def _cmd_ode(args) -> int:
    if args.eta is not None:
        T = find_T(args.eta)
    elif args.T is not None:
        T = args.T
    else:
        raise ValueError("ode requires --eta or --T")
    solution = integrate_psi(args.c0, T)
    _write_csv(args.output, ["t", "x"],
               (f"{t:.12g},{x:.12g}" for t, x in zip(solution.times, solution.states)))
    return 0


def _cmd_validate_graph(args) -> int:
    graph = _parse_graph(args.graph)
    validate_graph(graph)
    print(json.dumps({"valid": True, "nodes": graph.num_nodes}))
    return 0


# argparse reads only -2 and -2.5 shaped tokens as negative numbers; every
# float literal is one here, so --c0 -2.5e-05 and --c0 -inf are values
_NEGATIVE_NUMBER = re.compile(r"^-((\d+\.?\d*|\.\d+)(e[+-]?\d+)?|inf(inity)?|nan)$", re.I)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and kept for the process:
    parse_args never changes it and returns a fresh Namespace per call."""
    parser = argparse.ArgumentParser(
        prog="qcmap",
        description="Q/C map analysis and activation transformation solvers",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    graph_help = "vanilla:<L> | resnet:<blocks>:<w>[:transitions] | file:<path.json>"

    p = sub.add_parser("solve", help="solve for transformation parameters")
    p.add_argument("--method", required=True,
                   choices=["tat-lrelu", "tat-smooth", "dks", "eoc"])
    p.add_argument("--graph", help=graph_help)
    p.add_argument("--activation", default="tanh")
    p.add_argument("--eta", type=float)
    p.add_argument("--tau", type=float)
    p.add_argument("--zeta", type=float)
    p.add_argument("--sigma-b", type=float, default=0.0)
    p.add_argument("--output", "-o")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("cmap", help="emit the global C map curve as CSV")
    p.add_argument("--graph", required=True, help=graph_help)
    p.add_argument("--activation", required=True)
    p.add_argument("--from", dest="start", type=float, default=-1.0)
    p.add_argument("--points", type=int, default=201)
    p.add_argument("--output", "-o")
    p.set_defaults(func=_cmd_cmap)

    p = sub.add_parser("simulate", help="finite-width Monte-Carlo run, CSV out")
    p.add_argument("--activation", required=True)
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--pairs", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--init", choices=["gaussian", "suo"], default="gaussian")
    p.add_argument("--c0", type=float, default=0.0)
    p.add_argument("--output", "-o")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("ode", help="integrate the depth-limit ODE, CSV out")
    p.add_argument("--eta", type=float)
    p.add_argument("--T", type=float)
    p.add_argument("--c0", type=float, default=0.0)
    p.add_argument("--output", "-o")
    p.set_defaults(func=_cmd_ode)

    p = sub.add_parser("validate-graph", help="check graph invariants")
    p.add_argument("--graph", required=True, help=graph_help)
    p.set_defaults(func=_cmd_validate_graph)

    for p in sub.choices.values():
        p._negative_number_matcher = _NEGATIVE_NUMBER
    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else int(e.code or 0)
    try:
        return args.func(args)
    except QcmapError as err:
        unattainable = isinstance(err, UnattainableTargetError)
        code = "unattainable-target" if unattainable else type(err).__name__
        _emit_error(code, str(err), _context(err))
        return 1
    except (ValueError, OSError, ArithmeticError) as err:
        _emit_error(type(err).__name__, str(err))
        return 1
    except MemoryError as err:  # numpy raises a private subclass
        _emit_error("MemoryError", str(err))
        return 1


def main() -> None:  # pragma: no cover - thin wrapper
    sys.exit(run())
