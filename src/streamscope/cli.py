"""Command-line front end.

Exit codes: 0 success, 1 failed verification checks, 2 configuration errors
(argparse's own convention), 3 input errors, 4 weight errors, 5 component
cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .corpus import (cc_benchmark, disc_benchmark, mixed_components,
                     padded_triangles, random_graph, random_small_components,
                     weighted_path)
from .errors import (BadWeightError, BadWError, ComponentTooLargeError,
                     MissingVertexCountError, StreamscopeError,
                     VertexCountMismatchError)
from .estimators import (EstimatorParams, cc_param_scales, disc_param_scales,
                         mis_estimate, mst_weight, num_cc, num_disc)
from .graphs import EdgeLines, Graph, load_edge_list, serialize_edge_list
from .oracles import (exact_cc_histogram, exact_disc_freq, exact_mis,
                      kruskal_mst, make_component_mis_oracle)
from .streams import (EdgeStream, given_order_stream, shuffle_stream,
                      split_seed)
from .verification import run_checks

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_INPUT = 3
EXIT_WEIGHT = 4
EXIT_COMPONENT_CAP = 5


class ConfigError(Exception):
    pass


def _default_seed() -> int:
    env = os.environ.get("STREAMSCOPE_SEED")
    try:
        return int(env) if env else 0
    except ValueError:
        raise ConfigError(f"STREAMSCOPE_SEED must be an integer, got "
                          f"{env!r}") from None


def _load_graph(args) -> Graph:
    """Load or generate the input graph, insisting on an explicit vertex
    count: isolated vertices never appear in an edge stream, so n must come
    from --n, an n= header, or the generator (which --n may only repeat)."""
    if args.gen:
        g = _generate(args.gen)
        if args.n is not None and args.n != g.n:
            raise ConfigError(f"--n {args.n} does not match the generated "
                              f"graph's n={g.n}")
        return g
    with open(args.input, "rb") as fh:
        text = fh.read()
    try:
        return load_edge_list(text, args.n, getattr(args, "W", None),
                              infer_n=False)
    except MissingVertexCountError:
        raise ConfigError("--n is required when the edge list carries no "
                          "n= header") from None


def _generate(spec: str) -> Graph:
    name, _, arg = spec.partition(":")
    if name == "cc-benchmark":
        return cc_benchmark()
    if name == "disc-benchmark":
        return disc_benchmark()
    if name == "mst-path":
        return weighted_path()
    if name == "mis-components":
        return random_small_components(300, 6, int(arg) if arg else 7)
    if name == "triangles":
        return mixed_components(triangles=int(arg) if arg else 10)
    if name == "padded-triangles":
        return padded_triangles(int(arg) if arg else 1000)
    if name == "random":
        fields = [int(x) for x in arg.split(",")]
        if len(fields) == 2:
            fields.append(0)
        if len(fields) != 3:
            raise ConfigError(f"generator spec random:{arg} needs 2 or 3 "
                              f"integer fields: random:n,m[,seed]")
        return random_graph(*fields)
    raise KeyError(f"unknown generator {name!r}")


def _emit(args, text: str) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _stream_for(args, g: Graph) -> EdgeStream:
    if args.stream_order == "shuffled":
        return shuffle_stream(g, split_seed(args.seed, "permutation"))
    if args.gen:
        return given_order_stream(g)
    # the file's order: g stores its edges sorted, so parse the lines again
    # (the load has already validated them)
    with open(args.input, "rb") as fh:
        lines = fh.read().decode("utf-8").splitlines()
    return EdgeStream(EdgeLines(lines, g.n), weighted=g.weighted, W=g.W)


def _params(args) -> EstimatorParams:
    return EstimatorParams(
        tau=args.tau, s=args.samples, k_max=getattr(args, "kmax", 1),
        seed=split_seed(args.seed, "estimator"))


def cmd_run_cc(args) -> int:
    g = _load_graph(args)
    if args.exact:
        hist = exact_cc_histogram(g)
        doc = {"algorithm": "num-cc-exact", "n": g.n,
               "per_k": {str(k): c for k, c in sorted(hist.items())},
               "total": sum(hist.values())}
        _emit(args, json.dumps(doc, sort_keys=True) + "\n")
        return EXIT_OK
    _emit(args, num_cc(_stream_for(args, g), g.n, _params(args)).to_json())
    return EXIT_OK


def cmd_run_mst(args) -> int:
    g = _load_graph(args)
    W = args.W if args.W is not None else g.W
    if W is None:
        raise BadWError("weighted input or --W required")
    if args.exact:
        doc = {"algorithm": "mst-weight-exact", "n": g.n, "W": W,
               "estimate": kruskal_mst(g)}
        _emit(args, json.dumps(doc, sort_keys=True) + "\n")
        return EXIT_OK
    report = mst_weight(_stream_for(args, g), g.n, W, _params(args))
    _emit(args, report.to_json())
    return EXIT_OK


def _check_disc_shape(args) -> None:
    """Refuse a disc radius or degree bound no run can use, before the graph
    is loaded."""
    if args.k < 0:
        raise ConfigError(f"--k must be >= 0, got {args.k}")
    if args.d < 1:
        raise ConfigError(f"--d must be >= 1, got {args.d}")


def cmd_run_disc(args) -> int:
    _check_disc_shape(args)
    g = _load_graph(args)
    if args.exact:
        hist = exact_disc_freq(g, args.k, args.d)
        doc = {"algorithm": "num-disc-exact", "n": g.n, "k": args.k, "d": args.d,
               "per_type": {dt.hex: c for dt, c in sorted(hist.items())}}
        _emit(args, json.dumps(doc, sort_keys=True) + "\n")
        return EXIT_OK
    report = num_disc(_stream_for(args, g), g.n, args.k, args.d, _params(args))
    _emit(args, report.to_json())
    return EXIT_OK


def cmd_run_mis(args) -> int:
    _check_disc_shape(args)
    if args.mis_samples < 1:
        raise ConfigError(f"--mis-samples must be >= 1, got "
                          f"{args.mis_samples}")
    if args.mis_component_cap < 1:
        raise ConfigError(f"--mis-component-cap must be >= 1, got "
                          f"{args.mis_component_cap}")
    g = _load_graph(args)
    if args.exact:
        size, witness = exact_mis(g, args.mis_component_cap)
        doc = {"algorithm": "mis-exact", "n": g.n, "estimate": size,
               "witness": witness}
        _emit(args, json.dumps(doc, sort_keys=True) + "\n")
        return EXIT_OK
    oracle = make_component_mis_oracle(g, args.mis_component_cap)
    report = num_disc(_stream_for(args, g), g.n, args.k + 1, args.d,
                      _params(args))
    mis = mis_estimate(report, g.n, args.d, args.k, args.mis_samples, oracle,
                       seed=split_seed(args.seed, "mis"),
                       oracle_name="exact-component")
    _emit(args, mis.to_json())
    return EXIT_OK


def cmd_gen(args) -> int:
    g = _generate(args.preset)
    _emit(args, serialize_edge_list(g))
    return EXIT_OK


def cmd_verify(args) -> int:
    results = run_checks(only=args.only, jobs=args.jobs, fast=args.fast,
                         mutate=args.mutate)
    failed = [r for r in results if not r.passed]
    for r in results:
        print(r.line())
    if failed:
        print(f"{len(failed)} of {len(results)} checks failed")
        return EXIT_CHECK_FAILED
    print(f"all {len(results)} checks passed")
    return EXIT_OK


def cmd_params(args) -> int:
    log_tau, log_s = cc_param_scales(args.epsilon, args.rho)
    print(f"component counting: log10(tau) = {log_tau:.2f}, "
          f"log10(samples) = {log_s:.2f}")
    if args.k is not None and args.d is not None:
        dt, ds = disc_param_scales(args.k, args.d, args.delta or args.epsilon,
                                   args.rho)
        print(f"disc frequency:     log10(tau) = {dt:.2f}, "
              f"log10(samples) = {ds:.2f}")
    print("documentation only; these magnitudes are not runnable settings")
    return EXIT_OK


def _add_common(p, weighted: bool = False, kmax: bool = False):
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", help="edge-list file")
    src.add_argument("--gen", help="generator preset, e.g. cc-benchmark")
    p.add_argument("--n", type=int, default=None,
                   help="vertex count (required when isolated vertices exist "
                        "and the file has no n= header)")
    p.add_argument("--tau", type=float, required=True,
                   help="first-phase probability in (0,1)")
    p.add_argument("--samples", type=int, required=True,
                   help="number of sampled roots")
    if kmax:
        p.add_argument("--kmax", type=int, required=True,
                       help="largest component size the estimator resolves")
    p.add_argument("--seed", type=int, default=None,
                   help="master seed (default: STREAMSCOPE_SEED or 0)")
    p.add_argument("--out", help="report file (default: stdout)")
    p.add_argument("--exact", action="store_true",
                   help="bypass streaming and emit the exact oracle answer")
    p.add_argument("--stream-order", choices=("shuffled", "given"),
                   default="shuffled",
                   help="'given' streams the edges in the file's order "
                        "(debugging; not random)")
    if weighted:
        p.add_argument("--W", type=int, default=None,
                       help="maximum edge weight (inferred when omitted)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="streamscope",
        description="Random-order stream estimators for component counts, "
                    "spanning weight, disc-type frequencies and independent "
                    "set size, with exact verification oracles.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run-cc", help="estimate number of connected components")
    _add_common(p, kmax=True)
    p.set_defaults(fn=cmd_run_cc)

    p = sub.add_parser("run-mst", help="estimate minimum spanning tree weight")
    _add_common(p, weighted=True, kmax=True)
    p.set_defaults(fn=cmd_run_mst)

    p = sub.add_parser("run-disc", help="estimate bounded-disc type frequencies")
    _add_common(p)
    p.add_argument("--k", type=int, required=True, help="disc radius")
    p.add_argument("--d", type=int, required=True, help="degree bound")
    p.set_defaults(fn=cmd_run_disc)

    p = sub.add_parser("run-mis", help="estimate maximum independent set size")
    _add_common(p)
    p.add_argument("--k", type=int, required=True, help="disc radius")
    p.add_argument("--d", type=int, required=True, help="degree bound")
    p.add_argument("--mis-samples", type=int, default=500,
                   help="disc-type draws for the membership estimate")
    p.add_argument("--mis-component-cap", type=int, default=20,
                   help="largest component the reference oracle will solve")
    p.set_defaults(fn=cmd_run_mis)

    p = sub.add_parser("gen", help="write a benchmark corpus as an edge list")
    p.add_argument("--preset", required=True,
                   help="cc-benchmark | disc-benchmark | mst-path | "
                        "mis-components[:seed] | triangles:N | "
                        "padded-triangles:M | random:n,m[,seed]")
    p.add_argument("--out", help="output file (default: stdout)")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("verify", help="run the verification check suite")
    p.add_argument("--only", default=None, help="run a single named check")
    p.add_argument("--fast", action="store_true",
                   help="smaller randomized case counts")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for the Monte-Carlo sweep; results "
                        "are identical for any value")
    p.add_argument("--mutate", default=None, choices=("depth-gap",),
                   help="inject a deliberate defect (meta-testing)")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("params", help="print the analysis-mandated parameter "
                                      "magnitudes (documentation only)")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--delta", type=float, default=None)
    p.set_defaults(fn=cmd_params)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "seed", 0) is None:
            args.seed = _default_seed()
        return args.fn(args)
    except ComponentTooLargeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPONENT_CAP
    except (BadWeightError, BadWError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_WEIGHT
    except (FileNotFoundError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ConfigError, VertexCountMismatchError, KeyError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except StreamscopeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
