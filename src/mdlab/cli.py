"""Command line entry point.

Four subcommands with machine-readable JSON on stdout and diagnostics on
stderr::

    mdlab theory    --dist rademacher --n 100 --x 2 --r 1 --delta 1
    mdlab enumerate --dist rademacher --n 4 --x 1
    mdlab simulate  --dist rademacher --n 64 --x 2 --samples 100000 \
                    --seed 1 --method tilted [--workers 8]
    mdlab sweep     --config sweep.json [--workers 8]

``--dist`` accepts a bare family name (defaults apply) or a JSON literal
such as ``'{"family": "uniform", "half_width": 1.7320508}'``.

Exit codes: 0 success, 2 configuration/usage error, 3 numeric or
infeasible request (diverging moment, unsupported tilt, budget exceeded).
All randomness is seeded; omitting ``--seed`` uses the fixed documented
default so repeated invocations produce identical stdout bytes.

:func:`main` parses with one parser per process, built on its first call
(building it costs about half a millisecond, more than a small command's
own work); :func:`build_parser` returns a fresh one on every call. A
parser keeps no state between parses, and argparse looks ``sys.stdout``
and ``sys.stderr`` up whenever it prints, so a reused parser answers and
fails exactly as a fresh one would.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict

from .distributions import from_literal
from .errors import ConfigError, MdlabError, check_finite, read_json
from .experiments import SweepConfig, convergence_report, run_sweep
from .mc import DEFAULT_SEED, simulate
from .oracle import enumerate_exact, exact_method
from .theory import SequenceSpec, compute_quantities

__all__ = ["main", "build_parser"]


def _parse_dist(text: str):
    text = text.strip()
    if text.startswith("{"):
        try:
            literal = json.loads(text)
        except (ValueError, RecursionError) as exc:  # ValueError: bad JSON
            raise ConfigError(f"bad distribution literal: {exc}") from exc
    else:
        literal = {"family": text}
    return from_literal(literal)


def _load_scales(path):
    if path is None:
        return None
    # one pass; an entry that is not a finite float gets check_finite's message
    return [v if type(v) is float and math.isfinite(v) else check_finite("scales entry", v)
            for v in read_json(path, "scales file", list)]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mdlab",
        description="tail-ratio laboratory for self-normalized walk maxima",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    instance = argparse.ArgumentParser(add_help=False)
    instance.add_argument("--dist", required=True)
    instance.add_argument("--n", type=int, required=True)
    instance.add_argument("--x", type=float, required=True)

    p_theory = sub.add_parser(
        "theory", parents=[instance], help="moment functionals and regime flags"
    )
    p_theory.add_argument("--r", type=float, default=1.0)
    p_theory.add_argument("--delta", type=float, default=1.0)
    p_theory.add_argument("--a0-constant", type=float, default=1.0)
    p_theory.add_argument("--scales", default=None, help="JSON list file of per-index scales")

    sub.add_parser(
        "enumerate", parents=[instance], help="exact probabilities of both tail events"
    )
    p_sim = sub.add_parser(
        "simulate", parents=[instance], help="Monte Carlo estimate of both tail events"
    )
    p_sim.add_argument("--samples", type=int, required=True)
    p_sim.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_sim.add_argument("--method", choices=["naive", "tilted"], default="naive")
    p_sim.add_argument("--workers", type=int, default=1)

    p_sweep = sub.add_parser("sweep", help="run a configured (n, x) sweep")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--workers", type=int, default=None)
    return parser


def _cmd_theory(args) -> dict:
    dist = _parse_dist(args.dist)
    seq = SequenceSpec(dist, args.n, scales=_load_scales(args.scales))
    return asdict(compute_quantities(seq, args.x, args.r, args.delta, args.a0_constant))


def _cmd_enumerate(args) -> dict:
    seq = SequenceSpec(_parse_dist(args.dist), args.n)
    engine = exact_method(seq) or (lambda x: enumerate_exact(seq, x))
    return asdict(engine(args.x))


def _cmd_simulate(args) -> dict:
    dist = _parse_dist(args.dist)
    est_max, est_sum = simulate(
        SequenceSpec(dist, args.n),
        args.x,
        args.samples,
        seed=args.seed,
        method=args.method,
        workers=args.workers,
    )
    return {"max": est_max.as_dict(), "sum": est_sum.as_dict()}


def _cmd_sweep(args) -> dict:
    cfg = SweepConfig.from_file(args.config)
    rows = run_sweep(cfg, workers=args.workers)
    out = {
        "rows": len(rows),
        "csv": cfg.output,
        "manifest": cfg.manifest_path(),
    }
    if len(rows) >= 3:
        out["report"] = convergence_report(rows, cfg.delta)
    return out


_COMMANDS = {
    "theory": _cmd_theory,
    "enumerate": _cmd_enumerate,
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
}


_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse prints usage itself
        return int(exc.code or 0)
    try:
        payload = _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"mdlab: {exc}", file=sys.stderr)
        return 2
    except MdlabError as exc:
        print(f"mdlab: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(payload, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
