"""Command-line entry point: ``qdoe {sample,estimate,hsic,quantize}``.

Every command reads a JSON config (see :mod:`qdoe.config`); ``--seed`` and
``--out`` override the config before it is hashed, so output headers
always reflect the effective run. Exit codes: 0 success, 2 configuration
or usage error, 3 numerical or domain error. The ``QDOE_LOG`` environment
variable sets the log level (DEBUG, INFO, WARNING, ...); an unknown level
exits 2 before the config is read.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

from .config import load_config
from .errors import ConfigError, QdoeError
from .runner import run_estimate, run_hsic, run_quantize, run_sample


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdoe",
        description="Quantization-based stratified designs, estimators and HSIC screening.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("sample", "generate a design CSV"),
        ("estimate", "run replicated expectation estimation"),
        ("hsic", "run an HSIC screening with independence tests"),
        ("quantize", "build and persist a quantizer"),
    ):
        cmd = sub.add_parser(name, help=text)
        cmd.add_argument("--config", required=True, help="path to the JSON config file")
        cmd.add_argument("--seed", type=int, default=None, help="override the config seed")
        cmd.add_argument("--out", default=None, help="override the output directory")
        cmd.add_argument(
            "--threads",
            type=_positive_int,
            default=os.cpu_count() or 1,
            help="worker processes for estimate repetitions, forked from this one; serial "
                 "where fork is unavailable; workers log through the handlers they inherit "
                 "(default: available parallelism)",
        )
        if name == "estimate":
            cmd.add_argument(
                "--shared-quantizer",
                action="store_true",
                help="fit quantizers once and reuse them across repetitions",
            )
    return parser


def main(argv=None) -> int:
    level = os.environ.get("QDOE_LOG", "WARNING").upper()
    # getLevelName maps a registered name to its int and anything else to a string
    if not isinstance(logging.getLevelName(level), int):
        print(f"usage error: unknown QDOE_LOG level {level!r}", file=sys.stderr)
        return 2
    logging.basicConfig(level=level)
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(
            args.config,
            seed_override=args.seed,
            out_override=args.out,
            shared_override=getattr(args, "shared_quantizer", False),
        )
        if args.command == "sample":
            run_sample(cfg)
        elif args.command == "estimate":
            run_estimate(cfg, threads=args.threads)
        elif args.command == "hsic":
            run_hsic(cfg)
        else:
            run_quantize(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except QdoeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
