"""Command-line entry point: ``qdoe {sample,estimate,hsic,quantize}``.

Every command reads a JSON config (see :mod:`qdoe.config`); ``--seed`` and
``--out`` override the config before it is hashed, so output headers
always reflect the effective run. Exit codes: 0 success, 2 configuration
or usage error, 3 numerical or domain error. The ``QDOE_LOG`` environment
variable sets the log level (DEBUG, INFO, WARNING, ...); an unknown level
exits 2 before the config is read.

Only the standard library is imported until the config has loaded, so usage
and config errors return at once; numpy and scipy load with
:mod:`qdoe.runner` when the command starts, under the BLAS thread budget
that ``--threads`` sets.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

from .config import load_config
from .errors import ConfigError, QdoeError


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _available_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _set_blas_budget(threads: int, workers: int) -> None:
    """Give each of ``workers`` processes ``threads // workers`` BLAS threads.

    The variables are read when numpy loads, so once it has they would do
    nothing here and only leak into the caller's later subprocesses; nothing
    is set then. A variable already set wins.
    """
    if "numpy" in sys.modules:
        return
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(name, str(max(1, threads // workers)))


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
            default=_available_cpus(),
            help="CPU budget: estimate forks up to this many worker processes for its "
                 "repetitions (serial where fork is unavailable; workers log through the "
                 "handlers they inherit), and each process gets an equal share of it as "
                 "BLAS threads unless a BLAS variable is set (default: the CPUs this "
                 "process may run on)",
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
        workers, options = 1, {}
        if args.command == "estimate":
            # replicate forks one worker per repetition, at most --threads
            workers = min(args.threads, cfg.repetitions or 1)
            options = {"threads": args.threads}
        _set_blas_budget(args.threads, workers)
        from . import runner  # numpy and scipy load here

        getattr(runner, f"run_{args.command}")(cfg, **options)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except QdoeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
