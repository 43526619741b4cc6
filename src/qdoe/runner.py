"""Experiment orchestration: configs to pools, designs, estimates and screenings.

This module resolves an :class:`~qdoe.config.ExperimentConfig` into the
concrete objects of the pipeline (joint samplers, candidate pools,
quantizers, designs) and implements the four CLI commands on top of the
library. Randomness is derived deterministically: design size index k uses
base seed ``seed + 1_000_000 * k`` and repetition r adds r, so every
artifact is byte-reproducible from the config alone.
"""

from __future__ import annotations

import json
import logging
import time
from functools import partial
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .config import ExperimentConfig
from .copula import fit_gaussian_copula, gaussian_copula, conditional_inverse
from .designs import Design, lhs_with_marginals, mc_design, qlhs_design
from .distributions import EmpiricalMarginal
from .errors import ConfigError, QdoeError
from .estimators import replicate
from .hsic import screen
from .models import InputGroup, ModelSpec, build_model, inline_groups
from .quantizer import CandidatePool, Quantizer, lloyd, load_quantizer, save_pool, save_quantizer
from .tables import write_table

__all__ = [
    "sample_group",
    "sample_joint",
    "group_pool",
    "Block",
    "scheme_blocks",
    "quantize_groups",
    "build_design",
    "evaluate_design",
    "run_sample",
    "run_estimate",
    "run_hsic",
    "run_quantize",
]

log = logging.getLogger("qdoe")

_SWEEP_SEED_STRIDE = 1_000_000
# key of the joint block an rq design quantizes
_JOINT = "__joint__"


def sample_group(group: InputGroup, m: int, rng: np.random.Generator) -> np.ndarray:
    """Draw m joint rows of one input group (columns in group order)."""
    d = len(group.columns)
    if group.kind == "independent":
        return np.column_stack([marg.sample(rng, m) for marg in group.marginals])
    if group.kind == "copula":
        cop = gaussian_copula(group.correlation)
        u = conditional_inverse(cop, rng.random((m, d)))
        return np.column_stack(
            [marg.quantile(u[:, j]) for j, marg in enumerate(group.marginals)]
        )
    if group.kind == "generator":
        rows = np.atleast_2d(np.asarray(group.generator(m, rng), dtype=float))
        if rows.shape != (m, d):
            raise ConfigError(f"generator for group {group.name!r} returned shape {rows.shape}")
        return rows
    # fixed pool: bootstrap rows
    idx = rng.integers(0, group.pool_points.shape[0], size=m)
    return group.pool_points[idx]


def sample_joint(columns, groups, m: int, rng: np.random.Generator) -> np.ndarray:
    """Draw m joint rows over all groups, scattered into canonical order."""
    out = np.empty((m, len(columns)))
    positions = {c: j for j, c in enumerate(columns)}
    for group in groups:
        block = sample_group(group, m, rng)
        for j, c in enumerate(group.columns):
            out[:, positions[c]] = block[:, j]
    return out


def group_pool(group: InputGroup, pool_size: int, rng: np.random.Generator) -> CandidatePool:
    """Candidate pool for quantizing one dependent group.

    Fixed pools are used as-is; simulable groups are drawn fresh at
    ``pool_size`` rows.
    """
    if group.kind == "pool":
        return CandidatePool(group.pool_points)
    return CandidatePool(sample_group(group, pool_size, rng))


def _marginals(columns, groups, pool_size: int, rng: np.random.Generator):
    """Per-column marginals in ``columns`` order plus the ``(group, block)``
    pairs drawn for them.

    Independent and copula groups declare their marginals; generator and pool
    groups get empirical marginals from a fresh pool draw, in group order.
    """
    by_name, drawn = {}, []
    for group in groups:
        if group.kind in ("independent", "copula"):
            marginals = group.marginals
        else:
            block = group_pool(group, pool_size, rng).points
            drawn.append((group, block))
            marginals = [EmpiricalMarginal(column) for column in block.T]
        by_name.update(zip(group.columns, marginals))
    return [by_name[c] for c in columns], drawn


class Block(NamedTuple):
    """One block a design Voronoi-quantizes: the input group that supplies its
    pool and, once resolved, its quantizer and the pool that quantizer
    indexes."""

    group: InputGroup
    quantizer: Quantizer | None = None
    pool: CandidatePool | None = None


def scheme_blocks(scheme: str, columns, groups) -> dict[str, Block]:
    """The unresolved blocks ``scheme`` Voronoi-quantizes, by key, in fit order.

    Checks the input structure the scheme needs. rq quantizes a single fixed
    pool as-is and anything else through joint draws (key ``__joint__``);
    qlhs quantizes its one dependent group, q2lhs its two (keyed by name).
    """
    if scheme in ("mc", "lhs", "lhsd"):
        return {}
    if scheme == "rq":
        joint = groups[0] if len(groups) == 1 and groups[0].kind == "pool" else InputGroup(
            _JOINT, tuple(columns), "generator", generator=partial(sample_joint, columns, groups))
        return {_JOINT: Block(joint)}
    dependent = [g for g in groups if g.dependent]
    leftover = [c for g in groups if not g.dependent for c in g.columns]
    if scheme == "qlhs":
        if len(dependent) != 1:
            raise ConfigError(
                f"qlhs requires exactly one dependent input group, found {len(dependent)}")
        if not leftover:
            raise ConfigError("qlhs requires at least one independent input; use rq instead")
    elif scheme == "q2lhs":
        if len(dependent) != 2:
            raise ConfigError(
                f"q2lhs requires exactly two dependent input groups, found {len(dependent)}")
        if leftover:
            raise ConfigError(f"q2lhs cannot place independent columns {leftover}")
    else:
        raise ConfigError(f"unknown scheme {scheme!r}")
    return {g.name: Block(g) for g in dependent}


def quantize_groups(cfg: ExperimentConfig, blocks: dict[str, Block], n: int,
                    rng: np.random.Generator) -> dict[str, Block]:
    """``blocks`` resolved at n cells.

    A resolved block (loaded from ``quantizer_files``, or quantized once for
    every repetition) is kept as it is; any other is fitted on a fresh pool
    drawn from ``rng``, in block order.
    """
    out = {}
    for key, block in blocks.items():
        if block.quantizer is None:
            pool = group_pool(block.group, cfg.pool_size, rng)
            quantizer = lloyd(pool, n, rng, max_iter=cfg.lloyd.max_iter,
                              rel_tol=cfg.lloyd.rel_tol, restarts=cfg.lloyd.restarts)
            updates = max(len(quantizer.distortion_history) - 1, 0)
            log.info("quantizer %s: fit n_cells=%d lloyd_updates=%d capped=%s", key, n,
                     updates, not quantizer.converged)
            block = Block(block.group, quantizer, pool)
        out[key] = block
    return out


def build_design(cfg: ExperimentConfig, columns, groups, scheme: str, n: int,
                 rng: np.random.Generator, *, blocks: dict[str, Block] | None = None) -> Design:
    """Construct one design of the requested scheme and size.

    ``blocks`` are the scheme's blocks, :func:`scheme_blocks` by default;
    those not yet resolved are quantized here, on ``rng``, first.
    """
    blocks = quantize_groups(
        cfg, scheme_blocks(scheme, columns, groups) if blocks is None else blocks, n, rng)
    if scheme == "mc":
        return mc_design(sample_joint(columns, groups, n, rng), column_roles=columns)
    if scheme in ("lhs", "lhsd"):
        marginals, drawn = _marginals(columns, groups, cfg.pool_size, rng)
        copula = None
        if scheme == "lhsd":
            # one Gaussian copula over all columns: declared correlations for copula
            # groups, fitted ones for drawn groups, identity blocks elsewhere
            parts = [(g, g.correlation) for g in groups if g.kind == "copula"]
            parts += [(g, fit_gaussian_copula(block).correlation) for g, block in drawn]
            corr = np.eye(len(columns))
            for group, block_corr in parts:
                idx = [columns.index(c) for c in group.columns]
                corr[np.ix_(idx, idx)] = block_corr
            copula = gaussian_copula(corr)
        return lhs_with_marginals(n, marginals, rng, copula=copula, column_roles=columns)
    # the blocks' columns in block order, then the rest with their declared marginals
    placed = [c for block in blocks.values() for c in block.group.columns]
    declared = {c: m for g in groups if not g.dependent for c, m in zip(g.columns, g.marginals)}
    rest = [c for c in columns if c not in placed]
    return qlhs_design([(block.quantizer, block.pool) for block in blocks.values()],
                       [declared[c] for c in rest], rng, column_roles=(*placed, *rest))


def evaluate_design(model: ModelSpec, design: Design) -> np.ndarray:
    """Evaluate a model on design rows, reordering columns by their roles."""
    idx = [design.column_roles.index(c) for c in model.columns]
    return np.asarray(model.evaluate(design.points[:, idx]), dtype=float)


def _plan(cfg: ExperimentConfig, command: str, columns, groups):
    """``(blocks, sizes)``: the blocks ``command`` quantizes and the cell
    counts it asks of them. ``quantize`` fits the dependent group
    ``config.group`` (or the only one) at ``n_cells``; the other commands
    quantize the scheme's blocks at every design size."""
    if command != "quantize":
        return scheme_blocks(cfg.scheme, columns, groups), cfg.n
    dependent = [g for g in groups if g.dependent]
    if cfg.group is not None:
        dependent = [g for g in dependent if g.name == cfg.group]
        if not dependent:
            raise ConfigError(f"config.group: no dependent group named {cfg.group!r}")
    elif len(dependent) != 1:
        raise ConfigError("config.group is required when the inputs declare several dependent groups")
    return {dependent[0].name: Block(dependent[0])}, (cfg.n_cells,)


def _load(path: str, group: InputGroup, pool: CandidatePool, sizes) -> Quantizer:
    """The quantizer file of a fixed pool group, checked against the group's
    ``pool`` (see :meth:`Quantizer.check`) and every design size."""
    try:
        quantizer = load_quantizer(path)
        quantizer.check(pool)
    except (OSError, QdoeError) as exc:
        raise ConfigError(f"quantizer_files[{group.name!r}]: cannot load quantizer ({exc})") from exc
    for n in sizes:
        if quantizer.n_cells != n:
            raise ConfigError(f"quantizer file for group {group.name!r} has {quantizer.n_cells} "
                              f"cells, the design requires {n}")
    return quantizer


def _start(cfg: ExperimentConfig, command: str, *required: str, needs_model: bool = False):
    """The one place that turns a config into a command's inputs.

    Builds the model or the inline groups once (reading every ``pool_csv``),
    checks the keys ``command`` requires, the ``hsic_groups`` columns and the
    ``quantizer_files`` names, checks each planned block's pool against the
    largest size, and loads each of its ``quantizer_files`` once, checked
    against the pool and every size. It makes no directory: the output
    directory appears with the first file written, so a config that cannot
    run, here or while building its first design, writes nothing. Returns
    ``(columns, groups, model, blocks, out_dir)``; ``model`` is None for
    inline inputs, and loaded blocks are resolved.
    """
    for attr in required:
        value = getattr(cfg, attr)
        if value is None or (attr == "n" and not value):
            raise ConfigError(f"command {command!r} requires config key {attr!r}")
    if "repetitions" in required and cfg.repetitions < 2:
        raise ConfigError(f"config.repetitions: must be >= 2, got {cfg.repetitions}")
    if command == "hsic" and min(cfg.n) < 2:  # a kernel sample needs two rows
        raise ConfigError(f"config.n: hsic requires design sizes >= 2, got {min(cfg.n)}")
    model = None
    if cfg.model is not None:
        model = build_model(**cfg.model)
        columns, groups = model.columns, model.groups
    elif cfg.inputs is not None:
        columns, groups = inline_groups(cfg.inputs)
    else:
        raise ConfigError("config declares neither a model nor inline inputs")
    if needs_model and model is None:
        raise ConfigError(f"command {command!r} requires a model with an evaluator")
    for i, entry in enumerate(cfg.hsic_groups or ()):
        unknown = [c for c in entry if c not in columns]
        if unknown:
            raise ConfigError(f"config.hsic_groups[{i}]: unknown columns {unknown}")
    # a stored assignment indexes the rows of a fixed pool, so only pool groups qualify
    pool_groups = {g.name for g in groups if g.kind == "pool"}
    for name in cfg.quantizer_files:
        if name not in pool_groups:
            raise ConfigError(f"config.quantizer_files.{name}: names no declared pool group")
    blocks, sizes = _plan(cfg, command, columns, groups)
    for key, (group, _, _) in blocks.items():
        rows = cfg.pool_size if group.kind != "pool" else len(group.pool_points)
        if max(sizes) > rows:
            raise ConfigError(f"block {key!r}: requested {max(sizes)} cells but its pool holds "
                              f"{rows} points")
        if command != "quantize" and group.name in cfg.quantizer_files:
            path, pool = cfg.quantizer_files[group.name], CandidatePool(group.pool_points)
            blocks[key] = Block(group, _load(path, group, pool, sizes), pool)
            log.info("quantizer %s: file %s n_cells=%d", key, path, blocks[key].quantizer.n_cells)
    return columns, groups, model, blocks, Path(cfg.output_dir)


def _sweep(cfg: ExperimentConfig) -> list[tuple[int, int]]:
    """``(n, seed)`` per design size; size index k runs on ``seed + 1_000_000 * k``."""
    return [(n, cfg.seed + _SWEEP_SEED_STRIDE * k) for k, n in enumerate(cfg.n)]


def _meta_lines(cfg: ExperimentConfig, *extra: str) -> list[str]:
    return [f"config_hash={cfg.config_hash} seed={cfg.seed}", *extra]


def run_sample(cfg: ExperimentConfig) -> list[Path]:
    """Write one design CSV per requested size; returns the paths."""
    columns, groups, _, blocks, out_dir = _start(cfg, "sample", "scheme", "n")
    scheme = cfg.scheme
    paths = []
    for n, seed in _sweep(cfg):
        rng = np.random.default_rng(seed)
        resolved = quantize_groups(cfg, blocks, n, rng)
        design = build_design(cfg, columns, groups, scheme, n, rng, blocks=resolved)
        path = out_dir / f"design_{scheme}_n{n}.csv"
        extra = [f"scheme={scheme} n={n}"]
        summary = f"sample: scheme={scheme} n={n} d={design.d} -> {path}"
        for name, (_, quantizer, _) in resolved.items():
            extra.append(f"quantizer={name} distortion={quantizer.distortion!r}")
            summary += f" [distortion({name})={quantizer.distortion:.6g}]"
        design.to_csv(path, header_comments=_meta_lines(cfg, *extra))
        print(summary)
        paths.append(path)
    return paths


def run_estimate(cfg: ExperimentConfig, threads: int = 1) -> list[Path]:
    """Replicated estimation over the design-size sweep.

    Writes one repetition CSV per size plus a single JSON summary with
    mean, variance and the 2.5/97.5 percentiles per size. In shared-quantizer
    mode the blocks of each size are quantized once, on seed ``[seed, 1]``,
    and serve every repetition of that size.
    """
    columns, groups, model, blocks, out_dir = _start(
        cfg, "estimate", "scheme", "n", "repetitions", needs_model=True)
    scheme, repetitions = cfg.scheme, cfg.repetitions
    evaluate = partial(evaluate_design, model)
    paths = []
    entries = []
    for n, base_seed in _sweep(cfg):
        shared = blocks
        if cfg.shared_quantizer:
            shared = quantize_groups(cfg, blocks, n, np.random.default_rng([cfg.seed, 1]))
        builder = partial(build_design, cfg, columns, groups, scheme, n, blocks=shared)
        started = time.monotonic()
        summary = replicate(builder, evaluate, repetitions, base_seed, threads=threads)
        elapsed = time.monotonic() - started
        rep_path = out_dir / f"estimates_{scheme}_{model.name}_n{n}.csv"
        write_table(rep_path, _meta_lines(cfg, f"scheme={scheme} model={model.name} n={n}"),
                    ["seed", "estimate"],
                    enumerate(summary.estimates.tolist(), start=base_seed))
        paths.append(rep_path)
        entries.append({"n": n, "repetitions": repetitions, "base_seed": base_seed,
                        "mean": summary.mean, "variance": summary.variance,
                        "percentile_2_5": summary.percentile_2_5,
                        "percentile_97_5": summary.percentile_97_5})
        print(f"estimate: scheme={scheme} model={model.name} n={n} reps={repetitions} "
              f"mean={summary.mean:.6g} var={summary.variance:.3g} ({elapsed:.1f}s)")
    summary_path = out_dir / f"summary_{scheme}_{model.name}.json"
    payload = {
        "meta": {"config_hash": cfg.config_hash, "seed": cfg.seed, "command": "estimate"},
        "model": model.name,
        "scheme": scheme,
        "shared_quantizer": cfg.shared_quantizer,
        "results": entries,
    }
    summary_path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    paths.append(summary_path)
    return paths


def _default_hsic_groups(columns, groups) -> list[tuple[str, list[int]]]:
    """One singleton per independent column, one block per dependent group."""
    positions = {c: j for j, c in enumerate(columns)}
    out = []
    for group in groups:
        if group.dependent and len(group.columns) > 1:
            out.append((group.name, [positions[c] for c in group.columns]))
        else:
            out.extend((c, [positions[c]]) for c in group.columns)
    return out


def run_hsic(cfg: ExperimentConfig) -> list[Path]:
    """Screening: one independence test per input group, one CSV per size.

    Permutation statistics are computed in blocks of permutations by
    matrix products in this process, so no worker pool is involved here;
    the bytes written do not depend on the BLAS thread count.
    """
    columns, groups, model, blocks, out_dir = _start(cfg, "hsic", "scheme", "n",
                                                     needs_model=True)
    scheme = cfg.scheme
    paths = []
    for n, seed in _sweep(cfg):
        rng = np.random.default_rng(seed)
        design = build_design(cfg, columns, groups, scheme, n, rng, blocks=blocks)
        outputs = evaluate_design(model, design)
        roles = design.column_roles
        if cfg.hsic_groups is not None:
            named = [("+".join(entry), [roles.index(c) for c in entry])
                     for entry in cfg.hsic_groups]
        else:
            named = _default_hsic_groups(roles, groups)
        results = screen(design, outputs, named, kernel=cfg.kernels,
                         permutations=cfg.test.permutations, alpha=cfg.test.alpha, rng=rng)
        path = out_dir / f"screening_{scheme}_{model.name}_n{n}.csv"
        meta = (f"scheme={scheme} model={model.name} n={n} "
                f"permutations={cfg.test.permutations} alpha={cfg.test.alpha!r}")
        write_table(path, _meta_lines(cfg, meta), ["input", "hsic", "p_value", "decision"],
                    [[r.name, r.hsic_value, r.p_value, r.decision] for r in results])
        print(f"hsic: scheme={scheme} model={model.name} n={n} -> {path}")
        for res in results:
            print(f"  {res.name}: hsic={res.hsic_value:.4g} p={res.p_value:.4g} {res.decision}")
        paths.append(path)
    return paths


def run_quantize(cfg: ExperimentConfig) -> list[Path]:
    """Quantize one dependent group's pool and persist the artifact."""
    *_, blocks, out_dir = _start(cfg, "quantize", "n_cells")
    n_cells = cfg.n_cells
    (target, quantizer, pool), = quantize_groups(
        cfg, blocks, n_cells, np.random.default_rng(cfg.seed)).values()
    path = out_dir / f"quantizer_{target.name}_n{n_cells}.csv"
    save_quantizer(quantizer, path, header_comments=_meta_lines(
        cfg, f"group={target.name} restarts={cfg.lloyd.restarts} "
             f"iterations={len(quantizer.distortion_history) - 1}"))
    paths = [path]
    if target.kind != "pool":
        pool_path = out_dir / f"pool_{target.name}.csv"
        save_pool(pool, pool_path, column_names=target.columns,
                  header_comments=_meta_lines(cfg))
        paths.append(pool_path)
    print(f"quantize: group={target.name} n_cells={n_cells} pool={pool.m} "
          f"distortion={quantizer.distortion:.6g} -> {path}")
    return paths
