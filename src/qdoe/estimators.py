"""Weighted expectation estimators over design rows.

Every scheme uses one rule: given the model outputs f(x_i) on the design
rows, :func:`estimate` returns the float sum_i w_i f(x_i) / sum_i w_i.
Uniform schemes carry w_i = 1/n, rq and qlhs the cell probabilities, and
q2lhs products of cell probabilities (whose total is not one, hence the
normalization). :func:`replicate` repeats design construction and
estimation on derived seeds and summarizes the estimates.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .designs import Design
from .errors import ConfigError, DimensionError, EvaluationError

__all__ = ["ReplicateSummary", "estimate", "replicate"]


def estimate(design: Design, values) -> float:
    """Estimate E[f] from the model outputs ``values`` on the design rows.

    A non-finite value aborts with the index of the first offending row.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != (design.n,):
        raise DimensionError(
            f"expected {design.n} model values, one per design row, got shape {values.shape}"
        )
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        i = int(bad[0])
        raise EvaluationError(
            f"non-finite value {values[i]} on row {i}: {design.points[i].tolist()}"
        )
    w = design.weights
    return float(w @ values) / float(w.sum())


@dataclass(frozen=True)
class ReplicateSummary:
    """Repetition statistics of one estimator configuration."""

    repetitions: int
    base_seed: int
    estimates: np.ndarray
    mean: float
    variance: float
    percentile_2_5: float
    percentile_97_5: float


def replicate(
    build_design: Callable[[np.random.Generator], Design],
    evaluate: Callable[[Design], np.ndarray],
    repetitions: int,
    base_seed: int,
    *,
    threads: int = 1,
) -> ReplicateSummary:
    """Repeat design construction and estimation with derived seeds.

    Repetition r builds its design on ``numpy.random.default_rng(base_seed + r)``
    and estimates from ``evaluate(design)``, the model outputs on its rows, so
    results are reproducible and independent of execution order.

    With ``threads > 1`` the repetitions run in ``min(threads, repetitions)``
    worker processes forked from this one, which share no interpreter lock.
    ``build_design`` and ``evaluate`` reach the workers through the fork, so
    closures and lambdas work; only repetition indices and the estimates are
    pickled. Results are assembled by index, so the estimates equal those of
    the serial loop bit for bit. An exception raised in a repetition is
    raised here after every worker has exited. Where the ``fork`` start
    method is unavailable the loop runs serially.
    """
    if repetitions < 2:
        raise ConfigError(f"repetitions must be >= 2, got {repetitions}")
    work = (build_design, evaluate, base_seed)
    if threads > 1 and "fork" in multiprocessing.get_all_start_methods():
        from concurrent.futures.process import ProcessPoolExecutor  # ~20 ms: only when used

        with ProcessPoolExecutor(max_workers=min(threads, repetitions),
                                 mp_context=multiprocessing.get_context("fork"),
                                 initializer=_adopt_work, initargs=(work,)) as pool:
            estimates = np.array(list(pool.map(_one_repetition, range(repetitions), chunksize=1)))
    else:
        estimates = np.array([_one_repetition(r, work) for r in range(repetitions)])
    return ReplicateSummary(
        repetitions=repetitions,
        base_seed=base_seed,
        estimates=estimates,
        mean=float(estimates.mean()),
        variance=float(estimates.var(ddof=1)),
        percentile_2_5=float(np.percentile(estimates, 2.5)),
        percentile_97_5=float(np.percentile(estimates, 97.5)),
    )


# The work of the current process's repetitions; set once in each forked
# worker by ``_adopt_work``, never in the parent.
_WORK = None


def _adopt_work(work) -> None:
    global _WORK
    _WORK = work


def _one_repetition(r: int, work=None) -> float:
    build_design, evaluate, base_seed = _WORK if work is None else work
    design = build_design(np.random.default_rng(base_seed + r))
    return estimate(design, evaluate(design))
