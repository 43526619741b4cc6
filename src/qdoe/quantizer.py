"""Voronoi vector quantization of an empirical candidate pool.

The target distribution is represented by a large sample (the candidate
pool). Lloyd's fixed-point iteration (k-means) produces centroids, and the
Voronoi cell of each centroid becomes one stratum: its probability is the
fraction of pool points it captures, and conditional sampling inside a cell
draws uniformly among the captured pool points (see :attr:`Quantizer.cells`).

Each Lloyd update assigns the pool with Hamerly's (2010, "Making k-means even
faster") triangle-inequality bounds: after one full pass, a point whose
distance to its centroid stays below a lower bound on every other centroid's
keeps its cell, and only the others get a full distance row. The bounds leave
a margin for rounding, so the iterates equal those of full assignment bit for
bit in every dimension.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.spatial.distance import cdist

from .config import LloydSettings
from .errors import ConfigError, DimensionError, ParameterError

__all__ = [
    "CandidatePool",
    "Quantizer",
    "lloyd",
    "distortion",
    "save_quantizer",
    "load_quantizer",
    "save_pool",
    "load_pool",
    "write_table",
    "read_table",
]


@dataclass(frozen=True)
class CandidatePool:
    """Empirical stand-in for the input distribution: an (M, d) matrix."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
            raise ParameterError("candidate pool must be a non-empty 2-d matrix")
        if not np.all(np.isfinite(pts)):
            raise ParameterError("candidate pool contains non-finite entries")
        object.__setattr__(self, "points", pts)

    @property
    def m(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class Quantizer:
    """Centroids, empirical cell probabilities and the pool assignment.

    Invariants: probabilities are cell counts divided by the pool size and
    sum to one; every pool point is assigned to its nearest centroid (ties
    to the lowest index); every cell is non-empty. Construction checks the
    shapes, the assignment range and the non-empty cells, which sampling
    relies on; :meth:`check` checks the rest against the pool, so a file
    whose probabilities were edited still loads for inspection. Both raise
    ParameterError on a violation.

    A fit by :func:`lloyd` also records the winning restart's diagnostics,
    which no file keeps: ``converged`` (it stopped at a fixed point or at
    ``rel_tol``, not at ``max_iter``; None when not fitted here) and
    ``empty_cell_repairs`` (cells that an update emptied and that were
    reseeded).
    """

    centroids: np.ndarray
    probabilities: np.ndarray
    pool_assignment: np.ndarray
    distortion: float
    distortion_history: tuple[float, ...] = field(default=(), repr=False)
    converged: bool | None = None
    empty_cell_repairs: int = 0

    def __post_init__(self):
        k = self.n_cells
        assignment = self.pool_assignment
        if (self.centroids.ndim != 2 or self.probabilities.shape != (k,)
                or assignment.ndim != 1 or assignment.size == 0):
            raise ParameterError("centroids, probabilities and pool assignment disagree in shape")
        if assignment.min() < 0 or assignment.max() >= k:
            raise ParameterError(f"pool assignments must lie in [0, {k})")
        counts = np.bincount(assignment, minlength=k)
        if np.any(counts == 0):
            raise ParameterError(f"{int(np.sum(counts == 0))} of {k} cells hold no pool point")

    def check(self, pool: CandidatePool) -> None:
        """Raise ParameterError unless this quantizer indexes ``pool``: the
        probabilities are the cell counts over the pool size, each point's
        centroid is a nearest one and ``distortion`` is the mean squared
        distance. One nearest-centroid pass checks them, within the relative
        slack of the Lloyd bounds, so a file from another machine passes."""
        if pool.points.shape != (self.pool_size, self.d):
            raise ParameterError(f"the pool is {pool.m}x{pool.d}, not {self.pool_size}x{self.d}")
        slack = _slack(self.d)
        counts = np.bincount(self.pool_assignment, minlength=self.n_cells)
        if not np.allclose(self.probabilities, counts / pool.m, rtol=slack, atol=0.0):
            raise ParameterError("cell probabilities differ from the pool assignment counts")
        _, sq, _ = _nearest(pool.points, self.centroids)
        diff = pool.points - self.centroids[self.pool_assignment]
        far = np.flatnonzero(np.square(diff, out=diff).sum(axis=1) > sq * (1.0 + slack) + _TINY)
        if far.size:
            raise ParameterError(f"pool point {far[0]} is not assigned to a nearest centroid")
        mean = float(sq.mean())
        if not abs(self.distortion - mean) <= slack * mean + _TINY:
            raise ParameterError(f"distortion {self.distortion!r} differs from the pool's {mean!r}")

    @property
    def n_cells(self) -> int:
        return self.centroids.shape[0]

    @property
    def d(self) -> int:
        return self.centroids.shape[1]

    @property
    def pool_size(self) -> int:
        return self.pool_assignment.shape[0]

    @cached_property
    def cells(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Pool indices grouped by cell: (sorted index array, offsets, counts).

        The members of cell i, in pool order, are
        ``order[offsets[i] : offsets[i] + counts[i]]``.
        """
        order = np.argsort(self.pool_assignment, kind="stable")
        counts = np.bincount(self.pool_assignment, minlength=self.n_cells)
        offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
        return order, offsets, counts


# Floats per cdist block in _nearest (2 MB). A block holds
# max(1, _NEAREST_FLOATS // n_cells) rows, so the distance matrix stays within
# 2 MB whatever the pool size, for up to _NEAREST_FLOATS cells.
_NEAREST_FLOATS = 2**18


def _nearest(points: np.ndarray, centroids: np.ndarray):
    """Nearest-centroid labels and squared distances (argmin ties break low),
    and each point's squared distance to its second-nearest centroid (inf with
    one centroid). One block of distances is alive at a time."""
    m = points.shape[0]
    labels = np.empty(m, dtype=np.intp)
    sq = np.empty(m)
    second = np.empty(m)
    step = max(1, _NEAREST_FLOATS // centroids.shape[0])
    for start in range(0, m, step):
        block = cdist(points[start:start + step], centroids, "sqeuclidean")
        rows = np.arange(block.shape[0])
        stop = start + rows.size
        labels[start:stop] = own = block.argmin(axis=1)
        sq[start:stop] = block[rows, own]
        block[rows, own] = np.inf
        block.min(axis=1, out=second[start:stop])
        del block  # before the next block is computed
    return labels, sq, second


def _cell_means(points: np.ndarray, labels: np.ndarray, n_cells: int) -> np.ndarray:
    sums = np.column_stack(
        [np.bincount(labels, weights=column, minlength=n_cells) for column in points.T]
    )
    counts = np.bincount(labels, minlength=n_cells).astype(float)
    return sums / counts[:, None]


def _kmeanspp(points: np.ndarray, cols: np.ndarray, n_cells: int,
              rng: np.random.Generator) -> np.ndarray:
    """Distance-weighted seeding; never selects a duplicate of a chosen seed.
    ``cols`` is ``np.ascontiguousarray(points.T)``."""
    m = points.shape[0]
    squared_distances = _squared_distances_to(points, cols)
    chosen = [int(rng.integers(m))]
    d2 = squared_distances(chosen[0], np.empty(m))
    new_d2 = np.empty_like(d2)
    cumulative = np.empty_like(d2)
    for _ in range(1, n_cells):
        d2.cumsum(out=cumulative)
        if cumulative[-1] <= 0.0:
            raise ConfigError("fewer distinct pool points than requested cells")
        idx = int(cumulative.searchsorted(rng.random() * cumulative[-1], side="right"))
        chosen.append(min(idx, m - 1))
        np.minimum(d2, squared_distances(idx, new_d2), out=d2)
    return points[chosen].copy()


def _squared_distances_to(points: np.ndarray, cols: np.ndarray):
    """``f(i, out)``: squared distances of every point to point i, into ``out``.

    They equal ``np.sum((points - points[i]) ** 2, axis=1)`` bit for bit.
    numpy sums the rows of an (M, d) buffer laid out like ``points``
    sequentially when d < 8 or the buffer is F-ordered; those sums are taken
    on ``cols``, the (d, M) C-contiguous copy of ``points``, a few whole-pool
    vector operations per call. C-ordered rows with d >= 8 are summed
    pairwise, so they keep the row sums themselves.
    """
    d = points.shape[1]
    rows = np.empty_like(points)
    if d >= 8 and rows.flags.c_contiguous:

        def row_sums(i: int, out: np.ndarray) -> np.ndarray:
            np.square(np.subtract(points, points[i], out=rows), out=rows)
            return rows.sum(axis=1, out=out)

        return row_sums
    diff = np.empty_like(cols)

    def column_sums(i: int, out: np.ndarray) -> np.ndarray:
        if d == 1:  # nothing to sum
            return np.square(np.subtract(cols[0], cols[0, i], out=out), out=out)
        np.square(np.subtract(cols, cols[:, i, None], out=diff), out=diff)
        return np.add.reduce(diff, axis=0, out=out)

    return column_sums


def _repair_empty_cells(points, centroids, labels, sq, lower, slack):
    """Reseed empty cells at the pool point farthest from its own centroid.

    Donor points come only from cells holding at least two points so a
    repair cannot empty another cell. Returns (centroids, labels, sq, lower,
    empty) once every cell is populated: after a repair, ``lower`` holds the
    bounds :func:`_full_pass` gives on the final centroids, taken from the
    last reassignment; ``empty`` counts the cells empty on entry.
    """
    n_cells = centroids.shape[0]
    counts = np.bincount(labels, minlength=n_cells)
    empty = int(np.count_nonzero(counts == 0))
    if not empty:
        return centroids, labels, sq, lower, 0
    for _ in range(n_cells):
        missing = np.flatnonzero(counts == 0)
        if missing.size == 0:
            break
        donors = counts[labels] >= 2
        cand = np.where(donors, sq, -np.inf).argmax()
        centroids[missing[0]] = points[cand]
        labels, sq, second = _nearest(points, centroids)
        counts = np.bincount(labels, minlength=n_cells)
    if np.any(counts == 0):  # only reachable through adversarial exact ties
        raise RuntimeError("empty-cell repair failed to populate every cell")
    return centroids, labels, sq, np.sqrt(second) * (1.0 - slack), empty


# Absolute slack of every bound test: squared differences below the smallest
# normal float lose their relative precision.
_TINY = 1e-150


def _slack(d: int) -> float:
    """Relative slack of the bounds: a computed distance, shift or centroid
    gap is within a few (d + 2) ulps of the true one."""
    return 16 * (d + 2) * np.finfo(float).eps


def _full_pass(points, centroids, slack):
    """Labels, squared distances and lower bounds from every distance."""
    labels, sq, second = _nearest(points, centroids)
    return labels, sq, np.sqrt(second) * (1.0 - slack)


def _reassign(points, cols, old, new, labels, lower, slack):
    """Labels, squared distances and lower bounds (``lower`` is updated in
    place) once the centroids move from ``old`` to ``new``; labels and squared
    distances equal :func:`_nearest` on ``new`` bit for bit.

    ``lower[i]`` bounds point i's distance to every centroid but its own from
    below (Hamerly 2010). A move lowers it by the largest shift of any other
    centroid. A point keeps its label when its own distance is below that
    bound, or below half the gap from its centroid to the nearest other one:
    then every other centroid is farther by more than rounding can hide. Its
    squared distance is summed column by column, as cdist sums it. Every other
    point gets a full distance row.
    """
    shift = np.sqrt(np.square(new - old).sum(axis=1)) * (1.0 + slack)
    # largest shift of any other centroid: the top shift, except for the top
    # centroid's own cell, which gets the runner-up
    top = int(shift.argmax())
    other = np.full(shift.size, shift[top])
    shift[top] = 0.0
    other[top] = shift.max()
    lower *= 1.0 - slack
    lower -= other[labels]
    gaps = cdist(new, new, "sqeuclidean")
    np.fill_diagonal(gaps, np.inf)
    half_gap = 0.5 * np.sqrt(gaps.min(axis=1)) * (1.0 - slack)
    diff = np.take(new.T, labels, axis=1)  # (d, M), like cols
    np.square(np.subtract(cols, diff, out=diff), out=diff)
    sq = np.add.reduce(diff, axis=0)  # row after row: cdist's order
    keep = np.sqrt(sq) * (1.0 + slack) + _TINY < np.maximum(half_gap[labels], lower)
    labels = labels.copy()
    moved = np.flatnonzero(~keep)
    if moved.size:
        labels[moved], sq[moved], lower[moved] = _full_pass(points[moved], new, slack)
    return labels, sq, lower


def _lloyd_once(points, n_cells, rng, max_iter, rel_tol):
    """One seeded Lloyd fit: (centroids, labels, distortion, history,
    converged, empty_cell_repairs)."""
    slack = _slack(points.shape[1])
    cols = np.ascontiguousarray(points.T)
    centroids = _kmeanspp(points, cols, n_cells, rng)
    labels, sq, lower = _full_pass(points, centroids, slack)
    centroids, labels, sq, lower, repairs = _repair_empty_cells(
        points, centroids, labels, sq, lower, slack)
    dist = float(sq.mean())
    history = [dist]
    converged = False
    for _ in range(max_iter):
        new = _cell_means(points, labels, n_cells)
        new_labels, sq, lower = _reassign(points, cols, centroids, new, labels, lower, slack)
        centroids, new_labels, sq, lower, empty = _repair_empty_cells(
            points, new, new_labels, sq, lower, slack)
        repairs += empty
        new_dist = float(sq.mean())
        history.append(new_dist)
        fixed_point = np.array_equal(new_labels, labels)
        improvement = dist - new_dist
        labels, dist = new_labels, new_dist
        if fixed_point or (rel_tol > 0.0 and history[-2] > 0.0
                           and improvement <= rel_tol * history[-2]):
            converged = True
            break
    return centroids, labels, dist, history, converged, repairs


def lloyd(
    pool: CandidatePool,
    n_cells: int,
    rng: np.random.Generator,
    max_iter: int = LloydSettings.max_iter,
    rel_tol: float = LloydSettings.rel_tol,
    restarts: int = LloydSettings.restarts,
) -> Quantizer:
    """Quantize ``pool`` into ``n_cells`` Voronoi cells by Lloyd iteration.

    Parameters
    ----------
    pool : CandidatePool
        Empirical sample of the target distribution; its size should be
        much larger than ``n_cells``.
    n_cells : int
        Number of centroids, at most the number of distinct pool points.
    rng : numpy.random.Generator
        Drives the k-means++ style seeding of every restart.
    max_iter : int
        Iteration cap per restart.
    rel_tol : float
        Stop when the relative distortion improvement falls below this;
        pass 0 to iterate to an exact assignment fixed point.
    restarts : int
        Independent seedings; the lowest-distortion run wins.

    Returns
    -------
    Quantizer
        Centroids with empirical cell probabilities and the pool
        assignment; the per-iteration distortion history of the winning
        restart is attached and is non-increasing, with its ``converged``
        and ``empty_cell_repairs``.
    """
    if n_cells < 1:
        raise ConfigError(f"n_cells must be >= 1, got {n_cells}")
    if restarts < 1:
        raise ConfigError(f"restarts must be >= 1, got {restarts}")
    points = pool.points
    if n_cells > pool.m:
        raise ConfigError(f"requested {n_cells} cells but the pool holds {pool.m} points")
    best = None
    for _ in range(restarts):
        candidate = _lloyd_once(points, n_cells, rng, max_iter, rel_tol)
        if best is None or candidate[2] < best[2]:
            best = candidate
    centroids, labels, dist, history, converged, repairs = best
    probabilities = np.bincount(labels, minlength=n_cells) / pool.m
    return Quantizer(
        centroids=centroids,
        probabilities=probabilities,
        pool_assignment=labels.astype(np.int64),
        distortion=dist,
        distortion_history=tuple(history),
        converged=converged,
        empty_cell_repairs=repairs,
    )


def distortion(quantizer: Quantizer, pool: CandidatePool) -> float:
    """Mean squared distance from pool points to their nearest centroid."""
    if pool.d != quantizer.d:
        raise DimensionError(f"pool dimension {pool.d} != quantizer dimension {quantizer.d}")
    _, sq, _ = _nearest(pool.points, quantizer.centroids)
    return float(sq.mean())


def write_table(path, comments, header: str, rows) -> None:
    """Write ``# `` comment lines, the header, then one line per row: a string
    row as given, any other row as its floats in ``repr`` form (bit-exact)."""
    lines = [*(f"# {c}" for c in comments), header,
             *(row if isinstance(row, str) else ",".join([repr(float(v)) for v in row])
               for row in rows)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_table(path) -> tuple[dict[str, str], list[tuple[int, str]]]:
    """The ``key=value`` tokens of the comment lines (later ones win), and the
    (line number, stripped text) of every other non-blank line."""
    meta, lines = {}, []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if line.startswith("#"):
                meta.update(token.split("=", 1) for token in line[1:].split() if "=" in token)
            elif line:
                lines.append((lineno, line))
    return meta, lines


_SECTIONS = ("centroids", "probabilities", "assignments")


def save_quantizer(quantizer: Quantizer, path, header_comments=()) -> None:
    """Write a quantizer as labelled CSV sections (reloadable bit-exactly)."""
    claims = (f"n_cells={quantizer.n_cells} d={quantizer.d} pool_size={quantizer.pool_size} "
              f"distortion={quantizer.distortion!r}")
    write_table(path, ["qdoe-quantizer v1", *header_comments, claims], "centroids",
                [*quantizer.centroids, "probabilities", *quantizer.probabilities[:, None],
                 "assignments", *[str(int(a)) for a in quantizer.pool_assignment]])


def _parse_lines(path, lines, convert, width=None) -> list:
    """Convert each (line number, text) pair; a line that does not parse, or
    whose row length differs from ``width``, is a ParameterError naming it."""
    values = []
    for lineno, text in lines:
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or (width is not None and len(value) != width):
            raise ParameterError(f"{path}, line {lineno}: cannot read {text!r}")
        values.append(value)
    return values


def _float_row(text: str) -> list[float]:
    return [float(v) for v in text.split(",")]


def load_quantizer(path) -> Quantizer:
    """Reload a quantizer written by :func:`save_quantizer`.

    Construction checks apply and the header's claims must match the file;
    the rest is returned as written (see :meth:`Quantizer.check`).
    """
    meta, lines = read_table(path)
    sections: dict[str, list[tuple[int, str]]] = {}
    for lineno, line in lines:
        if line in _SECTIONS:
            current = sections[line] = []
        elif not sections:
            raise ParameterError(f"unexpected content before first section in {path}")
        else:
            current.append((lineno, line))
    missing = set(_SECTIONS) - set(sections)
    if missing:
        raise ParameterError(f"quantizer file {path} missing sections {sorted(missing)}")
    rows = sections["centroids"]
    width = len(rows[0][1].split(",")) if rows else None
    centroids = np.array(_parse_lines(path, rows, _float_row, width))
    probabilities = np.array(_parse_lines(path, sections["probabilities"], float), dtype=float)
    assignment = np.array(_parse_lines(path, sections["assignments"], int), dtype=np.int64)
    try:
        distortion_value = float(meta.get("distortion", "nan"))
    except ValueError:
        raise ParameterError(f"{path}: distortion {meta['distortion']!r} is not a number") from None
    quantizer = Quantizer(
        centroids=centroids,
        probabilities=probabilities,
        pool_assignment=assignment,
        distortion=distortion_value,
    )
    for key, held in (("n_cells", "centroid rows"), ("d", "centroid columns"),
                      ("pool_size", "assignments")):
        if meta.get(key) != str(getattr(quantizer, key)):
            raise ParameterError(f"{path}: header claims {key}={meta.get(key, '(none)')}, "
                                 f"the file holds {getattr(quantizer, key)} {held}")
    return quantizer


def save_pool(pool: CandidatePool, path, column_names=None, header_comments=()) -> None:
    """Write a candidate pool as CSV with an optional named header row."""
    names = list(column_names) if column_names else [f"x{j}" for j in range(pool.d)]
    if len(names) != pool.d:
        raise DimensionError("column_names length does not match pool dimension")
    write_table(path, ["qdoe-pool v1", *header_comments], ",".join(names), pool.points)


def load_pool(path) -> tuple[CandidatePool, list[str]]:
    """Reload a pool CSV; returns the pool and its column names."""
    _, lines = read_table(path)
    if len(lines) < 2:
        raise ParameterError(f"pool file {path} holds no data")
    names = [c.strip() for c in lines[0][1].split(",")]
    return CandidatePool(np.array(_parse_lines(path, lines[1:], _float_row, len(names)))), names
