"""Metric-matrix normalization, standardization, and principal components.

The pipeline mirrors the workload-characterization methodology: each metric
column is optionally divided row-wise by a cost column (the "reference
cycles" stand-in, `normalize`), then `fit_metrics` standardizes every column
to zero mean and unit sample variance and decomposes the result into
principal components. `fit_metrics` is the one fit: `cirlab pca` normalizes
first when asked to and then calls it too. Scores are S = Y L with L the
orthonormal eigenvector matrix of the correlation matrix, so the loading
l_ij is the weight of metric i on component j. The eigenpairs come from
numpy's symmetric eigensolver, sorted by descending eigenvalue.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np


class PcaError(Exception):
    pass


@dataclass(frozen=True)
class MetricMatrix:
    rows: tuple[str, ...]  # benchmark names
    cols: tuple[str, ...]  # metric names
    values: np.ndarray  # shape (N, K)
    diagnostics: tuple[str, ...] = ()

    def __post_init__(self):
        if self.values.shape != (len(self.rows), len(self.cols)):
            raise PcaError("matrix shape does not match row/column names")
        if len(self.cols) < 2:
            raise PcaError("need at least two metric columns")

    def column(self, name: str) -> np.ndarray:
        return self.values[:, self.cols.index(name)]

    def without_rows(self, names: set[str]) -> "MetricMatrix":
        keep = [i for i, r in enumerate(self.rows) if r not in names]
        return MetricMatrix(tuple(self.rows[i] for i in keep), self.cols, self.values[keep],
                            self.diagnostics)


def read_metrics_csv(text: str) -> MetricMatrix:
    """Ingest a metrics CSV: header `benchmark,<metric>...`, one row each.

    Scientific notation is accepted. Columns empty in every row are dropped
    with a diagnostic; rows with gaps in surviving columns are rejected.
    """
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if not header or header[0] != "benchmark":
        raise PcaError('metrics CSV must start with a "benchmark" column')
    cols = header[1:]
    raw_rows = [r for r in reader if r]

    def cell(r: list[str], j: int) -> str:
        return r[j + 1].strip() if len(r) > j + 1 else ""

    def value(r: list[str], j: int) -> float:  # a PcaError says why there is none
        text = cell(r, j)
        if text == "":
            raise PcaError(f"missing {cols[j]!r}")
        try:
            return float(text)
        except ValueError:
            raise PcaError(f"bad value {text!r} in {cols[j]!r}") from None

    diagnostics: list[str] = []
    empty = [j for j in range(len(cols)) if all(cell(r, j) == "" for r in raw_rows)]
    if empty:
        diagnostics.append(
            "dropped empty column(s): " + ", ".join(cols[j] for j in empty)
        )
    keep = [j for j in range(len(cols)) if j not in empty]
    names: list[str] = []
    data: list[list[float]] = []
    for r in raw_rows:
        try:
            data.append([value(r, j) for j in keep])
        except PcaError as e:
            diagnostics.append(f"row {r[0]!r} rejected: {e}")
        else:
            names.append(r[0])
    return MetricMatrix(
        tuple(names), tuple(cols[j] for j in keep),
        np.array(data, dtype=float).reshape(len(names), len(keep)), tuple(diagnostics),
    )


def normalize(m: MetricMatrix, refcol: str, skip: set[str] | None = None) -> MetricMatrix:
    """Divide every non-skipped column row-wise by `refcol`, then drop it.

    Rows whose reference value is zero or negative are rejected with a
    diagnostic; utilization-style columns (default {"cpu"}) pass through.
    """
    if skip is None:
        skip = {"cpu"}
    if refcol not in m.cols:
        raise PcaError(f"reference column {refcol!r} not present")
    ref = m.column(refcol)
    good = ref > 0
    diagnostics = list(m.diagnostics)
    for i in np.flatnonzero(~good):
        diagnostics.append(f"row {m.rows[i]!r} rejected: nonpositive {refcol}")
    cols = tuple(c for c in m.cols if c != refcol)
    # row-major, as the fit's sums over it expect for bit-stable results
    kept = np.delete(m.values[good], m.cols.index(refcol), axis=1)
    data = np.where([c in skip for c in cols], kept, kept / ref[good, None])
    rows = tuple(r for i, r in enumerate(m.rows) if good[i])
    return MetricMatrix(rows, cols, data, tuple(diagnostics))


def standardize(m: MetricMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Y, means, stds): each column shifted to mean 0 and sample std 1."""
    if len(m.rows) < 2:
        raise PcaError("need at least two observations")
    means = m.values.mean(axis=0)
    stds = m.values.std(axis=0, ddof=1)
    flat = [m.cols[j] for j in np.flatnonzero(stds == 0)]
    if flat:
        raise PcaError("constant column(s): " + ", ".join(flat))
    return (m.values - means) / stds, means, stds


@dataclass(frozen=True)
class PcaModel:
    metrics: tuple[str, ...]
    loadings: np.ndarray  # (K, K), columns are components
    eigenvalues: np.ndarray  # descending
    scores: np.ndarray  # (N, K)
    explained: np.ndarray  # eigenvalues / K

    @property
    def k(self) -> int:
        return len(self.metrics)


def pca_fit(y: np.ndarray, metrics: tuple[str, ...]) -> PcaModel:
    """Fit components to an already-standardized matrix Y."""
    n, k = y.shape
    if n < 2:
        raise PcaError("need at least two observations")
    corr = (y.T @ y) / (n - 1)
    if not np.isfinite(corr).all():
        raise PcaError("metric values must be finite")
    eigvals, eigvecs = np.linalg.eigh(corr)
    order = np.argsort(-eigvals, kind="stable")
    eigvals = eigvals[order]
    eigvecs = eigvecs[:, order]
    # sign convention: the largest-magnitude entry of each component is positive
    eigvecs *= np.where(eigvecs[np.abs(eigvecs).argmax(axis=0), np.arange(k)] < 0, -1.0, 1.0)
    return PcaModel(metrics, eigvecs, eigvals, y @ eigvecs, eigvals / k)


def fit_metrics(m: MetricMatrix) -> PcaModel:
    """Standardize `m`'s columns, then fit its principal components."""
    y, _, _ = standardize(m)
    return pca_fit(y, m.cols)


def top_components(model: PcaModel, j: int) -> list[list[tuple[str, float]]]:
    """Per-component (metric, signed loading), ordered by |loading| descending."""
    if not 1 <= j <= model.k:
        raise PcaError(f"component count {j} out of range 1..{model.k}")
    out = []
    for c in range(j):
        col = model.loadings[:, c]
        # magnitudes equal to 1e-12 count as ties, broken by metric name
        ranked = sorted(
            zip(model.metrics, col), key=lambda kv: (-round(abs(kv[1]), 12), kv[0])
        )
        out.append([(name, float(v)) for name, v in ranked])
    return out


def _csv(header: list[str], rows: list[list[str]]) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([header, *rows])
    return buf.getvalue()


def render_loadings_csv(model: PcaModel, j: int) -> str:
    """Component table layout: (metric, loading) column pairs per component."""
    tables = top_components(model, j)
    header = [h for c in range(j) for h in (f"PC{c+1} metric", f"PC{c+1} loading")]
    rows = [[cell for t in tables for cell in (t[row][0], f"{t[row][1]:+.4f}")]
            for row in range(model.k)]
    return _csv(header, rows)


def render_scores_csv(model: PcaModel, rows: tuple[str, ...]) -> str:
    header = ["benchmark"] + [f"PC{c+1}" for c in range(model.k)]
    return _csv(header, [[name] + [f"{v:.6f}" for v in score]
                         for name, score in zip(rows, model.scores)])


def render_variance_csv(model: PcaModel) -> str:
    cum = np.cumsum(model.explained)  # added in component order
    return _csv(["component", "eigenvalue", "explained", "cumulative"],
                [[f"PC{c+1}", f"{model.eigenvalues[c]:.9f}", f"{model.explained[c]:.6f}",
                  f"{cum[c]:.6f}"] for c in range(model.k)])
