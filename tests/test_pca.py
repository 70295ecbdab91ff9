import importlib.resources

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cirlab.pca import (
    MetricMatrix,
    PcaError,
    fit_metrics,
    normalize,
    pca_fit,
    read_metrics_csv,
    render_loadings_csv,
    standardize,
    top_components,
)

EXCLUDED = {"tradebeans", "actors", "scimark.monte_carlo"}


def paper_matrix() -> MetricMatrix:
    text = (
        importlib.resources.files("cirlab") / "data" / "benchmark_metrics.csv"
    ).read_text()
    return read_metrics_csv(text).without_rows(EXCLUDED)


def _mat(rows, cols, vals):
    return MetricMatrix(tuple(rows), tuple(cols), np.array(vals, dtype=float))


def test_normalize_divides_and_drops_ref():
    m = _mat(["b1"], ["synch", "atomic", "refcycles"], [[100.0, 5.0, 1000.0]])
    out = normalize(m, "refcycles")
    assert out.cols == ("synch", "atomic")
    assert out.values[0, 0] == pytest.approx(0.1)
    assert out.values[0, 1] == pytest.approx(0.005)


def test_normalize_skips_cpu():
    m = _mat(["akka"], ["synch", "cpu", "refcycles"], [[100.0, 94.45, 1000.0]])
    out = normalize(m, "refcycles")
    assert out.column("cpu")[0] == pytest.approx(94.45)
    assert out.column("synch")[0] == pytest.approx(0.1)


def test_normalize_rejects_zero_ref_rows():
    m = _mat(["a", "b"], ["synch", "atomic", "refcycles"],
             [[10.0, 1.0, 0.0], [20.0, 2.0, 100.0]])
    out = normalize(m, "refcycles")
    assert out.rows == ("b",)
    assert any("'a' rejected" in d for d in out.diagnostics)


def test_normalize_by_an_unknown_column_is_an_error():
    m = _mat(["b1"], ["synch", "atomic"], [[100.0, 5.0]])
    with pytest.raises(PcaError, match="^reference column 'refcycles' not present$"):
        normalize(m, "refcycles")


def test_standardize_simple_column():
    m = _mat(["a", "b", "c"], ["x", "y"], [[1.0, 9.0], [2.0, 9.5], [3.0, 10.0]])
    y, means, stds = standardize(m)
    assert list(y[:, 0]) == [-1.0, 0.0, 1.0]
    assert means[0] == 2.0
    assert stds[0] == 1.0


def test_standardize_idempotent():
    rng = np.random.default_rng(7)
    m = _mat([f"r{k}" for k in range(20)], ["x", "y", "z"], rng.normal(size=(20, 3)))
    y1, _, _ = standardize(m)
    y2, _, _ = standardize(_mat(m.rows, m.cols, y1))
    assert np.allclose(y1, y2, atol=1e-12)


def test_standardize_rejects_constant_column():
    m = _mat(["a", "b", "c"], ["x", "y"], [[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]])
    with pytest.raises(PcaError, match="x"):
        standardize(m)


def test_fit_rejects_non_finite_values():
    m = _mat(["a", "b", "c"], ["x", "y"], [[1.0, 2.0], [2.0, float("nan")], [3.0, 1.0]])
    with pytest.raises(PcaError, match="finite"):
        fit_metrics(m)


def test_rank_one_correlation():
    # two perfectly correlated columns: eigenvalues {2, 0}, equal loadings
    base = np.array([1.0, 2.0, 3.0, 4.0, 7.0])
    m = _mat([f"r{k}" for k in range(5)], ["u", "v"],
             np.column_stack([base, 3 * base + 1]))
    model = fit_metrics(m)
    assert model.eigenvalues[0] == pytest.approx(2.0, abs=1e-9)
    assert model.eigenvalues[1] == pytest.approx(0.0, abs=1e-9)
    lead = model.loadings[:, 0]
    assert abs(lead[0]) == pytest.approx(abs(lead[1]), abs=1e-9)


def test_independent_columns_split_variance():
    rng = np.random.default_rng(42)
    m = _mat([f"r{k}" for k in range(4000)], ["a", "b", "c"],
             rng.normal(size=(4000, 3)))
    model = fit_metrics(m)
    assert np.allclose(model.explained, 1 / 3, atol=0.05)


def test_eigenvalues_match_the_correlation_spectrum():
    rng = np.random.default_rng(3)
    for k in (2, 5, 11):
        y = rng.normal(size=(40, k))
        y = (y - y.mean(0)) / y.std(0, ddof=1)
        model = pca_fit(y, tuple(f"m{j}" for j in range(k)))
        corr = (y.T @ y) / (len(y) - 1)
        ref = np.sort(np.linalg.eigvalsh(corr))[::-1]
        assert np.allclose(model.eigenvalues, ref, atol=1e-9)


def test_model_invariants_on_paper_dataset():
    m = paper_matrix()
    assert m.cols == ("synch", "wait", "notify", "atomic", "park", "cpu",
                      "cachemiss", "object", "array", "method", "idynamic")
    assert len(m.rows) == 65 - 0  # the table itself omits the excluded rows
    model = fit_metrics(m)
    k = model.k
    assert k == 11
    v = model.loadings
    assert np.allclose(v.T @ v, np.eye(k), atol=1e-9)
    assert np.allclose(v @ v.T, np.eye(k), atol=1e-9)
    assert model.eigenvalues.sum() == pytest.approx(k, abs=1e-9)
    assert all(np.diff(model.eigenvalues) <= 1e-12)
    y, *_ = standardize(m)
    assert np.allclose(model.scores @ v.T, y, atol=1e-9)
    assert np.abs(y.mean(axis=0)).max() < 1e-9
    # score-column variance equals the eigenvalue
    assert np.allclose(model.scores.var(axis=0, ddof=1), model.eigenvalues, atol=1e-9)


def test_column_permutation_permutes_loadings():
    rng = np.random.default_rng(11)
    vals = rng.normal(size=(30, 4)) ** 2
    cols = ("a", "b", "c", "d")
    m1 = _mat([f"r{k}" for k in range(30)], cols, vals)
    perm = (2, 0, 3, 1)
    m2 = _mat(m1.rows, tuple(cols[j] for j in perm), vals[:, perm])
    t1 = top_components(fit_metrics(m1), 4)
    t2 = top_components(fit_metrics(m2), 4)
    for c in range(4):
        assert [n for n, _ in t1[c]] == [n for n, _ in t2[c]]
        for (_, v1), (_, v2) in zip(t1[c], t2[c]):
            assert v1 == pytest.approx(v2, abs=1e-8)


def test_top_components_ordering_and_ties():
    base = np.array([1.0, 2.0, 3.0, 4.0, 7.0])
    m = _mat([f"r{k}" for k in range(5)], ["u", "v"],
             np.column_stack([base, 3 * base + 1]))
    table = top_components(fit_metrics(m), 1)[0]
    assert [name for name, _ in table] == ["u", "v"]  # tie broken by name
    with pytest.raises(PcaError):
        top_components(fit_metrics(m), 5)


def test_loadings_csv_shape():
    m = paper_matrix()
    model = fit_metrics(m)
    text = render_loadings_csv(model, 4)
    lines = text.strip().splitlines()
    assert len(lines) == 1 + 11
    assert lines[0].split(",")[0] == "PC1 metric"
    assert len(lines[1].split(",")) == 8


def test_csv_ingest_rejects_gappy_rows():
    text = "benchmark,a,b\nr1,1.0,2.0\nr2,,3.0\n"
    m = read_metrics_csv(text)
    assert m.rows == ("r1",)
    assert any("rejected" in d for d in m.diagnostics)


def test_csv_ingest_rejects_a_row_with_a_bad_value():
    text = "benchmark,a,b\nr1,1.0,2.0\nr2,3.0,x7\nr3,4.0,5.0\n"
    m = read_metrics_csv(text)
    assert m.rows == ("r1", "r3")
    assert m.diagnostics == ("row 'r2' rejected: bad value 'x7' in 'b'",)


def test_csv_ingest_needs_a_benchmark_header():
    with pytest.raises(PcaError, match='^metrics CSV must start with a "benchmark" column$'):
        read_metrics_csv("name,a,b\nr1,1.0,2.0\n")


def test_csv_ingest_drops_empty_columns():
    text = "benchmark,a,cpu,b\nr1,1.0,,2.0\nr2,3.0,,4.0\n"
    m = read_metrics_csv(text)
    assert m.cols == ("a", "b")
    assert any("dropped empty column" in d for d in m.diagnostics)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_pca_invariants_random(data):
    n = data.draw(st.integers(min_value=3, max_value=24))
    k = data.draw(st.integers(min_value=2, max_value=6))
    rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2**31)))
    vals = rng.normal(size=(n, k))
    vals += rng.normal(size=(1, k))  # arbitrary column shifts
    if any(np.isclose(vals.std(0, ddof=1), 0)):
        return
    model = fit_metrics(_mat([f"r{j}" for j in range(n)], [f"c{j}" for j in range(k)], vals))
    v = model.loadings
    assert np.allclose(v.T @ v, np.eye(k), atol=1e-9)
    assert model.eigenvalues.sum() == pytest.approx(k, abs=1e-9)
    assert all(np.diff(model.eigenvalues) <= 1e-12)
