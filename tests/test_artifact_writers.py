"""The float artifact writers against the per-cell writers they replaced.

`write_float_csv` (shap_values.csv, features.csv) and `svg.beeswarm` format
plain Python floats from ``ndarray.tolist()``. The oracles below are the
earlier writers, which formatted every NumPy scalar on its own and wrote
each cell through csv.writer; the new writers must match them byte for
byte.
"""

import csv
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from speechscore import svg
from speechscore.corpus import FeatureMatrix, write_float_csv
from speechscore.svg import _esc, _gradient_color, _header

from test_corpus import _CSV_IDS

_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                1e308, -1e308, 1.0, -2.5, 0.1]
_FLOATS = (st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)
           | st.sampled_from(_EDGE_FLOATS))


def _reference_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _reference_shap_values(path, columns, phi):
    """shap_values.csv as `explain` wrote it: csv.writer over each cell's
    repr(float(np.float64))."""
    _reference_csv(path, columns, ([repr(float(v)) for v in row] for row in phi))


def _reference_to_csv(matrix, path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id"] + list(matrix.groups))
        writer.writerow(["response_id"] + list(matrix.columns))
        for rid, row in zip(matrix.response_ids, matrix.values):
            writer.writerow([rid] + [repr(float(v)) for v in row])


def _reference_beeswarm(ranking, phi, feature_values, columns, title: str,
                        max_features: int = 15) -> str:
    """The earlier beeswarm: a generator over NumPy scalars for the span, and
    one indexed NumPy scalar per point."""
    shown = [name for name, _ in ranking[:max_features]]
    row_h, left, width = 26, 230, 720
    height = 50 + row_h * max(len(shown), 1)
    span = max(abs(float(v)) for row in phi for v in row) or 1.0
    sx = lambda v: left + (width - left - 30) * (0.5 + 0.5 * v / span)
    parts = _header(width, height, title)
    zero_x = sx(0.0)
    parts.append(f'<line x1="{zero_x:.1f}" y1="28" x2="{zero_x:.1f}" '
                 f'y2="{height - 20}" stroke="#999" stroke-dasharray="3,3"/>')
    col_of = {name: i for i, name in enumerate(columns)}
    n = len(phi)
    for r, name in enumerate(shown):
        j = col_of[name]
        y = 40 + r * row_h
        parts.append(f'<text x="{left - 6}" y="{y + 4}" text-anchor="end">{_esc(name[:34])}</text>')
        col = [float(feature_values[i][j]) for i in range(n)]
        lo, hi = min(col), max(col)
        rng = (hi - lo) or 1.0
        for i in range(n):
            t = (col[i] - lo) / rng
            jitter = ((i * 2654435761) % 97 / 97.0 - 0.5) * (row_h - 8)
            parts.append(f'<circle cx="{sx(float(phi[i][j])):.1f}" cy="{y + jitter:.1f}" '
                         f'r="2" fill="{_gradient_color(t)}" fill-opacity="0.65"/>')
    parts.append(f'<text x="{(left + width) / 2:.0f}" y="{height - 6}" '
                 f'text-anchor="middle">contribution to prediction</text>')
    parts.append("</svg>")
    return "\n".join(parts)


@st.composite
def _explanations(draw):
    """A SHAP matrix and its feature values, one column possibly constant,
    with a ranking over a shuffled subset of the columns."""
    n, p = draw(st.integers(1, 7)), draw(st.integers(1, 5))
    cells = st.lists(_FLOATS, min_size=n * p, max_size=n * p)
    phi = np.asarray(draw(cells)).reshape(n, p)
    values = np.asarray(draw(cells)).reshape(n, p)
    if draw(st.booleans()):
        values[:, draw(st.integers(0, p - 1))] = draw(_FLOATS)
    columns = [f"f{j}" for j in range(p)]
    order = draw(st.permutations(columns))
    ranking = [(name, float(p - r)) for r, name in enumerate(order)]
    return phi, values, columns, ranking, draw(st.integers(1, p + 1))


def _outcome(fn):
    try:
        return fn()
    except (ValueError, OverflowError) as exc:
        return type(exc)


@given(_explanations())
@settings(max_examples=300, deadline=None)
def test_beeswarm_matches_reference(case):
    phi, values, columns, ranking, max_features = case
    new = _outcome(lambda: svg.beeswarm(ranking, phi, values, columns, "SHAP",
                                        max_features=max_features))
    old = _outcome(lambda: _reference_beeswarm(ranking, phi, values, columns,
                                               "SHAP", max_features=max_features))
    assert new == old


def test_beeswarm_matches_reference_on_a_flat_explanation():
    # All-zero phi takes the span's `or 1.0`; a constant column its range's.
    phi = np.zeros((4, 2))
    phi[0, 1] = -0.0
    values = np.array([[3.0, -0.0], [3.0, 5e-324], [3.0, -1e308], [3.0, 1e308 / 2]])
    ranking = [("b", 0.0), ("a", 0.0)]
    assert (svg.beeswarm(ranking, phi, values, ["a", "b"], "t")
            == _reference_beeswarm(ranking, phi, values, ["a", "b"], "t"))


_ALL_FLOATS = _FLOATS | st.sampled_from([math.inf, -math.inf, math.nan])


@given(st.integers(0, 5).flatmap(lambda p: st.tuples(
    st.just(p), st.lists(st.tuples(_CSV_IDS, st.lists(_ALL_FLOATS, min_size=p,
                                                      max_size=p)),
                         max_size=6))))
@settings(max_examples=300, deadline=None)
def test_float_csv_writers_match_reference(tmp_path_factory, case):
    p, rows = case
    values = np.asarray([v for _, v in rows], dtype=np.float64).reshape(len(rows), p)
    columns = [f"c{j}" for j in range(p)]
    tmp = tmp_path_factory.mktemp("writers")

    write_float_csv(tmp / "new_shap.csv", [columns], values)
    _reference_shap_values(tmp / "old_shap.csv", columns, values)
    assert (tmp / "new_shap.csv").read_bytes() == (tmp / "old_shap.csv").read_bytes()

    matrix = FeatureMatrix(response_ids=[rid for rid, _ in rows], columns=columns,
                           groups=["FF"] * p, values=values)
    matrix.to_csv(tmp / "new_features.csv")
    _reference_to_csv(matrix, tmp / "old_features.csv")
    assert ((tmp / "new_features.csv").read_bytes()
            == (tmp / "old_features.csv").read_bytes())
