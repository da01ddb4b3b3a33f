"""The soak harness: the gate comparison it shares with
tools/check_queries.py, and a bounded run of tools/soak.py at tiny sizes
covering each kind of leg."""

import math
import time

import numpy as np
import pandas as pd
import pytest

from tools.check_queries import compare


def _frame():
    return pd.DataFrame({"k": [1, 2, 3], "s": ["a", "b", "c"],
                         "v": [0.5, float("nan"), 2.0]})


def test_compare_accepts_equal_frames_in_any_row_or_column_order():
    got = _frame()
    exp = got.iloc[::-1][["v", "s", "k"]].reset_index(drop=True)
    assert compare(got, exp) == "OK"


def test_compare_accepts_nan_equal_nan_and_empty_vs_empty():
    assert compare(_frame(), _frame()) == "OK"          # row 2 holds NaN
    # an all-empty Dataset comes back from to_pandas without columns
    assert compare(pd.DataFrame(), pd.DataFrame({"k": []})) == "OK"


def test_compare_rejects_a_value_off_by_more_than_1e_9():
    exp = _frame()
    got = exp.copy()
    got.loc[0, "v"] += 2e-9
    assert compare(got, exp).startswith("VALUES differ in v")
    got.loc[0, "v"] = exp.loc[0, "v"] + 5e-10           # within atol
    assert compare(got, exp) == "OK"


def test_compare_rejects_an_integer_off_by_one_beyond_float_precision():
    exp = pd.DataFrame({"h": np.array([2 ** 60], np.int64)})
    got = pd.DataFrame({"h": np.array([2 ** 60 + 1], np.int64)})
    assert compare(got, exp).startswith("VALUES differ in h")


def test_compare_rejects_a_missing_row():
    assert compare(_frame().iloc[:2], _frame()) == "ROWS 2 != 3"


def test_compare_rejects_an_extra_column():
    got = _frame().assign(extra=1)
    assert compare(got, _frame()).startswith("COLS")


def test_compare_rejects_a_swapped_string():
    got = _frame()
    got["s"] = ["b", "a", "c"]
    assert compare(got, _frame()).startswith("VALUES differ in s")


@pytest.fixture
def soak(tmp_path, monkeypatch):
    """tools/soak.py with every corpus cache under a temporary directory."""
    import tools.datapipe_1m
    import tools.embeddings_1m
    import tools.events_10m
    from tools import soak

    for mod, attr in ((tools.datapipe_1m, "CACHE_ROOT"),
                      (tools.events_10m, "CACHE_ROOT"),
                      (tools.embeddings_1m, "CACHE_ROOT"),
                      (soak, "GRAPH_CACHE"), (soak, "SNAPSHOT_CACHE"),
                      (soak, "KNN_CACHE")):
        monkeypatch.setattr(mod, attr, str(tmp_path / f"{attr}-{mod.__name__}"))
    return soak


def test_soak_legs_pass_at_tiny_sizes(ray_session, soak, capsys):
    """One gate-replay leg (heavy_hitters, with its row-order check), one
    planted-truth leg (line_dedup) and one numpy-reference leg (pagerank),
    in the session's Ray, which the harness must leave running."""
    import json

    import ray

    legs = ["heavy_hitters", "line_dedup", "pagerank"]
    t0 = time.time()
    res = soak.main(["--n-docs", "2000", "--n-events", "20000",
                     "--n-vecs", "2000"] + legs)
    assert time.time() - t0 < 60
    assert ray.is_initialized()
    assert {k: r["pass"] for k, r in res.items()} == dict.fromkeys(legs, True)
    assert res["heavy_hitters"]["gate"] == "OK"
    assert res["line_dedup"]["planted_dropped"] == 20
    assert res["pagerank"]["max_abs_diff"] <= 1.5e-6
    assert all(math.isfinite(r["driver_rss_delta_mb"]) for r in res.values())
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert json.loads(last)["legs"].keys() == set(legs)


def test_soak_reports_a_failing_leg_and_runs_the_rest(ray_session, soak,
                                                      monkeypatch):
    """A leg whose check fails is reported as such; the next leg still
    runs."""
    def broken(s):
        raise AssertionError("planted set mismatch")

    monkeypatch.setitem(soak.LEGS, "line_dedup", broken)
    res = soak.main(["--n-events", "20000", "line_dedup", "distinct_by_type"])
    assert res["line_dedup"] == {"pass": False,
                                 "error": "AssertionError('planted set "
                                          "mismatch')"}
    assert res["distinct_by_type"]["pass"]
