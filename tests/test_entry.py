"""Driver-contract invariants for __ray_entry__.py.

Pins the query/oracle counts that README.md and the module docstring quote
(ADVICE r4: the prose drifted from the dicts twice), plus the snapshot
rotation: the driver records CORRECTNESS rows for only the first 50
queries() entries, so the window must hold queries no driver round has
checked yet that can pass a hash-equality gate — oracle-expressible and
bit-exact cross-engine.
"""

import json
import pathlib

import __ray_entry__ as e

REPO = pathlib.Path(__file__).resolve().parent.parent


def test_query_and_oracle_counts():
    q = e.queries()
    sql = e.oracle_sql()
    # crawl goldens live in oracle_sql too; count only keys paired to a query
    paired = [k for k in q if k in sql]
    assert len(q) == 167, len(q)
    assert len(paired) == 153, len(paired)
    rows_only = sorted(set(q) - set(sql))
    assert len(rows_only) == 14, rows_only
    # the rows-only set is exactly the approximate/iterative family
    assert rows_only == sorted([
        "winnow_fingerprint", "ann_ivf", "ann_pq", "ann_recall",
        "approx_distinct_users", "ann_pq_rerank", "kmeans_clusters",
        "approx_quantiles", "ann_lsh", "bpe_train", "bpe_encode",
        "semdedup", "quality_classifier", "embedding_pca"]), \
        rows_only


def test_driver_window_is_rotated_and_oracle_checked():
    """First 50 dict entries = the driver snapshot window: every one must
    have an oracle, and none may repeat a query that any earlier driver
    round (every CORRECTNESS_r*.json) already checked."""
    q = list(e.queries())
    sql = e.oracle_sql()
    window = q[:50]
    assert all(k in sql for k in window), \
        [k for k in window if k not in sql]
    rounds = sorted(REPO.glob("CORRECTNESS_r*.json"))
    assert rounds, "no CORRECTNESS_r*.json next to __ray_entry__.py"
    checked = set()
    for p in rounds:
        checked |= set(json.loads(p.read_text()).keys())
    again = [k for k in window if k in checked]
    assert not again, f"window wastes slots on already-checked: {again}"


def test_driver_gated_list_matches_round_files():
    """``DRIVER_GATED``, kept by hand, is the union of every
    CORRECTNESS_r*.json's keys in file order: a new round file must land
    with its keys added there, or the rotation puts checked queries first."""
    union: dict = {}
    for p in sorted(REPO.glob("CORRECTNESS_r*.json")):
        union.update(dict.fromkeys(json.loads(p.read_text())))
    assert e.DRIVER_GATED == list(union)


def test_rotation_is_a_permutation():
    """_driver_rotate must not add/drop/duplicate keys."""
    q = e.queries()
    assert len(q) == len(set(q))
    # every callable still takes an sf_dir string
    assert all(callable(v) for v in q.values())
