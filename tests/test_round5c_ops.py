"""Round-5c operators: semdedup, zipf_fit, quality_classifier.

zipf_fit is oracle-checked by the sf gate (regr_slope/regr_intercept SQL);
here its closed-form matches DuckDB directly on sf0.001.  semdedup and
quality_classifier are rows-only gates (iterative quantizer / iterative GD),
so these tests pin the semantics on planted structure: duplicate recovery
and the keep-lowest-cent-sim rule for semdedup, learning dynamics (accuracy
floor, monotone loss) for the classifier.
"""

import duckdb
import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from tests.test_spans_hitters import _collect
from upton_ray import datapipe

SF = "/root/testdata/sf0.001"


# ------------------------------------------------------------------ semdedup


def _write_emb(tmp_path, M, ids=None):
    n = len(M)
    t = pa.table({
        "vec_id": pa.array(ids if ids is not None else np.arange(n),
                           pa.int64()),
        "embedding": pa.array([row.astype(np.float32).tolist() for row in M],
                              pa.list_(pa.float32())),
        "label": pa.array(np.zeros(n, dtype=np.int32), pa.int32()),
    })
    pq.write_table(t, tmp_path / "embeddings.parquet")


def _planted(seed=7, n_base=160, dim=16, n_dup_groups=12):
    """Two well-separated blobs + planted near-duplicate groups (a base
    vector plus 1-2 copies with tiny jitter -> cosine > 0.999)."""
    rng = np.random.RandomState(seed)
    A = rng.randn(n_base // 2, dim) + np.r_[8.0, np.zeros(dim - 1)]
    B = rng.randn(n_base // 2, dim) + np.r_[np.zeros(dim - 1), 8.0]
    M = np.vstack([A, B])
    dup_of = {}
    rows = [M]
    nxt = n_base
    for g in range(n_dup_groups):
        base = rng.randint(0, n_base)
        for c in range(1 + g % 2):
            rows.append(M[base][None, :] * (1.0 + 1e-4 * (c + 1)))
            dup_of[nxt] = base
            nxt += 1
    return np.vstack(rows), dup_of


def test_semdedup_recovers_planted_duplicates(ray_session, tmp_path):
    M, dup_of = _planted()
    _write_emb(tmp_path, M)
    got = _collect(datapipe.semdedup(str(tmp_path), k=2, threshold=0.999,
                                     train_sample=len(M))) \
        .set_index("vec_id").sort_index()
    assert len(got) == len(M)
    # every planted duplicate group loses all but one member
    for dup, base in dup_of.items():
        group = [base] + [d for d, b in dup_of.items() if b == base]
        kept = [v for v in group if got.loc[v, "keep"]]
        assert len(kept) == 1, (base, group, kept)
        # the paper's rule keeps the LOWEST-centroid-similarity member
        sims = got.loc[group, "cent_sim"]
        assert kept[0] == sims.idxmin(), (group, sims.to_dict())
    # duplicates always share their base's cell (near-identical vectors)
    for dup, base in dup_of.items():
        assert got.loc[dup, "cell"] == got.loc[base, "cell"]


def test_semdedup_threshold_above_one_keeps_all(ray_session, tmp_path):
    M, _ = _planted(seed=3, n_dup_groups=4)
    _write_emb(tmp_path, M)
    got = _collect(datapipe.semdedup(str(tmp_path), k=2, threshold=1.1,
                                     train_sample=len(M)))
    assert got["keep"].all() and len(got) == len(M)


def test_semdedup_runs_on_sf0001(ray_session):
    got = _collect(datapipe.semdedup(SF, k=4, threshold=0.98)) \
        .sort_values("vec_id").reset_index(drop=True)
    assert got["keep"].any()
    assert set(got.columns) == {"vec_id", "cell", "cent_sim", "keep"}
    assert got["vec_id"].is_unique
    # deterministic end to end (seeded quantizer, ordered screen)
    again = _collect(datapipe.semdedup(SF, k=4, threshold=0.98)) \
        .sort_values("vec_id").reset_index(drop=True)
    assert got.equals(again)


def test_semdedup_default_cells_scale_with_corpus(ray_session, monkeypatch):
    """Default k = max(8, n // 20_000), n from parquet metadata: the gate's
    500 vectors get 8 cells, a 400k-vector count gets 20."""
    got = _collect(datapipe.semdedup(SF))
    assert got["cell"].max() < 8
    monkeypatch.setattr(datapipe, "_parquet_rows", lambda path: 400_000)
    got = _collect(datapipe.semdedup(SF))
    assert 8 <= got["cell"].max() < 20


# ------------------------------------------------------------------ zipf_fit


def test_zipf_fit_matches_duckdb(ray_session):
    got = datapipe.zipf_fit(SF, k=1000).to_pandas()
    import __ray_entry__ as e
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS "
            f"SELECT * FROM '{SF}/documents.parquet'")
    want = con.sql(e.oracle_sql()["zipf_fit"]).df()
    assert int(got.n_terms[0]) == int(want.n_terms[0])
    assert abs(got.slope[0] - want.slope[0]) < 1e-9
    assert abs(got.intercept[0] - want.intercept[0]) < 1e-9
    assert got.slope[0] < -0.1          # frequency decays with rank


# -------------------------------------------------------- quality_classifier


def test_quality_classifier_learns_planted_separable(ray_session, tmp_path):
    rng = np.random.RandomState(5)
    pos_words = ["aurora", "quasar", "nebula"]
    neg_words = ["basalt", "gneiss", "schist"]
    texts = []
    for i in range(300):
        if i % 2 == 0:
            # positive class: contains the label term + correlated tokens
            texts.append("spark " + " ".join(
                rng.choice(pos_words, 12).tolist()))
        else:
            texts.append(" ".join(rng.choice(neg_words, 12).tolist()))
    t = pa.table({
        "doc_id": pa.array(np.arange(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
    })
    pq.write_table(t, tmp_path / "documents.parquet")
    out = datapipe.quality_classifier(str(tmp_path), iters=10)
    losses = out._quality_losses
    got = _collect(out)
    acc = (got["pred"] == got["label"]).mean()
    assert acc >= 0.99, acc
    # full-batch GD on a separable problem: loss strictly improves overall
    assert losses[-1] < losses[0] * 0.7, losses
    assert all(np.isfinite(losses))


def test_quality_classifier_deterministic_on_sf0001(ray_session):
    a = _collect(datapipe.quality_classifier(SF)) \
        .sort_values("doc_id").reset_index(drop=True)
    b = _collect(datapipe.quality_classifier(SF)) \
        .sort_values("doc_id").reset_index(drop=True)
    assert a.equals(b)
    assert (a["pred"] == a["label"]).mean() >= 0.95   # 'spark' is learnable
    assert set(a.columns) == {"doc_id", "label", "prob", "pred"}
