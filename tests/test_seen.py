"""URL-seen set: the cuckoo filter, exact and approximate shards, re-crawl
invalidation, checkpoint/restore.

Each shard holds one membership structure: an exact URL set (the default) or,
in approximate mode, the deletable cuckoo filter alone (north_star: cuckoo for
deletions — a bloom could never unlearn an invalidated URL).
"""

import numpy as np

from upton_ray.seen import Cuckoo, _hash2


def _h(urls):
    return _hash2(np.asarray(urls, dtype=object))


def test_cuckoo_membership_and_delete():
    c = Cuckoo(capacity=10_000)
    ins = [f"http://host{i % 64}.test/doc/{i}" for i in range(5_000)]
    h1, h2 = _h(ins)
    c.add(h1, h2)
    assert c.contains(h1, h2).all(), "cuckoo must have no false negatives"

    # delete every third item -> those (and only those, modulo fp collisions)
    # stop matching; the rest still match exactly
    mask = np.arange(len(ins)) % 3 == 0
    deleted = c.delete(h1[mask], h2[mask])
    assert deleted.all()
    after = c.contains(h1, h2)
    assert after[~mask].all(), "deletion must not disturb other members"
    assert after[mask].mean() < 0.05, "deleted items must be forgotten"


def test_cuckoo_false_positive_rate_bounded():
    c = Cuckoo(capacity=20_000)
    h1, h2 = _h([f"x{i}" for i in range(10_000)])
    c.add(h1, h2)
    g1, g2 = _h([f"y{i}" for i in range(10_000)])
    assert c.contains(g1, g2).mean() < 0.05


def test_seen_set_invalidate_forces_refetch(ray_session):
    from upton_ray.seen import SeenSet

    s = SeenSet(num_shards=2, capacity_per_shard=10_000)
    urls = [f"http://h{i % 8}.test/a/{i}" for i in range(1_000)]
    assert s.check_and_add(urls).all()
    assert (~s.check_and_add(urls)).all()
    assert s.contains(urls).all()

    stale = urls[::5]
    assert s.invalidate(stale) == len(stale)
    cont = s.contains(urls)
    assert not cont[::5].any(), "invalidated URLs must read as unseen"
    kept = np.ones(len(urls), dtype=bool)
    kept[::5] = False
    assert cont[kept].all(), "other URLs stay seen"

    # the next crawl fetches exactly the invalidated set again
    new = s.check_and_add(urls)
    assert new[::5].all() and not new[kept].any()
    assert s.size() == len(urls)
    s.kill()


def test_seen_set_invalidate_clears_bad(ray_session):
    from upton_ray.seen import SeenSet

    s = SeenSet(num_shards=2)
    s.check_and_add(["http://a.test/1", "http://a.test/2"])
    s.record_bad(["http://a.test/2"])
    assert s.bad_mask(["http://a.test/2"]).all()
    s.invalidate(["http://a.test/2"])
    assert not s.bad_mask(["http://a.test/2"]).any()
    s.kill()


def test_approximate_mode_filters_only(ray_session):
    """Filters-only membership (the 10^10-URL memory config): dedup still
    works end-to-end with a bounded false-positive rate and no exact tier."""
    from upton_ray.seen import SeenSet

    s = SeenSet(num_shards=2, capacity_per_shard=100_000, approximate=True)
    urls = [f"http://h{i % 32}.test/doc/{i}" for i in range(20_000)]
    new1 = s.check_and_add(urls)
    assert new1.mean() > 0.99, "first pass: nearly all new (FP rate bounded)"
    new2 = s.check_and_add(urls)
    assert not new2.any(), "second pass: no false negatives, none refetch"
    assert s.contains(urls).all()
    assert s.size() == int(new1.sum())

    # deletions work from day one (cuckoo IS the store in this mode)
    victims = urls[::100]
    assert s.invalidate(victims) == len(victims)
    again = s.check_and_add(victims)
    assert again.mean() > 0.9, "invalidated URLs read as new again"
    s.kill()


def test_approximate_mode_intra_batch_duplicates(ray_session):
    from upton_ray.seen import SeenSet

    s = SeenSet(num_shards=1, capacity_per_shard=10_000, approximate=True)
    new = s.check_and_add(["http://a.test/x", "http://a.test/x",
                           "http://a.test/y"])
    assert new.tolist() == [True, False, True]
    s.kill()


def test_cuckoo_overfull_spills_never_false_negative():
    """Inserts past table capacity land in the spill set: membership stays
    complete (no permanent-refetch false negatives), saturation is visible
    via n_spilled, and spilled entries delete correctly."""
    from upton_ray.seen import Cuckoo, _hash2

    c = Cuckoo(capacity=64)   # tiny: 32 buckets hold at most 128 slots
    urls = np.array([f"http://h.test/{i}" for i in range(400)], dtype=object)
    h1, h2 = _hash2(urls)
    spilled = c.add(h1, h2)
    assert spilled > 0, "a 4x-overfull table must spill"
    assert c.n_spilled == spilled
    assert c.contains(h1, h2).all(), \
        "every added key must still test positive (spill set backs the table)"
    # deleting a spilled key forgets it
    deleted = c.delete(h1, h2)
    assert deleted.all()
    assert c.n_spilled == 0


def test_cuckoo_spill_count_matches_occupancy():
    """count must equal (non-empty table slots + spill entries) even when the
    same homeless fingerprint recurs past saturation — set.add is a no-op,
    so a recurring spill key must not inflate count (delete decrements once
    per key, so drift would eventually underflow)."""
    from upton_ray.seen import Cuckoo, _hash2

    c = Cuckoo(capacity=16)
    urls = np.array([f"http://h.test/{i}" for i in range(50)], dtype=object)
    h1, h2 = _hash2(urls)
    for _ in range(4):          # duplicate inserts past saturation
        c.add(h1, h2)
    assert c.count == int((c.table != 0).sum()) + len(c.spill)


def test_seen_checkpoint_clears_stale_shards(ray_session, tmp_path):
    """Shrinking num_shards between runs must not leave higher-numbered
    shard files from the previous checkpoint to be re-ingested on restore."""
    import os

    import pyarrow.parquet as pq

    from upton_ray.seen import SeenSet

    d = str(tmp_path / "seen.parquet")
    s4 = SeenSet(num_shards=4)
    s4.add([f"http://a.test/{i}" for i in range(100)])
    s4.checkpoint(d)
    s4.kill()
    assert len([f for f in os.listdir(d) if f.endswith(".parquet")]) == 4

    s2 = SeenSet(num_shards=2)
    s2.add([f"http://b.test/{i}" for i in range(10)])
    s2.checkpoint(d)
    s2.kill()
    files = sorted(f for f in os.listdir(d) if f.endswith(".parquet"))
    assert files == ["shard-0.parquet", "shard-1.parquet"]
    total = sum(pq.read_metadata(os.path.join(d, f)).num_rows for f in files)
    assert total == 10


def test_seen_restore_across_shard_counts(ray_session, tmp_path):
    """A checkpoint restores into a different shard count (routing re-hashes
    each URL), read back the way ``Crawler._restore_seen`` reads it."""
    import os

    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from upton_ray.seen import SeenSet

    d = str(tmp_path / "seen.parquet")
    urls = [f"http://h{i % 7}.test/p/{i}" for i in range(300)]
    bad = urls[::11]
    s4 = SeenSet(num_shards=4)
    s2 = SeenSet(num_shards=2)
    try:
        s4.check_and_add(urls)
        s4.record_bad(bad)
        s4.checkpoint(d)
        for f in sorted(os.listdir(d)):
            for batch in pq.ParquetFile(os.path.join(d, f)).iter_batches(
                    batch_size=64):
                t = pa.Table.from_batches([batch])
                s2.restore(
                    t.filter(pc.equal(t["bad"], False))["url"].to_pylist(),
                    t.filter(pc.equal(t["bad"], True))["url"].to_pylist())
        assert not s2.check_and_add(urls).any()
        assert s2.bad_mask(urls).tolist() == [u in bad for u in urls]
        assert s2.size() == s4.size() == len(urls)
        assert s2.invalidate([urls[1], urls[1]]) == 1
    finally:
        s4.kill()
        s2.kill()


def test_seen_checkpoint_approximate_raises(ray_session, tmp_path):
    from upton_ray.seen import SeenSet

    s = SeenSet(num_shards=1, approximate=True)
    s.add(["http://a.test/x"])
    try:
        import pytest

        with pytest.raises(ValueError, match="approximate"):
            s.checkpoint(str(tmp_path / "seen.parquet"))
    finally:
        s.kill()


def test_crawler_rejects_stash_with_approx_seen(ray_session, tmp_path):
    """Resumable crawls need an enumerable seen set — fail at construction,
    not at checkpoint time mid-crawl."""
    import pytest

    from upton_ray.config import CrawlConfig
    from upton_ray.engine import Crawler

    with pytest.raises(ValueError, match="seen_exact"):
        Crawler(CrawlConfig(stash_folder=str(tmp_path / "stash"),
                            seen_exact=False), {})


# --------------------------------------------------- int-id membership gate


def test_id_membership_contains_and_claim(ray_session):
    from upton_ray.seen import IdMembership

    m = IdMembership(num_shards=3)
    # distributed-style ingest: several add calls, overlapping ids
    m.add(np.arange(0, 1000, dtype=np.int64))
    m.add(np.arange(500, 1500, dtype=np.int64))
    assert m.finalize() == 1500

    q = np.array([0, 499, 500, 1499, 1500, -1, 10**9], dtype=np.int64)
    assert m.contains(q).tolist() == [True, True, True, True,
                                      False, False, False]
    # first claim wins; second claim of the same id is False; non-members
    # are never claimable
    first = m.claim(np.array([5, 5, 1500, 7], dtype=np.int64))
    assert first.tolist() == [True, False, False, True]
    again = m.claim(np.array([5, 7, 8], dtype=np.int64))
    assert again.tolist() == [False, False, True]
    # empty query round-trips
    assert m.contains(np.array([], dtype=np.int64)).tolist() == []
    assert m.size() == 1500
    m.kill()


def test_id_membership_claim_is_exactly_once_across_batches(ray_session):
    """Concurrent-expansion semantics: over many claim calls every member id
    is claimed exactly once in total (the BFS dedup invariant)."""
    from upton_ray.seen import IdMembership

    m = IdMembership(num_shards=2)
    m.add(np.arange(2000, dtype=np.int64))
    m.finalize()
    rng = np.random.default_rng(7)
    total = 0
    for _ in range(20):
        total += int(m.claim(rng.integers(0, 2500, size=400)).sum())
    # every id in [0, 2000) that appeared at least once is claimed once;
    # ids >= 2000 never — so total is the count of distinct sampled members
    assert total <= 2000
    assert m.claim(np.arange(2000, dtype=np.int64)).sum() == 2000 - total
    m.kill()
