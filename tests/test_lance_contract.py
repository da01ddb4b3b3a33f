"""LanceWebStore executed under the API-contract shim (tests/shims/lance.py).

The real ``lance`` package is absent in this sandbox, so these tests run the
lance BRANCH of the store code against a shim whose ``dataset().to_table``
surface matches the real package — proving our call pattern (constructor,
pyarrow filter expression, column pruning, inherited bucket-pool/LRU) and a
full crawl-gate equality, while the storage-format claim stays honestly
gated behind tests/test_sinks_lance.py's importorskip.  If the real package
IS present, these tests exercise it instead (the shim only fills the gap).
"""

import copy
import subprocess
import sys
import textwrap

import pyarrow as pa
import pytest

SHIM_DIR = "tests/shims"


@pytest.fixture()
def lance_shimmed(monkeypatch):
    try:
        import lance  # noqa: F401  (real package present: no shim needed)
        yield False
        return
    except ImportError:
        pass
    monkeypatch.syspath_prepend(SHIM_DIR)
    import importlib

    mod = importlib.import_module("lance")
    assert getattr(mod, "IS_CONTRACT_SHIM", False)
    yield True
    sys.modules.pop("lance", None)


def _write_corpus(fixture_web, path):
    import ray.data

    from upton_ray import schema, sinks

    t = pa.table({
        "doc_id": pa.array(list(fixture_web.keys()), pa.string()),
        "spans": schema.spans_array(list(fixture_web.values())),
    })
    sinks.write_web(ray.data.from_arrow(t), path, num_buckets=4)


def test_lance_store_matches_parquet_store(ray_session, fixture_web,
                                           tmp_path, lance_shimmed):
    """Driver-side store equivalence: every fixture URL (and a miss) looks
    up identically through LanceWebStore and ParquetWebStore."""
    from upton_ray.fetch import make_store

    path = str(tmp_path / "corpus")
    _write_corpus(fixture_web, path)
    lstore = make_store(("lance", path, 4))
    pstore = make_store(("parquet", path, 4))

    urls = list(fixture_web.keys()) + ["http://nowhere.example/missing"]
    lt, pt = lstore.lookup_table(urls), pstore.lookup_table(urls)
    assert lt.equals(pt)
    for u in urls[:3] + urls[-1:]:
        assert lstore.lookup_one(u) == pstore.lookup_one(u)
        assert lstore.page_len(u) == pstore.page_len(u)
    # the LRU actually engaged (bucket pools were built and cached)
    assert len(lstore._cache) > 0


def test_crawl_gate_through_lance_store(fixture_web, tmp_path):
    """A full conformance crawl routed through LanceWebStore: run in a
    subprocess with PYTHONPATH pointing at the shim so Ray WORKERS can
    import ``lance`` too (a sys.modules patch would only shim the driver).
    The crawl must equal the sequential oracle exactly — same documents,
    same URL-seen set."""
    import os

    path = str(tmp_path / "corpus")
    # write the corpus in-process (parquet layout; the shim reads it)
    _write_corpus(fixture_web, path)

    prog = textwrap.dedent(f"""
        import copy, sys
        sys.path.insert(0, {repr(os.getcwd())})
        import ray
        ray.init(address="local", num_cpus=4, include_dashboard=False,
                 logging_level="ERROR")
        import lance
        assert getattr(lance, "IS_CONTRACT_SHIM", False) or True
        from upton_ray.engine import Crawler
        from upton_ray.oracle import UptonOracle
        from upton_ray.scenarios import scenario_configs
        from upton_ray.synth import fixture_web as fw
        web = fw()
        cfg = scenario_configs()["basic"]
        oracle = UptonOracle(copy.deepcopy(cfg), web).scrape()
        res = Crawler(cfg, ("lance", {repr(path)}, 4)).crawl()
        assert res.documents() == oracle.documents, "documents differ"
        from tests.conftest import crawl_seen
        assert crawl_seen(res) == oracle.seen, "URL-seen set differs"
        ray.shutdown()
        print("LANCE_GATE_OK")
    """)
    env = dict(os.environ)
    shim_abs = os.path.abspath(SHIM_DIR)
    env["PYTHONPATH"] = shim_abs + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("RAY_ADDRESS", None)
    out = subprocess.run([sys.executable, "-c", prog], env=env,
                         capture_output=True, text=True, timeout=300)
    assert "LANCE_GATE_OK" in out.stdout, out.stderr[-2000:]
