"""Real image codecs + real-bytes media stages (round 5).

Closes VERDICT r4 "What's wrong" #2: the media family's decoders were
deterministic fakes behind an injection seam.  upton_ray/mediadec.py now
implements PNG (all five scanline filters) / BMP / netpbm from their
public specs, and these tests pin:

* exact encode->decode round trips for every format/shape/filter;
* DCT-phash container invariance (same pixels -> same 63-bit hash from
  PNG, BMP and PPM bytes) and non-collision for distinct images;
* the actor-pool stages over REAL bytes matching their DuckDB oracles
  (the same check the driver gate runs at sf0.01).
"""

import duckdb
import numpy as np
import pandas as pd
import pytest

from upton_ray import mediadec as md

SF = "/root/testdata/sf0.001"


@pytest.mark.parametrize("shape", [(1, 1), (7, 5), (16, 16, 3),
                                   (9, 13, 4), (33, 2, 3), (2, 47),
                                   (24, 32, 2)])
@pytest.mark.parametrize("filter_type", [0, 1, 2, 3, 4])
def test_png_roundtrip_every_filter(shape, filter_type):
    rng = np.random.RandomState(hash((shape, filter_type)) % 2 ** 31)
    img = rng.randint(0, 256, shape).astype(np.uint8)
    got = md.decode_png(md.encode_png(img, filter_type=filter_type))
    want = img if img.ndim == 3 else img[:, :, None]
    assert got.shape == want.shape
    assert (got == want).all()


def test_png_mixed_filters_one_stream():
    """A PNG whose rows use DIFFERENT filters (spec-legal; encoders do
    this) — splice per-row encodings through one zlib stream."""
    import struct
    import zlib
    rng = np.random.RandomState(3)
    img = rng.randint(0, 256, (5, 9, 3)).astype(np.uint8)
    # encode each row with filter = row index (0..4), rebuild the stream
    raw = img.astype(np.int16)
    lines = b""
    prev = np.zeros((9, 3), np.int16)
    for y in range(5):
        cur = raw[y]
        left = np.zeros_like(cur)
        left[1:] = cur[:-1]
        up = prev
        ul = np.zeros_like(cur)
        ul[1:] = prev[:-1]
        ft = y
        if ft == 0:
            filt = cur
        elif ft == 1:
            filt = cur - left
        elif ft == 2:
            filt = cur - up
        elif ft == 3:
            filt = cur - (left + up) // 2
        else:
            p = left + up - ul
            pa_, pb, pc_ = np.abs(p - left), np.abs(p - up), np.abs(p - ul)
            pred = np.where((pa_ <= pb) & (pa_ <= pc_), left,
                            np.where(pb <= pc_, up, ul))
            filt = cur - pred
        lines += bytes([ft]) + (filt % 256).astype(np.uint8).tobytes()
        prev = cur
    ihdr = struct.pack(">IIBBBBB", 9, 5, 8, 2, 0, 0, 0)
    data = (md._PNG_SIG + md._chunk(b"IHDR", ihdr)
            + md._chunk(b"IDAT", zlib.compress(lines))
            + md._chunk(b"IEND", b""))
    assert (md.decode_png(data) == img).all()


@pytest.mark.parametrize("channels", [3, 4])
def test_bmp_roundtrip(channels):
    rng = np.random.RandomState(channels)
    img = rng.randint(0, 256, (11, 6, channels)).astype(np.uint8)
    got = md.decode_bmp(md.encode_bmp(img))
    assert (got == img).all()


def test_bmp_grey_widens_to_rgb():
    grey = np.arange(35, dtype=np.uint8).reshape(5, 7)
    got = md.decode_bmp(md.encode_bmp(grey))
    assert got.shape == (5, 7, 3)
    assert (got == grey[:, :, None]).all()


def test_ppm_roundtrip_and_comments():
    rng = np.random.RandomState(9)
    rgb = rng.randint(0, 256, (4, 6, 3)).astype(np.uint8)
    assert (md.decode_ppm(md.encode_ppm(rgb)) == rgb).all()
    grey = rng.randint(0, 256, (3, 5)).astype(np.uint8)
    assert (md.decode_ppm(md.encode_ppm(grey))[:, :, 0] == grey).all()
    # netpbm comment lines between header fields are spec-legal
    body = md.encode_ppm(grey)
    hacked = body.replace(b"P5\n", b"P5\n# a comment\n", 1)
    assert (md.decode_ppm(hacked)[:, :, 0] == grey).all()


def test_decode_image_sniffs_and_rejects():
    img = np.full((3, 3), 7, np.uint8)
    for enc in (md.encode_png, md.encode_bmp, md.encode_ppm):
        dec = md.decode_image(enc(img))
        assert (md.to_grey(dec) == 7).all()
    with pytest.raises(ValueError):
        md.decode_image(b"GIF89a....")
    with pytest.raises(ValueError):
        md.decode_image(b"\x89PNG\r\n\x1a\n" + b"\x00" * 4)


def test_phash_container_invariant_and_distinct():
    rng = np.random.RandomState(0)
    img = rng.randint(0, 256, (40, 56, 3)).astype(np.uint8)
    hashes = {md.phash64(md.decode_image(enc(img)))
              for enc in (md.encode_png, md.encode_ppm)}
    assert len(hashes) == 1
    # BMP widens grey->RGB but equal channels give the same luma: grey
    # pixel content hashes identically across ALL three containers
    grey = rng.randint(0, 256, (24, 32)).astype(np.uint8)
    hs = {md.phash64(md.decode_image(enc(grey)))
          for enc in (md.encode_png, md.encode_bmp, md.encode_ppm)}
    assert len(hs) == 1
    # distinct content: far apart in hamming space
    other = rng.randint(0, 256, (40, 56, 3)).astype(np.uint8)
    d = bin(md.phash64(img) ^ md.phash64(other)).count("1")
    assert d >= 10, d
    # stability: a 1-pixel LSB change must not move the hash far
    pert = img.copy()
    pert[0, 0, 0] ^= 1
    assert bin(md.phash64(img) ^ md.phash64(pert)).count("1") <= 4


def test_phash_resample_sizes():
    """Images smaller and larger than the 32x32 DCT grid both hash."""
    rng = np.random.RandomState(5)
    for shape in [(8, 8), (100, 130, 3), (31, 33), (200, 10)]:
        img = rng.randint(0, 256, shape).astype(np.uint8)
        h = md.phash64(img)
        assert 0 <= h < 2 ** 63
        assert md.phash64(img) == h           # deterministic


def test_media_bytes_decoder_error_row(ray_session):
    """Undecodable payloads yield the -1 row (M8's error->empty-page
    analog), never an exception out of the stage."""
    import pyarrow as pa

    from upton_ray.datapipe import MediaBytesDecoder

    dec = MediaBytesDecoder()
    batch = pa.table({
        "doc_id": pa.array([1, 2], pa.int64()),
        "media_bytes": pa.array(
            [md.encode_png(np.full((2, 2), 9, np.uint8)), b"garbage"],
            pa.binary())})
    out = dec(batch)
    assert out["width"].to_pylist() == [2, -1]
    assert out["pixel_sum"].to_pylist() == [36, 0]


def _oracle(sql: str) -> pd.DataFrame:
    con = duckdb.connect()
    con.sql("CREATE VIEW documents AS SELECT * FROM "
            f"read_parquet('{SF}/documents.parquet')")
    return con.sql(sql).df()


def test_media_decode_real_matches_oracle(ray_session):
    import __ray_entry__ as entry

    got = entry.queries()["media_decode_real"](SF).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    want = _oracle(entry.oracle_sql()["media_decode_real"]) \
        .sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(got[want.columns], want,
                                  check_dtype=False)


def test_media_phash_real_recovers_planted_groups(ray_session):
    import __ray_entry__ as entry

    got = entry.queries()["media_phash_real"](SF).to_pandas() \
        .sort_values("rep_doc_id").reset_index(drop=True)
    want = _oracle(entry.oracle_sql()["media_phash_real"]) \
        .sort_values("rep_doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(got[want.columns], want,
                                  check_dtype=False)


# ----------------------------------------------------------------- JPEG


def _grad(h, w, rgb=True):
    yy, xx = np.mgrid[0:h, 0:w]
    if not rgb:
        return ((yy * 3 + xx * 2) % 256).astype(np.uint8)
    return np.clip(np.stack([yy * 2 + 10, xx * 2 + 30, yy + xx], 2),
                   0, 255).astype(np.uint8)


@pytest.mark.parametrize("shape,sub", [
    ((24, 32), False),        # block-aligned 4:4:4
    ((37, 53), False),        # odd size -> edge padding
    ((37, 53), True),         # 4:2:0 -> general MCU + upsample path
    ((8, 8), False), ((1, 1), False),
])
def test_jpeg_roundtrip_rgb(shape, sub):
    img = _grad(*shape)
    out = md.decode_jpeg(md.encode_jpeg(img, quality=90, subsample=sub))
    assert out.shape == img.shape
    err = np.abs(out.astype(int) - img.astype(int))
    assert err.max() <= 8 and err.mean() < 2.0    # q90 quantization bound


def test_jpeg_roundtrip_grey():
    img = _grad(30, 41, rgb=False)
    out = md.decode_jpeg(md.encode_jpeg(img, quality=95))
    assert out.shape == (30, 41, 1)
    assert np.abs(out[:, :, 0].astype(int) - img.astype(int)).max() <= 4


@pytest.mark.parametrize("sub", [False, True])
def test_jpeg_restart_markers_pixel_equal(sub):
    """DRI/RSTn segmentation changes the BYTES but must not change one
    decoded pixel (predictor reset only) — the media_jpeg_real group law
    rests on this."""
    img = _grad(33, 47)
    plain = md.encode_jpeg(img, quality=90, subsample=sub)
    rst = md.encode_jpeg(img, quality=90, subsample=sub,
                         restart_interval=2)
    assert plain != rst
    assert (md.decode_jpeg(plain) == md.decode_jpeg(rst)).all()


def test_jpeg_dispatch_and_rejects():
    img = _grad(16, 16)
    data = md.encode_jpeg(img)
    assert md.decode_image(data).shape == (16, 16, 3)
    with pytest.raises(ValueError):
        md.decode_jpeg(b"\x89PNG not a jpeg")
    # progressive (SOF2) refuses with a clear message, never wrong pixels
    sof0 = data.find(b"\xFF\xC0")
    prog = data[:sof0] + b"\xFF\xC2" + data[sof0 + 2:]
    with pytest.raises(ValueError, match="non-baseline"):
        md.decode_jpeg(prog)


def test_jpeg_stuffed_bytes_roundtrip():
    """A high-entropy image forces 0xFF bytes in the entropy stream
    (stuffing path on both sides)."""
    rng = np.random.RandomState(11)
    img = rng.randint(0, 256, (40, 40, 3)).astype(np.uint8)
    data = md.encode_jpeg(img, quality=95)
    assert b"\xff\x00" in data    # stuffing actually exercised
    out = md.decode_jpeg(data)
    err = np.abs(out.astype(int) - img.astype(int))
    assert err.mean() < 16        # noise at q95: bounded quantization loss


def test_media_jpeg_real_recovers_planted_groups(ray_session):
    from upton_ray import datapipe

    got = datapipe.media_jpeg_real(SF).to_pandas()
    exp = _oracle("""
        SELECT CAST(min(doc_id) AS BIGINT) AS rep_doc_id,
               CAST(count(*) AS BIGINT) AS n_docs
        FROM documents GROUP BY doc_id // 10 HAVING count(*) >= 2
        ORDER BY rep_doc_id""")
    assert got.reset_index(drop=True).equals(exp.reset_index(drop=True))


def test_jpeg_malformed_streams_raise_valueerror():
    """Truncation/fill-byte edge cases fail CLOSED with ValueError, never
    NameError/IndexError (code-review findings, round-5 continuation)."""
    img = _grad(24, 32)
    data = md.encode_jpeg(img, quality=90, restart_interval=2)
    # fill 0xFF bytes before a marker are spec-legal padding
    assert (md.decode_jpeg(data[:2] + b"\xFF\xFF\xFF" + data[2:])
            == md.decode_jpeg(data)).all()
    # SOF0 present but EOI before any SOS
    sos = data.find(b"\xFF\xDA")
    with pytest.raises(ValueError, match="no SOS"):
        md.decode_jpeg(data[:sos] + b"\xFF\xD9")
    # entropy stream truncated at the first restart marker
    rst = data.find(b"\xFF\xD0")
    with pytest.raises(ValueError, match="truncated"):
        md.decode_jpeg(data[:rst] + b"\xFF\xD9")
    # a scan naming an undefined quant table (corrupted SOF0 quant id)
    sof = data.find(b"\xFF\xC0")
    bad = bytearray(data)
    bad[sof + 12] = 3
    with pytest.raises(ValueError, match="quant table"):
        md.decode_jpeg(bytes(bad))
    # a scan naming an undefined Huffman table (SOS selects DC/AC table 3)
    bad = bytearray(data)
    bad[sos + 6] = 0x33
    with pytest.raises(ValueError, match="Huffman table"):
        md.decode_jpeg(bytes(bad))
    # a segment length below 2 fails closed instead of looping
    dht = data.find(b"\xFF\xC4")
    for ln in (0, 1):
        bad = bytearray(data)
        bad[dht + 2:dht + 4] = ln.to_bytes(2, "big")
        with pytest.raises(ValueError, match="marker expected"):
            md.decode_jpeg(bytes(bad))


def test_media_resize_real_band_law(ray_session):
    """Real PNG decode + real area-mean 4x4 resize recovers the planted
    two-band sums; a nearest-sample or wrong-grid resize would not."""
    from upton_ray import datapipe

    got = datapipe.media_resize_real(SF).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    exp = _oracle("""
        SELECT doc_id, CAST(8*(doc_id % 200) + 8*((doc_id % 200) + 55)
               AS BIGINT) AS resized_sum
        FROM documents ORDER BY doc_id""")
    assert got.equals(exp)


def test_media_bytes_resizer_error_row():
    from upton_ray.datapipe import MediaBytesResizer
    import pyarrow as pa

    r = MediaBytesResizer()
    out = r(pa.table({"doc_id": pa.array([7], type=pa.int64()),
                      "media_bytes": pa.array([b"not an image"],
                                              pa.binary())}))
    assert out["resized_sum"].to_pylist() == [-1]


# ------------------------------------------------------------- MJPEG-AVI


def test_avi_roundtrip_and_rejects():
    frames = [md.encode_jpeg(np.full((16, 16), c, np.uint8), quality=90)
              for c in (10, 99, 180)]
    avi = md.encode_avi_mjpeg(frames, 16, 16)
    assert md.decode_avi_frames(avi) == frames
    # odd-length frame payloads exercise word padding
    odd = [f + b"x" if len(f) % 2 == 0 else f for f in frames]
    assert md.decode_avi_frames(md.encode_avi_mjpeg(odd, 16, 16)) == odd
    with pytest.raises(ValueError, match="not an AVI"):
        md.decode_avi_frames(b"RIFF\x04\x00\x00\x00WAVE")
    # a chunk overrunning its parent fails closed
    bad = bytearray(avi)
    movi = avi.find(b"00dc")
    bad[movi + 4:movi + 8] = (2 ** 31).to_bytes(4, "little")
    with pytest.raises(ValueError, match="overruns"):
        md.decode_avi_frames(bytes(bad))


def test_frame_sample_real_planted_law(ray_session):
    from upton_ray import datapipe

    got = datapipe.frame_sample_real(SF).to_pandas() \
        .sort_values(["doc_id", "frame_no"]).reset_index(drop=True)
    exp = _oracle("""
        WITH f AS (SELECT doc_id,
                          unnest(generate_series(0, 3 + doc_id % 5, 3)) AS j
                   FROM documents)
        SELECT doc_id, CAST(j AS BIGINT) AS frame_no,
               CAST(256 * ((doc_id*7 + j*31) % 200) AS BIGINT) AS pixel_sum
        FROM f ORDER BY doc_id, frame_no""")
    assert got.equals(exp)


def test_avi_sampler_error_row():
    from upton_ray.datapipe import AviFrameSampler
    import pyarrow as pa

    out = AviFrameSampler()(pa.table({
        "doc_id": pa.array([3], pa.int64()),
        "media_bytes": pa.array([b"garbage"], pa.binary())}))
    assert out.to_pylist() == [{"doc_id": 3, "frame_no": -1,
                                "pixel_sum": -1}]


def test_review2_fail_closed_paths(ray_session, tmp_path):
    """Second review pass regressions: deep LIST nesting, SOS-before-SOF0,
    unknown SOS component, trailing fill bytes — all ValueError; a clip
    failing MID-decode emits only the single null row."""
    import struct as _s

    img = _grad(16, 16)
    data = md.encode_jpeg(img)
    # deep nesting -> ValueError, not RecursionError
    deep = b""
    for _ in range(3000):
        deep = b"LIST" + _s.pack("<I", len(deep) + 4) + b"movi" + deep
    avi = b"RIFF" + _s.pack("<I", len(deep) + 4) + b"AVI " + deep
    with pytest.raises(ValueError, match="nesting too deep"):
        md.decode_avi_frames(avi)
    # SOS before SOF0
    sof = data.find(b"\xFF\xC0")
    (ln,) = _s.unpack(">H", data[sof + 2:sof + 4])
    no_sof = data[:sof] + data[sof + 2 + ln:]
    with pytest.raises(ValueError, match="SOS before SOF0|no SOF0"):
        md.decode_jpeg(no_sof)
    # unknown component id in SOS
    sos = data.find(b"\xFF\xDA")
    bad = bytearray(data)
    bad[sos + 5] = 9            # first scan component id
    with pytest.raises(ValueError, match="unknown"):
        md.decode_jpeg(bytes(bad))
    # trailing fill 0xFF truncation
    with pytest.raises(ValueError, match="truncated"):
        md.decode_jpeg(b"\xFF\xD8\xFF")
    # mid-decode frame failure -> single null row, no partial rows
    from upton_ray.datapipe import AviFrameSampler
    import pyarrow as pa
    f0 = md.encode_jpeg(np.full((16, 16), 7, np.uint8))
    broken = md.encode_avi_mjpeg([f0, f0[:40]], 16, 16)
    out = AviFrameSampler(every=1)(pa.table({
        "doc_id": pa.array([5], pa.int64()),
        "media_bytes": pa.array([broken], pa.binary())}))
    assert out.to_pylist() == [{"doc_id": 5, "frame_no": -1,
                                "pixel_sum": -1}]


def test_incremental_profile_empty_dir(ray_session, tmp_path):
    from upton_ray import datapipe

    (tmp_path / "documents.parquet").mkdir()
    out = datapipe.incremental_profile(
        str(tmp_path), cache_dir=str(tmp_path / "c")).to_pylist()
    assert [r["n"] for r in out] == [0, 0, 0]
    assert all(r["min_s"] is None for r in out)
