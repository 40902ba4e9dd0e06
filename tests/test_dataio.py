import dataclasses
import json
import struct
import tracemalloc

import numpy as np
import pytest

from readoutkit import (
    RawShot,
    SimConfig,
    canonical_json,
    config_hash,
    export_csv,
    generate_dataset,
    load_dataset,
    save_dataset,
)
from readoutkit.dataio import DATASET_MAGIC, sidecar_path
from readoutkit.errors import DataError, FileFormatError
from readoutkit.sim import Dataset


def _v1_oracle_bytes(shots):
    """The v1 file body written field by field with ``struct``: the format
    reference for the record-dtype writer."""
    n, rate = len(shots[0].samples), shots[0].sample_rate
    out = [struct.pack("<12sI", DATASET_MAGIC, 1), struct.pack("<QId", len(shots), n, rate)]
    for s in shots:
        out.append(struct.pack("<BB", s.label, 1 if s.herald_pass else 0))
        out.append(np.asarray(s.samples, dtype="<f4").tobytes())
    return b"".join(out)


def _v1_oracle_read(raw):
    """(labels, herald flags, samples) of a v1 file, read field by field."""
    count, n, _ = struct.unpack_from("<QId", raw, 16)
    labels, heralds, samples = [], [], []
    for i in range(count):
        base = 36 + i * (2 + 4 * n)
        label, herald = struct.unpack_from("<BB", raw, base)
        labels.append(label)
        heralds.append(bool(herald))
        samples.append(np.frombuffer(raw, dtype="<f4", count=n, offset=base + 2))
    return labels, heralds, samples


def _mixed_shots(count, n, seed=5, dtype=np.float32):
    rng = np.random.default_rng(seed)
    return [
        RawShot(
            samples=rng.normal(size=n).astype(dtype),
            label=int(rng.integers(0, 3)),
            herald_pass=bool(rng.random() < 0.7),
            true_path=None,
            shot_id=k,
            sample_rate=2.0,
        )
        for k in range(count)
    ]


def test_canonical_json_sorted_and_compact():
    s = canonical_json({"b": 1, "a": [1, 2]})
    assert s == '{"a":[1,2],"b":1}'


def test_config_hash_stable_under_key_order():
    assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})
    assert config_hash({"a": 1}) != config_hash({"a": 2})


def test_dataset_roundtrip(tmp_path, quiet_dataset):
    path = tmp_path / "shots.rkd"
    save_dataset(quiet_dataset, path)
    loaded = load_dataset(path)
    assert len(loaded) == len(quiet_dataset)
    assert loaded.config == quiet_dataset.config
    for a, b in zip(quiet_dataset.shots, loaded.shots):
        assert a.label == b.label
        assert a.herald_pass == b.herald_pass
        assert b.samples.dtype == np.float32
        assert np.array_equal(a.samples, b.samples)
        assert b.sample_rate == a.sample_rate


def test_saved_bytes_are_deterministic(tmp_path, quiet_dataset):
    p1 = tmp_path / "a.rkd"
    p2 = tmp_path / "b.rkd"
    save_dataset(quiet_dataset, p1)
    save_dataset(quiet_dataset, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert sidecar_path(p1).read_text() == sidecar_path(p2).read_text()


def test_file_layout_magic_and_header(tmp_path, quiet_dataset):
    path = tmp_path / "shots.rkd"
    save_dataset(quiet_dataset, path)
    raw = path.read_bytes()
    assert raw[:12] == DATASET_MAGIC
    assert len(DATASET_MAGIC) == 12
    n_samples = len(quiet_dataset.shots[0].samples)
    expected = 16 + 20 + len(quiet_dataset) * (2 + 4 * n_samples)
    assert len(raw) == expected


@pytest.mark.parametrize(
    "count,n,dtype",
    [(1, 5, np.float32), (511, 3, np.float32), (512, 3, np.float32), (1100, 7, np.float32),
     (600, 4, np.float64), (3, 0, np.float32)],
)
def test_saved_bytes_match_v1_oracle(tmp_path, count, n, dtype):
    shots = _mixed_shots(count, n, dtype=dtype)
    path = tmp_path / "shots.rkd"
    save_dataset(Dataset(shots=shots), path)
    assert path.read_bytes() == _v1_oracle_bytes(shots)


def test_saved_bytes_match_v1_oracle_for_generated_data(tmp_path, quiet_dataset):
    path = tmp_path / "shots.rkd"
    save_dataset(quiet_dataset, path)
    assert path.read_bytes() == _v1_oracle_bytes(quiet_dataset.shots)


@pytest.mark.parametrize("count,n", [(1, 5), (1100, 7), (3, 0)])
def test_load_reads_v1_oracle_files(tmp_path, count, n):
    raw = _v1_oracle_bytes(_mixed_shots(count, n))
    path = tmp_path / "shots.rkd"
    path.write_bytes(raw)
    loaded = load_dataset(path)
    labels, heralds, samples = _v1_oracle_read(raw)
    assert [s.label for s in loaded.shots] == labels
    assert [s.herald_pass for s in loaded.shots] == heralds
    assert [s.shot_id for s in loaded.shots] == list(range(count))
    for shot, want in zip(loaded.shots, samples):
        assert shot.samples.dtype == np.dtype("<f4")
        assert shot.samples.tobytes() == want.tobytes()
        assert shot.samples.flags.writeable
        assert shot.sample_rate == 2.0
    # every trace is a row of one loaded block
    block = loaded.shots[0].samples.base
    assert block is not None and all(s.samples.base is block for s in loaded.shots)


def test_load_rejects_header_with_oversized_records(tmp_path):
    path = tmp_path / "shots.rkd"
    # zero shots, so the size check passes, but no record can hold 2**31 samples
    path.write_bytes(struct.pack("<12sIQId", DATASET_MAGIC, 1, 0, 2**31, 2.0))
    with pytest.raises(FileFormatError, match="too large"):
        load_dataset(path)


def test_sidecar_contains_config_and_hash(tmp_path, quiet_dataset):
    path = tmp_path / "shots.rkd"
    save_dataset(quiet_dataset, path)
    meta = json.loads(sidecar_path(path).read_text())
    assert meta["shot_count"] == len(quiet_dataset)
    assert meta["config"] == quiet_dataset.config.to_dict()
    assert meta["config_sha256"] == config_hash(quiet_dataset.config.to_dict())


def test_config_with_numpy_scalars_saves_as_plain_values(tmp_path):
    # a config built from numpy scalars holds the Python values, so its
    # dataset saves, and the files equal those of the plain config's
    plain = SimConfig(duration=100.0, t1=(900.0, None), noise_sigma=2.0, seed=3)
    cfg = SimConfig(
        duration=np.float32(100.0),
        t1=(np.float64(900.0), None),
        noise_sigma=np.float32(2.0),
        seed=np.int64(3),
    )
    for name, config in (("numpy", cfg), ("plain", plain)):
        save_dataset(generate_dataset(config, 2), tmp_path / f"{name}.rkd")
    for suffix in (".rkd", ".rkd.json"):
        assert (tmp_path / f"numpy{suffix}").read_bytes() == (tmp_path / f"plain{suffix}").read_bytes()
    assert cfg == plain and type(cfg.seed) is int and type(cfg.duration) is float


def test_load_without_sidecar_still_works(tmp_path, quiet_dataset):
    path = tmp_path / "shots.rkd"
    save_dataset(quiet_dataset, path)
    sidecar_path(path).unlink()
    loaded = load_dataset(path)
    assert loaded.config is None
    assert len(loaded) == len(quiet_dataset)


def test_load_with_regeneration_restores_paths(tmp_path):
    cfg = SimConfig(duration=150.0, t1=(120.0, 100.0), seed=31, herald_error=0.1)
    ds = generate_dataset(cfg, shots_per_state=10)
    path = tmp_path / "shots.rkd"
    save_dataset(ds, path)
    loaded = load_dataset(path, regenerate=True)
    for orig, back in zip(ds.shots, loaded.shots):
        assert back.true_path is not None
        assert back.true_path.segments == orig.true_path.segments


def test_load_with_regeneration_restores_shot_ids(tmp_path):
    cfg = SimConfig(duration=100.0, t1=(300.0, 250.0), seed=17, herald_error=0.3)
    ds = generate_dataset(cfg, shots_per_state=20)
    ids = [s.shot_id for s in ds.shots]
    assert ids != list(range(len(ids)))  # rejected attempts leave gaps
    path = tmp_path / "shots.rkd"
    save_dataset(ds, path)
    assert [s.shot_id for s in load_dataset(path).shots] == list(range(len(ids)))
    assert [s.shot_id for s in load_dataset(path, regenerate=True).shots] == ids


@pytest.mark.parametrize(
    "edit",
    [{"seed": 12}, {"noise_sigma": 2.5}, {"phase_noise_sigma": 0.01}, {"herald_error": 0.2}],
)
def test_regeneration_rejects_sidecar_that_does_not_reproduce(tmp_path, quiet_dataset, edit):
    path = tmp_path / "shots.rkd"
    save_dataset(quiet_dataset, path)
    meta = json.loads(sidecar_path(path).read_text())
    meta["config"].update(edit)
    sidecar_path(path).write_text(json.dumps(meta))
    assert len(load_dataset(path)) == len(quiet_dataset)
    with pytest.raises(DataError, match="does not reproduce"):
        load_dataset(path, regenerate=True)


def test_regeneration_refuses_a_shot_count_the_config_does_not_give(tmp_path):
    # 89 shots read as 29 per state, which the scan gives as 87
    cfg = SimConfig(duration=20.0, seed=2)
    path = tmp_path / "shots.rkd"
    save_dataset(Dataset(shots=generate_dataset(cfg, 30).shots[:89], config=cfg), path)
    with pytest.raises(DataError, match="expected 87 shots, got 89"):
        load_dataset(path, regenerate=True)


def test_regeneration_checks_sample_count_before_rendering(tmp_path):
    # a sidecar whose config renders 4e6 samples for a 40-sample file is
    # refused before the renderer builds tables of that length
    path = tmp_path / "shots.rkd"
    save_dataset(generate_dataset(SimConfig(duration=20.0, seed=2), shots_per_state=2), path)
    meta = json.loads(sidecar_path(path).read_text())
    meta["config"]["duration"] = 2e6
    sidecar_path(path).write_text(json.dumps(meta))
    tracemalloc.start()
    try:
        with pytest.raises(DataError, match="4000000 samples"):
            load_dataset(path, regenerate=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20


def test_regeneration_rejects_edited_samples(tmp_path, quiet_dataset):
    path = tmp_path / "shots.rkd"
    save_dataset(quiet_dataset, path)
    raw = bytearray(path.read_bytes())
    shot_bytes = 2 + 4 * len(quiet_dataset.shots[0].samples)
    header = len(raw) - len(quiet_dataset) * shot_bytes
    # flip the low mantissa bit of the first sample of the first state-1 shot
    row = len(quiet_dataset) // 3
    raw[header + row * shot_bytes + 2] ^= 1
    path.write_bytes(bytes(raw))
    with pytest.raises(DataError, match="samples of row"):
        load_dataset(path, regenerate=True)


def test_regeneration_without_sidecar_raises(tmp_path, quiet_dataset):
    path = tmp_path / "shots.rkd"
    save_dataset(quiet_dataset, path)
    sidecar_path(path).unlink()
    with pytest.raises(DataError):
        load_dataset(path, regenerate=True)


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "junk.rkd"
    path.write_bytes(b"not a dataset at all, far too short or wrong")
    with pytest.raises(FileFormatError):
        load_dataset(path)
    path.write_bytes(b"x" * 10)
    with pytest.raises(FileFormatError):
        load_dataset(path)


def test_load_rejects_truncation(tmp_path, quiet_dataset):
    path = tmp_path / "shots.rkd"
    save_dataset(quiet_dataset, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-5])
    with pytest.raises(FileFormatError):
        load_dataset(path)


def test_load_missing_file_raises(tmp_path):
    with pytest.raises(FileFormatError):
        load_dataset(tmp_path / "nope.rkd")


def test_refuses_empty_dataset(tmp_path):
    from readoutkit.sim import Dataset

    with pytest.raises(DataError):
        save_dataset(Dataset(shots=[]), tmp_path / "e.rkd")


def test_load_refuses_a_file_without_shots(tmp_path):
    # well formed, with a record dtype, but what save_dataset never writes
    path = tmp_path / "e.rkd"
    path.write_bytes(struct.pack("<12sIQId", DATASET_MAGIC, 1, 0, 400, 2.0))
    with pytest.raises(DataError, match="holds no shots"):
        load_dataset(path)


def test_save_refuses_config_at_another_sample_rate(tmp_path, quiet_dataset):
    # the load would refuse the file: its header rate and config disagree
    config = dataclasses.replace(quiet_dataset.config, sample_rate=4.0)
    with pytest.raises(DataError, match="config at 4.0"):
        save_dataset(Dataset(shots=quiet_dataset.shots, config=config), tmp_path / "d.rkd")
    assert not (tmp_path / "d.rkd").exists()


def test_csv_export(tmp_path, quiet_dataset):
    path = tmp_path / "shots.csv"
    n = export_csv(Dataset(shots=quiet_dataset.shots[:5]), path)
    assert n == 5
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 6
    header = lines[0].split(",")
    n_samples = len(quiet_dataset.shots[0].samples)
    assert header[:3] == ["shot_id", "label", "herald"]
    assert len(header) == 3 + n_samples
    first = lines[1].split(",")
    assert int(first[1]) == quiet_dataset.shots[0].label
    assert float(first[3]) == float(quiet_dataset.shots[0].samples[0])


def test_csv_export_refuses_shots_of_mixed_length(tmp_path):
    # the header names one shot length, so every row must have it
    shots = _mixed_shots(1, 3) + _mixed_shots(1, 5)
    with pytest.raises(DataError, match="must share length and rate"):
        export_csv(Dataset(shots=shots), tmp_path / "mixed.csv")


@pytest.mark.parametrize(
    "content",
    [
        b'{"config": ',
        b"\xff\xfe",
        b"[1, 2]",
        b'"config"',
        b'{"config": {"seed": 1, "bogus": 2}}',
        b'{"config": {"seed": "abc"}}',
        b'{"config": {"duration": "1000"}}',
        b'{"config": {"noise_sigma": null}}',
        b'{"config": {"duration": -5}}',
    ],
)
def test_load_rejects_bad_sidecar(tmp_path, quiet_dataset, content):
    path = tmp_path / "shots.rkd"
    save_dataset(quiet_dataset, path)
    sidecar_path(path).write_bytes(content)
    with pytest.raises(FileFormatError, match="dataset sidecar"):
        load_dataset(path)
