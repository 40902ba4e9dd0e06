import json

import numpy as np
import pytest

from readoutkit import (
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


def test_sidecar_contains_config_and_hash(tmp_path, quiet_dataset):
    path = tmp_path / "shots.rkd"
    save_dataset(quiet_dataset, path)
    meta = json.loads(sidecar_path(path).read_text())
    assert meta["shot_count"] == len(quiet_dataset)
    assert meta["config"] == quiet_dataset.config.to_dict()
    assert meta["config_sha256"] == config_hash(quiet_dataset.config.to_dict())


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


def test_csv_export(tmp_path, quiet_dataset):
    path = tmp_path / "shots.csv"
    n = export_csv(quiet_dataset, path, max_shots=5)
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


@pytest.mark.parametrize(
    "content",
    [b'{"config": ', b"\xff\xfe", b"[1, 2]", b'"config"', b'{"config": {"seed": 1, "bogus": 2}}'],
)
def test_load_rejects_bad_sidecar(tmp_path, quiet_dataset, content):
    path = tmp_path / "shots.rkd"
    save_dataset(quiet_dataset, path)
    sidecar_path(path).write_bytes(content)
    with pytest.raises(FileFormatError, match="dataset sidecar"):
        load_dataset(path)
