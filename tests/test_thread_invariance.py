"""Trained model bytes must not depend on the BLAS thread count.

The same training run is repeated in fresh processes with
``OPENBLAS_NUM_THREADS=OMP_NUM_THREADS`` set to 1 and to 2, and the saved
``.rkm`` files must be byte-equal.  A BLAS library may split a product with a
long inner dimension differently at each thread count, which rounds
differently, and may split the columns of a product by thread, which can
change the kernel that computes some of them; every product over the batch
runs over fixed column blocks, and this is the test that the bytes hold.
900 training shots at batch 256 leave a partial last batch of 132; batch 900
covers one large batch.  On 1500 shots, batch 1100 leaves a last batch of
400 and batch 1500 is one batch of six column blocks.

The stock lstm pipelines train in float32; one more case trains an
``LstmNetwork`` through ``train`` on float64 input, so both compute dtypes
are covered.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

_PROBE = """
import hashlib, sys, tempfile
from pathlib import Path
import readoutkit as rk

name, batch_size, per_state = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
shots = rk.generate_dataset(rk.SimConfig(seed=7), shots_per_state=per_state).shots
desc = dict(rk.standard_pipelines()[name])
desc["train"] = {"epochs": 2, "batch_size": batch_size, "learning_rate": 1e-3, "seed": 0}
fitted = rk.train_pipeline(shots, desc)
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "m.rkm"
    fitted.save(path)
    print(hashlib.sha256(path.read_bytes()).hexdigest())
"""


_FLOAT64_PROBE = """
import hashlib, sys, tempfile
from pathlib import Path
import numpy as np
import readoutkit as rk

batch_size, per_state = int(sys.argv[1]), int(sys.argv[2])
shots = rk.generate_dataset(rk.SimConfig(seed=7), shots_per_state=per_state).shots
desc = rk.standard_pipelines()["lstm"]
arr = rk.preprocess_batch(shots, desc["stages"])
X = np.asarray(arr, dtype=np.float64)
labels = np.array([s.label for s in shots])
model = rk.LstmNetwork(input_dim=X.shape[-1], hidden=(16,), output_dim=3, seed=0)
config = rk.TrainConfig(epochs=2, batch_size=batch_size, learning_rate=1e-3, seed=0)
rk.train(model, X, labels, config=config)
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "m.rkm"
    rk.save_model(model, path)
    print(hashlib.sha256(path.read_bytes()).hexdigest())
"""


def _digest(probe: str, args: list[str], threads: str) -> str:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", probe, *args],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=600,
    )
    return out.stdout.strip()


@pytest.mark.parametrize(
    "batch_size, per_state",
    [pytest.param(b, n, id=str(b)) for b, n in [(256, 300), (900, 300), (1100, 500), (1500, 500)]],
)
@pytest.mark.parametrize("name", ["lstm", "bandpass_lstm", "signature_dense"])
def test_trained_bytes_do_not_depend_on_thread_count(name, batch_size, per_state):
    args = [name, str(batch_size), str(per_state)]
    one, two = (_digest(_PROBE, args, t) for t in ("1", "2"))
    assert len(one) == len(hashlib.sha256().hexdigest())
    assert one == two


def test_float64_lstm_bytes_do_not_depend_on_thread_count():
    # 1500 shots at batch 1100: five column blocks, then a last batch of 400
    one, two = (_digest(_FLOAT64_PROBE, ["1100", "500"], t) for t in ("1", "2"))
    assert len(one) == len(hashlib.sha256().hexdigest())
    assert one == two
