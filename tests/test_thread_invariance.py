"""Trained model bytes must not depend on the BLAS thread count.

The same training run is repeated in fresh processes with
``OPENBLAS_NUM_THREADS=OMP_NUM_THREADS`` set to 1 and to 2, and the saved
``.rkm`` files must be byte-equal.  A BLAS library may split a product with a
long inner dimension differently at each thread count, which rounds
differently; the weight gradients avoid such products, and this is the test
that they do.  900 training shots at batch 256 leave a partial last batch of
132; batch 900 covers one large batch.
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

name, batch_size = sys.argv[1], int(sys.argv[2])
shots = rk.generate_dataset(rk.SimConfig(seed=7), shots_per_state=300).shots
desc = dict(rk.standard_pipelines()[name])
desc["train"] = {"epochs": 2, "batch_size": batch_size, "learning_rate": 1e-3, "seed": 0}
fitted = rk.train_pipeline(shots, desc)
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "m.rkm"
    fitted.save(path)
    print(hashlib.sha256(path.read_bytes()).hexdigest())
"""


def _trained_digest(name: str, batch_size: int, threads: str) -> str:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", _PROBE, name, str(batch_size)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return out.stdout.strip()


@pytest.mark.parametrize("batch_size", [256, 900])
@pytest.mark.parametrize("name", ["lstm", "bandpass_lstm", "signature_dense"])
def test_trained_bytes_do_not_depend_on_thread_count(name, batch_size):
    one, two = (_trained_digest(name, batch_size, threads) for threads in ("1", "2"))
    assert len(one) == len(hashlib.sha256().hexdigest())
    assert one == two
