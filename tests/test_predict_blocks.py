"""Prediction runs the networks over fixed blocks of shots.

``predict_logits`` splits its input into views of at most ``BATCH_BLOCK``
shots along axis 0 and takes each block's logits from
the network's ``_block_logits``.  The lstm's runs the same step loop as
``forward`` in its prediction layout: one gate, cell and tanh(cell) buffer
reused at every step instead of the training caches, so prediction holds
one block's operand buffer at a time, not the whole set's caches.  Each of
the lstm's views is one of the column blocks its products run over anyway,
so its logits are the bytes of one forward over all the shots at any shot
count.  The dense network's forward is one product over the batch; a
shorter last block may take another BLAS edge kernel and round
differently, so its logits agree to a relative 1e-12.  A set of at most
one block runs one block's logits, and more shots write each block's
logits into one preallocated array.
"""

import tracemalloc

import numpy as np
import pytest

from readoutkit import DenseNetwork, LstmNetwork
from readoutkit.nn.loss import BATCH_BLOCK


def _inputs(T, N, seed=0):
    return np.random.default_rng(seed).normal(size=(T, N, 2)).transpose(1, 0, 2)


def _relative(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


@pytest.mark.parametrize("hidden", [(16,), (16, 8)], ids=["h16", "h16-8"])
@pytest.mark.parametrize("N, T", [(3000, 50), (15000, 5)])
def test_block_logits_are_the_bytes_of_one_forward(hidden, N, T):
    # the step count does not change which kernel a product takes, so the
    # 15000-shot case keeps the whole-set forward small with a short input
    model = LstmNetwork(input_dim=2, hidden=hidden, seed=3)
    x = _inputs(T, N)
    whole, _ = model.forward(x)
    assert model.predict_logits(x).tobytes() == whole.tobytes()


@pytest.mark.parametrize("N", [1, BATCH_BLOCK + 1, 1300, 3001])
def test_block_logits_agree_with_one_forward(N):
    model = LstmNetwork(input_dim=2, hidden=(16,), seed=4)
    x = _inputs(20, N, seed=N)
    whole, _ = model.forward(x)
    assert model.predict_logits(x).tobytes() == whole.tobytes()
    assert np.array_equal(model.predict(x), np.argmax(whole, axis=1))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("hidden", [1, 16, 257, 1024])
def test_one_column_dot_is_the_bytes_of_matmul(hidden, dtype):
    # a one-shot forward takes each step's gate product by np.dot, any
    # wider one by np.matmul; a single shot's logits keep their bytes only
    # while the two agree on one column at every width a model can have
    rng = np.random.default_rng(hidden)
    W = rng.normal(size=(4 * hidden, hidden + 65)).astype(dtype)
    v = rng.normal(size=(hidden + 65, 1)).astype(dtype)
    for d in range(1, 65):
        WT = np.ascontiguousarray(W[:, : hidden + d + 1])
        op = np.ascontiguousarray(v[: hidden + d + 1])
        assert np.dot(WT, op).tobytes() == np.matmul(WT, op).tobytes(), d


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("hidden", [(16,), (8, 4)], ids=["h16", "h8-4"])
@pytest.mark.parametrize("N", [1, 2, 3, 7, BATCH_BLOCK, BATCH_BLOCK + 1, 600])
def test_prediction_layout_is_the_bytes_of_forward(N, hidden, dtype):
    # one step loop, two buffer layouts: the prediction layout reuses one
    # gate, cell and tanh(cell) buffer per step, updating the cell in place
    model = LstmNetwork(input_dim=3, hidden=hidden, seed=N)
    x = np.random.default_rng(N).normal(size=(11, N, 3)).astype(dtype).transpose(1, 0, 2)
    whole, _ = model.forward(x)
    assert model._block_logits(x).tobytes() == whole.tobytes()
    # prediction computes in the input's dtype and widens its logits
    assert model.predict_logits(x).tobytes() == whole.astype(np.float64).tobytes()


def test_dense_blocks_agree_with_one_forward(rng):
    model = DenseNetwork(input_dim=6, seed=2)
    x = rng.normal(size=(1300, 6))
    whole, _ = model.forward(x)
    assert _relative(model.predict_logits(x), whole) < 1e-12


def test_prediction_memory_does_not_grow_with_the_shots():
    # one forward over 3000 shots of 50 steps keeps about 135 MB of caches,
    # and one 256-shot block's training caches about 12 MiB; the prediction
    # layout holds one block's operand buffer, about 2 MiB
    model = LstmNetwork(input_dim=2, hidden=(16,), seed=5)
    x = _inputs(50, 3000)
    tracemalloc.start()
    try:
        model.predict_proba(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, f"peak {peak / 2**20:.1f} MiB"
