import numpy as np
import pytest

from gigvad.model import _select
from gigvad.ops import dropout_mask


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def spaced_scores(rng, shape, gap=1e-3):
    """Random score arrays whose sorted gaps all exceed ``gap``.

    Keeps selection ops away from ties so finite differences stay valid.
    """
    n = int(np.prod(shape))
    base = np.arange(n, dtype=np.float64) * (gap * 10.0)
    return (rng.permutation(base) + rng.uniform(0, gap, n)).reshape(shape)


def head_inputs(x, k, rate, rng):
    """A (T, w, h, d) block's head inputs, :func:`~gigvad.model._select`
    then the dropout masks, drawn the way ``train()`` draws them."""
    t, d = x.shape[0], x.shape[-1]
    pattern, patterns = _select(x.reshape(1, t, -1, d), k)
    if rate > 0.0:
        return (pattern[0] * dropout_mask((d,), rate, rng),
                patterns[0] * dropout_mask((t, d), rate, rng))
    return pattern[0], patterns[0]
