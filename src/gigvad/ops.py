"""Differentiable primitives and the finite-difference gradient oracle.

Every primitive computes its value with numpy and, when a tape is recording,
registers a hand-derived backward rule. No broadcasting beyond what each rule
states; extent mismatches raise :class:`DimensionError`.

The array-level pieces the primitives are built from (``check_finite``,
``sigmoid_values``, ``clamp_probs``, ``bce_values``, ``bce_slope``,
``dropout_mask``) are public: the tape-free kernel in :mod:`gigvad.model`
uses the same ones, so the two paths cannot drift apart.

Tie handling: max / top-k / top-p route their subgradient to the winners,
breaking ties by lowest row-major index. Each hands the tape its winner
indices (by reference, as computed for the backward rule) and the distance to
the nearest selection tie. :func:`grad_check` flags an evaluation point as
degenerate when a finite-difference probe changes any selection or the base
margin is below its ``tie_tol``: there the numeric slope straddles a kink and
says nothing about the subgradient.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, DimensionError, NumericError
from .tensor import GradTape, Tensor, accumulate_grad, active_tape

PROB_EPS = 1e-7          # clamp applied to probabilities before any log
COSINE_NORM_GUARD = 1e-12  # below this norm a vector is treated as unrelated

_SIG_LO = np.nextafter(0.0, 1.0)
_SIG_HI = np.nextafter(1.0, 0.0)


def check_finite(arr, name: str):
    """``arr`` unchanged; :class:`NumericError` naming ``name`` if any entry
    is NaN or infinite."""
    if not np.isfinite(arr).all():
        raise NumericError(f"{name} produced a non-finite value")
    return arr


def _out(arr, name: str) -> Tensor:
    arr = np.asarray(arr, dtype=np.float64)  # 0-d arithmetic yields scalars
    return Tensor._wrap(check_finite(arr, name))


def _record(inputs: tuple[Tensor, ...], out: Tensor,
            backward: Callable[[np.ndarray], None],
            margin: float | None = None,
            winners: np.ndarray | None = None) -> Tensor:
    # winners: picks along the last axis, one group per leading index
    tape = active_tape()
    if tape is not None:
        tape.record(inputs, out, backward, margin, winners)
    return out


def affine(weight: Tensor, bias: Tensor, x: Tensor) -> Tensor:
    """``weight @ x + bias`` for a vector, or row-wise for a 2-D ``x``.

    weight has extents (out, in), bias (out,). A 2-D ``x`` of extents
    (rows, in) yields (rows, out) with the same map applied to each row.
    """
    w, b = weight.data, bias.data
    if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.shape[0]:
        raise DimensionError("affine expects weight (out, in) and bias (out,)")
    if x.data.ndim == 1:
        if x.data.shape[0] != w.shape[1]:
            raise DimensionError(
                f"affine input extent {x.data.shape[0]} != {w.shape[1]}")
        out = _out(w @ x.data + b, "affine")

        def backward(g: np.ndarray, weight=weight, bias=bias, x=x) -> None:
            accumulate_grad(weight, np.outer(g, x.data))
            accumulate_grad(bias, g)
            accumulate_grad(x, weight.data.T @ g)

        return _record((weight, bias, x), out, backward)
    if x.data.ndim == 2:
        if x.data.shape[1] != w.shape[1]:
            raise DimensionError(
                f"affine input extent {x.data.shape[1]} != {w.shape[1]}")
        out = _out(x.data @ w.T + b, "affine")

        def backward(g: np.ndarray, weight=weight, bias=bias, x=x) -> None:
            accumulate_grad(weight, g.T @ x.data)
            accumulate_grad(bias, g.sum(axis=0))
            accumulate_grad(x, g @ weight.data)

        return _record((weight, bias, x), out, backward)
    raise DimensionError("affine input must be a vector or a row matrix")


def sigmoid_values(d: np.ndarray) -> np.ndarray:
    """Elementwise logistic function of an array, strictly inside (0, 1)."""
    s = np.empty_like(d)
    pos = d >= 0
    s[pos] = 1.0 / (1.0 + np.exp(-d[pos]))
    ex = np.exp(d[~pos])
    s[~pos] = ex / (1.0 + ex)
    np.clip(s, _SIG_LO, _SIG_HI, out=s)
    return s


def sigmoid(x: Tensor) -> Tensor:
    """Elementwise logistic function, strictly inside (0, 1)."""
    s = sigmoid_values(x.data)
    out = _out(s, "sigmoid")

    def backward(g: np.ndarray, x=x, s=s) -> None:
        accumulate_grad(x, g * s * (1.0 - s))

    return _record((x,), out, backward)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of two tensors with identical extents."""
    if a.data.shape != b.data.shape:
        raise DimensionError("add requires identical extents")
    out = _out(a.data + b.data, "add")

    def backward(g: np.ndarray, a=a, b=b) -> None:
        accumulate_grad(a, g)
        accumulate_grad(b, g)

    return _record((a, b), out, backward)


def scale(x: Tensor, factor: float) -> Tensor:
    """Multiply by a constant scalar."""
    f = float(factor)
    out = _out(x.data * f, "scale")

    def backward(g: np.ndarray, x=x, f=f) -> None:
        accumulate_grad(x, g * f)

    return _record((x,), out, backward)


def apply_mask(x: Tensor, mask: np.ndarray) -> Tensor:
    """Elementwise product with a constant array (dropout masks etc.)."""
    m = np.asarray(mask, dtype=np.float64)
    if m.shape != x.data.shape:
        raise DimensionError("mask extents must match the input")
    out = _out(x.data * m, "apply_mask")

    def backward(g: np.ndarray, x=x, m=m) -> None:
        accumulate_grad(x, g * m)

    return _record((x,), out, backward)


def scale_channels(x: Tensor, gate: Tensor) -> Tensor:
    """Multiply each channel (last axis) of ``x`` by the matching gate entry."""
    if gate.data.ndim != 1 or x.data.shape[-1] != gate.data.shape[0]:
        raise DimensionError("gate extent must equal the channel extent")
    out = _out(x.data * gate.data, "scale_channels")

    def backward(g: np.ndarray, x=x, gate=gate) -> None:
        accumulate_grad(x, g * gate.data)
        d = gate.data.shape[0]
        accumulate_grad(gate, (g * x.data).reshape(-1, d).sum(axis=0))

    return _record((x, gate), out, backward)


def reduce_max(x: Tensor, axes: Sequence[int] | None = None) -> Tensor:
    """Maximum over the named axes; reduced axes are dropped.

    The subgradient goes entirely to the first arg-max (row-major order)
    of each reduced group.
    """
    nd = x.data.ndim
    if axes is None:
        ax = tuple(range(nd))
    else:
        ax = tuple(int(a) for a in axes)
    if len(ax) == 0 or len(set(ax)) != len(ax):
        raise DimensionError("reduction axes must be non-empty and distinct")
    if any(a < 0 or a >= nd for a in ax):
        raise DimensionError(f"axis out of range for rank-{nd} tensor")
    ax = tuple(sorted(ax))

    moved = np.moveaxis(x.data, ax, range(nd - len(ax), nd))
    kept_shape = moved.shape[: nd - len(ax)]
    group = int(np.prod(moved.shape[nd - len(ax):], dtype=np.int64))
    flat = moved.reshape(kept_shape + (group,))
    win = flat.argmax(axis=-1)[..., None]
    values = np.take_along_axis(flat, win, axis=-1)[..., 0]
    # np.ascontiguousarray would promote 0-d results to 1-d
    out = _out(np.array(values, order="C"), "reduce_max")

    if group >= 2:
        part = np.partition(flat, group - 2, axis=-1)
        margin = float((part[..., group - 1] - part[..., group - 2]).min())
    else:
        margin = float("inf")

    def backward(g: np.ndarray, x=x, win=win) -> None:
        gm = np.zeros(kept_shape + (group,), dtype=np.float64)
        np.put_along_axis(gm, win, np.asarray(g)[..., None], axis=-1)
        gm = gm.reshape(moved.shape)
        accumulate_grad(x, np.moveaxis(gm, range(nd - len(ax), nd), ax))

    return _record((x,), out, backward, margin=margin,
                   winners=win)


def slice_axis(x: Tensor, axis: int, start: int, stop: int) -> Tensor:
    """Contiguous slice ``[start, stop)`` along one axis."""
    nd = x.data.ndim
    if axis < 0 or axis >= nd:
        raise DimensionError(f"axis out of range for rank-{nd} tensor")
    ext = x.data.shape[axis]
    if not (0 <= start < stop <= ext):
        raise DimensionError(f"slice [{start}, {stop}) invalid for extent {ext}")
    sl = tuple(slice(None) if a != axis else slice(start, stop)
               for a in range(nd))
    out = _out(np.ascontiguousarray(x.data[sl]), "slice_axis")

    def backward(g: np.ndarray, x=x, sl=sl) -> None:
        gx = np.zeros(x.data.shape, dtype=np.float64)
        gx[sl] = g
        accumulate_grad(x, gx)

    return _record((x,), out, backward)


def sum_all(x: Tensor) -> Tensor:
    """Sum of all elements, as a scalar tensor."""
    out = _out(np.asarray(x.data.sum()), "sum_all")

    def backward(g: np.ndarray, x=x) -> None:
        accumulate_grad(x, np.full(x.data.shape, float(g), dtype=np.float64))

    return _record((x,), out, backward)


def cosine_map(v: Tensor, x: Tensor) -> Tensor:
    """Cosine similarity of ``v`` with every channel vector of ``x``.

    ``x`` has extents (..., d); the result drops the channel axis. Entries
    where either vector's norm is below the guard are 0 and pass no gradient.
    """
    if v.data.ndim != 1 or x.data.shape[-1] != v.data.shape[0]:
        raise DimensionError("channel extents must match")
    d = v.data.shape[0]
    lead_shape = x.data.shape[:-1]
    rows = x.data.reshape(-1, d)
    nv = float(np.sqrt(v.data @ v.data))
    nx = np.sqrt(np.einsum("ij,ij->i", rows, rows))
    dots = rows @ v.data
    live = (nx >= COSINE_NORM_GUARD) & (nv >= COSINE_NORM_GUARD)
    denom = np.where(live, nv * nx, 1.0)
    r = np.where(live, dots / denom, 0.0)
    out = _out(r.reshape(lead_shape).copy(), "cosine_map")

    def backward(g: np.ndarray, v=v, x=x, rows=rows, nx=nx, nv=nv, r=r,
                 live=live) -> None:
        u = np.asarray(g, dtype=np.float64).reshape(-1)
        u = np.where(live, u, 0.0)
        if nv < COSINE_NORM_GUARD:
            return
        inv = u / np.where(live, nv * nx, 1.0)
        dv = rows.T @ inv - (v.data / (nv * nv)) * float(u @ r)
        accumulate_grad(v, dv)
        with np.errstate(divide="ignore", invalid="ignore"):
            coef = np.where(live, u * r / (nx * nx), 0.0)
        drows = inv[:, None] * v.data[None, :] - coef[:, None] * rows
        accumulate_grad(x, drows.reshape(x.data.shape))

    return _record((v, x), out, backward)


def _ranked_selection(scores: np.ndarray, count: int) -> tuple[np.ndarray, float]:
    """Stable descending order along the last axis plus the boundary margin."""
    order = np.argsort(-scores, axis=-1, kind="stable")
    total = scores.shape[-1]
    if count < total:
        ranked = np.take_along_axis(scores, order, axis=-1)
        margin = float((ranked[..., count - 1] - ranked[..., count]).min())
    else:
        margin = float("inf")
    return order, margin


def _topk_mean_core(x: Tensor, s: np.ndarray, k: int, t: int,
                    batched: bool) -> Tensor:
    d = x.data.shape[-1]
    flat_x = x.data.reshape(t, -1, d)
    flat_s = s.reshape(t, -1)
    m = flat_s.shape[1]
    if not (1 <= k <= m):
        raise ConfigError(f"k={k} out of range [1, {m}]")

    order, margin = _ranked_selection(flat_s, k)
    sel = order[:, :k]
    picked = np.take_along_axis(flat_x, sel[:, :, None], axis=1)
    mean = picked.sum(axis=1) / k
    res = mean if batched else mean[0]
    out = _out(np.ascontiguousarray(res), "topk_mean")

    def backward(g: np.ndarray, x=x, sel=sel) -> None:
        gm = np.asarray(g, dtype=np.float64).reshape(t, d)
        gx = np.zeros((t, flat_x.shape[1], d), dtype=np.float64)
        gx[np.arange(t)[:, None], sel, :] = gm[:, None, :] / k
        accumulate_grad(x, gx.reshape(x.data.shape))

    return _record((x,), out, backward, margin=margin,
                   winners=sel)


def _scores_array(scores: Tensor | np.ndarray) -> np.ndarray:
    return scores.data if isinstance(scores, Tensor) else np.asarray(
        scores, dtype=np.float64)


def topk_mean(x: Tensor, scores: Tensor | np.ndarray, k: int) -> Tensor:
    """Mean of the ``k`` channel vectors of ``x`` with the largest scores.

    ``x`` has extents (positions..., d); ``scores`` covers every position.
    All positions compete in one ranking; the result is a (d,) vector.
    Scores only rank, they receive no gradient; ties break by lowest
    row-major index via the stable sort.
    """
    s = _scores_array(scores)
    if x.data.shape[:-1] != s.shape:
        raise DimensionError("scores must cover all non-channel extents")
    return _topk_mean_core(x, s, k, t=1, batched=False)


def topk_mean_batch(x: Tensor, scores: Tensor | np.ndarray, k: int) -> Tensor:
    """Per-row :func:`topk_mean`: axis 0 of ``x`` indexes independent groups.

    ``x`` has extents (T, positions..., d) and ``scores`` (T, positions...);
    the result is (T, d) with each row ranked within its own group.
    """
    s = _scores_array(scores)
    if x.data.ndim < 3 or x.data.shape[:-1] != s.shape:
        raise DimensionError("scores must cover all non-channel extents")
    return _topk_mean_core(x, s, k, t=s.shape[0], batched=True)


def topp_mean_cols(x: Tensor, p: int) -> Tensor:
    """Per-column mean of the ``p`` largest entries of a (rows, cols) tensor."""
    if x.data.ndim != 2:
        raise DimensionError("topp_mean_cols expects a rank-2 tensor")
    rows, cols = x.data.shape
    if not (1 <= p <= rows):
        raise ConfigError(f"p={p} out of range [1, {rows}]")
    colmajor = x.data.T  # (cols, rows)
    order, margin = _ranked_selection(colmajor, p)
    sel = order[:, :p]
    picked = np.take_along_axis(colmajor, sel, axis=-1)
    out = _out(np.ascontiguousarray(picked.sum(axis=-1) / p), "topp_mean_cols")

    def backward(g: np.ndarray, x=x, sel=sel) -> None:
        gx = np.zeros((cols, rows), dtype=np.float64)
        np.put_along_axis(
            gx, sel,
            np.broadcast_to(np.asarray(g)[:, None] / p, (cols, p)), axis=-1)
        accumulate_grad(x, gx.T.copy())

    return _record((x,), out, backward, margin=margin,
                   winners=sel)


def clamp_probs(prob) -> tuple[np.ndarray, np.ndarray]:
    """Probabilities clipped to [PROB_EPS, 1 - PROB_EPS], and where they
    already lay strictly inside (only there does BCE pass a slope)."""
    clamped = np.clip(prob, PROB_EPS, 1.0 - PROB_EPS)
    inside = (prob > PROB_EPS) & (prob < 1.0 - PROB_EPS)
    return clamped, inside


def bce_values(s, y):
    """Elementwise BCE of clamped probabilities ``s`` against targets ``y``."""
    return -(y * np.log(s) + (1.0 - y) * np.log1p(-s))


def bce_slope(s, inside, y):
    """d BCE / d probability at the clamped ``s``; 0 where clamping bit."""
    return np.where(inside, -y / s + (1.0 - y) / (1.0 - s), 0.0)


def dropout_mask(shape, rate: float, rng: np.random.Generator) -> np.ndarray:
    """Inverted-dropout multipliers: 0 with probability ``rate``, else
    1/(1-rate). Draws one uniform per element from ``rng``."""
    keep = rng.random(shape) >= rate
    return keep / (1.0 - rate)


def bce(prob: Tensor, target: float) -> Tensor:
    """Binary cross entropy of a scalar probability against a 0/1 target."""
    if prob.data.shape != ():
        raise DimensionError("bce expects a scalar probability")
    y = float(target)
    s, inside = clamp_probs(prob.data)
    out = _out(np.asarray(bce_values(s, y)), "bce")

    def backward(g: np.ndarray, prob=prob, s=s, inside=inside, y=y) -> None:
        local = bce_slope(s, inside, y)
        accumulate_grad(prob, np.asarray(float(g) * local))

    return _record((prob,), out, backward)


def bce_mean(probs: Tensor, targets: np.ndarray) -> Tensor:
    """Mean over channels of per-channel binary cross entropy."""
    y = np.asarray(targets, dtype=np.float64)
    if probs.data.shape != y.shape or probs.data.ndim != 1:
        raise DimensionError("probabilities and targets must be equal vectors")
    s, inside = clamp_probs(probs.data)
    m = s.shape[0]
    val = float(np.mean(bce_values(s, y)))
    out = _out(np.asarray(val), "bce_mean")

    def backward(g: np.ndarray, probs=probs, s=s, inside=inside, y=y, m=m) -> None:
        local = bce_slope(s, inside, y)
        accumulate_grad(probs, float(g) * local / m)

    return _record((probs,), out, backward)


def dropout(x: Tensor, rate: float, training: bool,
            rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout: zero each element with probability ``rate``.

    Survivors are scaled by 1/(1-rate) so the expectation is preserved.
    Outside training mode, or at rate 0, the input passes through untouched
    and no random numbers are drawn.
    """
    if not (0.0 <= rate < 1.0):
        raise ConfigError(f"dropout rate {rate} outside [0, 1)")
    if not training or rate == 0.0:
        return x
    if rng is None:
        raise ConfigError("training-mode dropout needs a generator")
    return apply_mask(x, dropout_mask(x.data.shape, rate, rng))


@dataclass(frozen=True)
class GradCheckReport:
    """Outcome of comparing analytic gradients against central differences."""
    max_rel_err: float
    passed: bool
    degenerate: bool


def grad_check(f: Callable[..., Tensor], inputs: Sequence[Tensor],
               h: float = 1e-4, tol: float = 1e-5,
               tie_tol: float = 1e-6) -> GradCheckReport:
    """Verify analytic gradients of ``f(*inputs)`` by central differences.

    ``f`` must be a pure function of its tensor arguments returning a scalar.
    Each coordinate's slope is the 4-point central stencil
    ``(8(f(x+h) - f(x-h)) - (f(x+2h) - f(x-2h))) / 12h``, whose truncation
    error falls as h**4. Every probe runs under a tape. The point is flagged
    degenerate (and fails) when any probe picks different max/top-k/top-p
    winners than the base point, or the base point's selection margin is
    below ``tie_tol``: the subgradient there is not the object finite
    differences approximate, so callers should redraw.
    """
    with GradTape() as tape:
        out = f(*inputs)
    if out.data.shape != ():
        raise DimensionError("grad_check target must be scalar-valued")
    if not np.isfinite(out.data):
        raise NumericError("function value is not finite at the base point")
    analytic = tape.gradients(out, list(inputs))
    chosen = _picks(tape)
    degenerate = tape.min_selection_margin() < tie_tol

    max_rel = 0.0
    for i, t in enumerate(inputs):
        base = t.data
        for j in range(base.size):
            vals = []
            for step in (h, -h, 2.0 * h, -2.0 * h):
                bumped = base.copy()
                bumped.flat[j] += step
                value, picks = _reeval(f, inputs, i, bumped)
                vals.append(value)
                degenerate = degenerate or not _same_picks(picks, chosen)
            plus, minus, plus2, minus2 = vals
            numeric = (8.0 * (plus - minus) - (plus2 - minus2)) / (12.0 * h)
            a = float(analytic[i].flat[j])
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-6)
            if rel > max_rel:
                max_rel = rel
    return GradCheckReport(max_rel_err=max_rel,
                           passed=(max_rel <= tol) and not degenerate,
                           degenerate=degenerate)


def _picks(tape: GradTape) -> list[np.ndarray]:
    # a group's winners form a set: their rank order does not move the value
    return [np.sort(w, axis=-1) for w in tape.selections()]


def _same_picks(a: list[np.ndarray], b: list[np.ndarray]) -> bool:
    return len(a) == len(b) and all(
        np.array_equal(x, y) for x, y in zip(a, b))


def _reeval(f, inputs: Sequence[Tensor], i: int,
            data: np.ndarray) -> tuple[float, list[np.ndarray]]:
    probe = list(inputs)
    probe[i] = Tensor(data)
    with GradTape() as tape:
        val = f(*probe)
    if not np.isfinite(val.data):
        raise NumericError("function value is not finite near the base point")
    return float(val.data), _picks(tape)
