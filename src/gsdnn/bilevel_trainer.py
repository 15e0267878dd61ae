"""Supervised training of the hop-sum model on toy node-classification data.

The lower level is the linear hop-sum forward pass; the upper level is
masked cross-entropy over softmax outputs. The model is linear in its
input before the softmax, so A_hat^k (X W + 1 b^T) = (A_hat^k [X, 1]) [W; b^T]:
the propagated powers depend on the features only, never on the
parameters, and are built once per run (once per epoch under feature
dropout), with or without the optional input projection. Gradients are
written out by hand: the model is linear in every parameter block, so
reverse mode is a handful of inner products, and the projection gradient
is one more matrix product against the same powers.

A model is a layout (K, class width, input width, tying) plus one float64
vector (``UgdgnnParams.flat``); parameters, gradients and Adam moments all
use that layout: the undecayed hop coefficients and mixing scalars first,
then the weight-decayed tail of per-hop weights and projection, so one Adam
step is one elementwise update over the whole vector. Each seed's history
is written straight into its ``TrainReport`` as the epochs run.

A stack of models, one per seed, puts a leading seed axis on that layout:
``flat`` has shape (S, P) and every named block gains the axis. The forward
pass, the loss, ``backward`` and ``adam_step`` are written once over that
axis, and every seed's numbers are bit-identical to a run of that seed
alone. ``depth_sweep`` trains all seeds of one depth as one stack; without
feature dropout they share one set of propagated powers.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .graph_core import Graph, NormalizedOperators, normalize, spmm

__all__ = [
    "Dataset",
    "UgdgnnParams",
    "TrainConfig",
    "TrainReport",
    "AdamState",
    "softmax_rows",
    "cross_entropy_masked",
    "feature_powers",
    "forward_logits",
    "backward",
    "adam_update",
    "adam_step",
    "predict",
    "accuracy",
    "train",
    "sbm_generate",
    "karate_dataset",
    "depth_sweep",
]


@dataclass
class Dataset:
    ops: NormalizedOperators
    x: np.ndarray
    labels: np.ndarray
    train_mask: np.ndarray
    val_mask: np.ndarray
    test_mask: np.ndarray

    def __post_init__(self):
        n = self.ops.num_nodes
        self.x = np.asarray(self.x, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.x.shape[0] != n or self.labels.shape != (n,):
            raise ValueError("features/labels must cover every node")
        for name in ("train_mask", "val_mask", "test_mask"):
            m = np.asarray(getattr(self, name), dtype=bool)
            if m.shape != (n,):
                raise ValueError(f"{name} must be a length-{n} boolean vector")
            setattr(self, name, m)
        overlap = (
            (self.train_mask & self.val_mask)
            | (self.train_mask & self.test_mask)
            | (self.val_mask & self.test_mask)
        )
        if overlap.any():
            raise ValueError("masks must be disjoint")
        train_classes = set(self.labels[self.train_mask].tolist())
        if train_classes != set(range(self.num_classes)):
            raise ValueError("every class needs at least one training node")

    @property
    def num_classes(self) -> int:
        return int(self.labels.max()) + 1


def _layout_size(k: int, classes: int, d_in: int | None) -> int:
    """Entries of ``flat`` for one model: coefficients, weights, projection."""
    size = 3 * (k + 1) + (k + 1) * classes * classes
    return size if d_in is None else size + (d_in + 1) * classes


@dataclass(frozen=True, eq=False)
class UgdgnnParams:
    """Learnable state: a layout (K, class width c, input width, tying) plus one vector.

    Everything lives in one float64 vector ``flat``; each named block is a
    view into it, in this order: ``gammas``, ``zetas``, ``xis`` (K+1 each),
    the stacked per-hop weights ``w`` of shape (K+1, c, c), then, when
    ``d_in`` is set, the input projection ``pre_w`` (d_in x c) and
    ``pre_b`` (c), which are also the rows of one (d_in + 1, c) view
    ``proj``. The projection lands on the class width because the identity
    mixing branch adds propagated features straight into the logits. The
    blocks after the first 3(K+1) entries, ``flat[decay_start:]``, are the
    weight-decayed ones. Gradients (``zeros_like``) and Adam moments use the
    same layout. Write through a view (``params.gammas[:] = ...``); the
    instance is frozen, so rebinding a name raises.

    A leading axis on ``flat`` is a stack of models, one per seed (see
    ``stack``): ``flat`` is (S, P) and each view gains the axis (``gammas``
    is (S, K+1), ``w`` is (S, K+1, c, c), and so on);
    ``flat[..., decay_start:]`` is still the decayed tail.
    """

    flat: np.ndarray
    k: int
    classes: int
    d_in: int | None = None
    tie_xi: bool = True

    def __post_init__(self):
        kp1, c, flat = self.k + 1, self.classes, self.flat
        size = _layout_size(self.k, c, self.d_in)
        if flat.shape[-1:] != (size,):
            raise ValueError(f"flat needs {size} entries on its last axis, got shape {flat.shape}")
        lead = flat.shape[:-1]
        coeffs = flat[..., : 3 * kp1].reshape(*lead, 3, kp1)
        end = 3 * kp1 + kp1 * c * c
        pre_w = pre_b = proj = None
        if self.d_in is not None:
            proj = flat[..., end:].reshape(*lead, self.d_in + 1, c)
            pre_w, pre_b = proj[..., : self.d_in, :], proj[..., self.d_in, :]
        # a frozen instance refuses setattr, so the views go in through __dict__
        self.__dict__.update(
            gammas=coeffs[..., 0, :], zetas=coeffs[..., 1, :], xis=coeffs[..., 2, :],
            w=flat[..., 3 * kp1 : end].reshape(*lead, kp1, c, c),
            pre_w=pre_w, pre_b=pre_b, proj=proj,
        )

    @classmethod
    def zeros(
        cls, k: int, classes: int, d_in: int | None = None, tie_xi: bool = True
    ) -> "UgdgnnParams":
        """A zero-filled model of this layout."""
        return cls(np.zeros(_layout_size(k, classes, d_in)), k, classes, d_in, tie_xi)

    def zeros_like(self) -> "UgdgnnParams":
        """A zero-filled instance with this layout: the shape of a gradient."""
        return replace(self, flat=np.zeros_like(self.flat))

    @classmethod
    def stack(cls, members: Sequence["UgdgnnParams"]) -> "UgdgnnParams":
        """Models of one layout on a leading seed axis, in the given order."""
        if len({(m.k, m.classes, m.d_in, m.tie_xi) for m in members}) != 1:
            raise ValueError("stacked models must share one layout")
        return replace(members[0], flat=np.stack([m.flat for m in members]))

    @property
    def decay_start(self) -> int:
        """Offset of the weight-decayed tail (w, pre_w, pre_b) in ``flat``."""
        return 3 * (self.k + 1)

    def effective_xis(self) -> np.ndarray:
        return 1.0 - self.zetas if self.tie_xi else self.xis

    @classmethod
    def init(
        cls,
        rng: np.random.Generator,
        k: int,
        d_in: int,
        num_classes: int,
        alpha0: float,
        tie_xi: bool = True,
    ) -> "UgdgnnParams":
        """Restart-style hop coefficients, identity mixing, Glorot weights."""
        if not (0.0 < alpha0 < 1.0):
            raise ValueError("alpha0 must lie strictly in (0, 1)")
        c = num_classes
        params = cls.zeros(k, c, None if d_in == c else d_in, tie_xi)
        params.gammas[:] = [alpha0 * (1.0 - alpha0) ** j for j in range(k)] + [(1.0 - alpha0) ** k]
        params.zetas[:] = 1.0
        limit = math.sqrt(6.0 / (c + c))
        params.w[:] = rng.uniform(-limit, limit, size=(k + 1, c, c))
        if params.pre_w is not None:
            pre_limit = math.sqrt(6.0 / (d_in + c))
            params.pre_w[:] = rng.uniform(-pre_limit, pre_limit, size=(d_in, c))
        return params


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 0.005
    weight_decay: float = 5e-4
    epochs: int = 500
    seed: int = 0
    k: int = 5
    alpha0: float = 0.1
    patience: int = 100
    feature_dropout: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.lr) and self.lr >= 0):
            raise ValueError(f"lr must be finite and nonnegative, got {self.lr}")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise ValueError(
                f"weight_decay must be finite and nonnegative, got {self.weight_decay}"
            )
        if self.epochs < 1 or self.k < 0 or self.patience < 1:
            raise ValueError("epochs and patience must be >= 1, K >= 0")
        if not (0.0 < self.alpha0 < 1.0):
            raise ValueError("alpha0 must lie strictly in (0, 1)")
        if not (0.0 <= self.feature_dropout < 1.0):
            raise ValueError("feature_dropout must lie in [0, 1)")


@dataclass
class TrainReport:
    """Per-epoch history of one training run. ``stop_reason`` says why it
    stopped: ``patience`` (no better validation epoch for patience epochs),
    ``epochs`` (the epoch budget ran out) or ``diverged`` (the training loss
    stopped being finite; the history ends at the last finite epoch)."""

    train_losses: list[float]
    val_accs: list[float]
    test_accs: list[float]
    best_epoch: int
    best_val_acc: float
    test_acc_at_best: float
    final_gammas: list[float]
    final_zetas: list[float]
    wall_clock_seconds: float
    stop_reason: str = "epochs"

    @property
    def diverged(self) -> bool:
        return self.stop_reason == "diverged"

    @property
    def seed_epochs(self) -> int:
        """Epochs whose forward pass ran: those recorded, plus the diverging one."""
        return len(self.train_losses) + self.diverged

    def to_json_dict(self) -> dict:
        # wall clock deliberately left out: rerunning with the same seed
        # must produce byte-identical report files (timing lives in the
        # run manifest instead)
        return {
            "train_losses": self.train_losses,
            "val_accs": self.val_accs,
            "test_accs": self.test_accs,
            "best_epoch": self.best_epoch,
            "best_val_acc": self.best_val_acc,
            "test_acc_at_best": self.test_acc_at_best,
            "final_gammas": self.final_gammas,
            "final_zetas": self.final_zetas,
            "diverged": self.diverged,
            "stop_reason": self.stop_reason,
        }


# ---------------------------------------------------------------------------
# loss plumbing


# The class axis is short (2-4 entries in the bundled datasets), and numpy
# reduces a short trailing axis one row at a time; the helpers below instead
# make one whole-array pass per class column. Their call count grows with
# the class count: on one seed of 200 rows softmax_rows is slower than a
# single reduction from about 8 classes on (3.6x at 64), while on 2000 rows
# or a 5-seed stack it stays ahead up to 64.


def softmax_rows(z: np.ndarray) -> np.ndarray:
    """Softmax over the last axis of ``z``, shape (..., c), c >= 1.

    Each row is shifted by its maximum before ``exp``. The normalizer is
    summed left to right in class order, one whole-array add per class
    column; below 8 classes that is also the order of ``e.sum(axis=-1)``.
    The result is float64 in the shape of ``z``, in the memory layout that
    an elementwise operation on ``z`` gives.
    """
    z = np.asarray(z, dtype=np.float64)
    top = z[..., 0].copy(order="K")
    for j in range(1, z.shape[-1]):
        np.maximum(top, z[..., j], out=top)
    e = np.exp(z - top[..., None])
    total = e[..., 0].copy(order="K")
    for j in range(1, e.shape[-1]):
        total += e[..., j]
    return e / total[..., None]


def _masked_rows(mask: np.ndarray) -> np.ndarray:
    rows = np.flatnonzero(np.asarray(mask, dtype=bool))
    if rows.size == 0:
        raise ValueError("mask selects no rows")
    return rows


def _mean_nll(probs: np.ndarray, labels: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Mean negative log-likelihood over ``rows``, one value per seed."""
    # a stack's picked entries come back in a transposed layout; summing
    # them contiguous keeps each seed's sum in the order of a lone seed
    picked = np.ascontiguousarray(probs[..., rows, labels[rows]])
    with np.errstate(divide="ignore"):
        return -np.log(picked).sum(axis=-1) / rows.size


def cross_entropy_masked(
    probs: np.ndarray, labels: np.ndarray, mask: np.ndarray
) -> tuple[float | np.ndarray, np.ndarray]:
    """Mean negative log-likelihood over masked rows, plus the logit gradient.

    The returned gradient is with respect to the logits that produced
    ``probs`` (softmax and loss fused): (probs - onehot) / count on masked
    rows, zero elsewhere. With a leading seed axis on ``probs`` the loss
    has one entry per seed.
    """
    rows = _masked_rows(mask)
    block = probs[..., rows, :]  # fancy indexing copies: probs stays as it is
    block[..., np.arange(rows.size), labels[rows]] -= 1.0
    block /= rows.size
    grad = np.zeros_like(probs)
    grad[..., rows, :] = block
    return _mean_nll(probs, labels, rows), grad


# ---------------------------------------------------------------------------
# forward / backward


def _propagate(ops: NormalizedOperators, x: np.ndarray) -> np.ndarray:
    """A_hat times x, or times each seed's block of a stack in one spmm."""
    if x.ndim == 2:
        return spmm(ops, x)
    # the blocks sit side by side as columns; each column of a sparse
    # product is summed in the same order whatever the column count
    s, n, c = x.shape
    out = spmm(ops, x.transpose(1, 0, 2).reshape(n, s * c))
    return np.ascontiguousarray(out.reshape(n, s, c).transpose(1, 0, 2))


def feature_powers(params: UgdgnnParams, ops: NormalizedOperators, x: np.ndarray) -> np.ndarray:
    """Q = [Z, A_hat Z, ..., A_hat^K Z] on a hop axis, the input of every epoch.

    Z is the features x, or [x, 1] when the model has a projection, so Q
    depends on the features and on the layout of ``params`` (K, projection
    or not), never on parameter values. Shared features (n, d) give
    (K+1, n, d'), per-seed features (S, n, d) give (S, K+1, n, d'), with
    d' = d + 1 under a projection: Q holds (K+1) n (d+1) floats per feature
    matrix, about K+1 times the features themselves.
    """
    z = np.asarray(x, dtype=np.float64)
    if params.proj is not None:
        z = np.concatenate((z, np.ones((*z.shape[:-1], 1))), axis=-1)
    q = [z]
    for _ in range(params.k):
        q.append(_propagate(ops, q[-1]))
    return np.stack(q, axis=-3)


def _take(a: np.ndarray, seeds: np.ndarray) -> np.ndarray:
    """The rows of a smaller stack; hop-stacked powers shared by every seed stay shared."""
    return a[seeds] if a.ndim == 4 else a


def _hop_rows(a: np.ndarray) -> np.ndarray:
    """(..., K+1, n, m) as (..., (K+1) n, m): one row per (hop, node) pair."""
    return a.reshape(*a.shape[:-3], -1, a.shape[-1])


# The hop axis is handled whole: every (n, c) block is multiplied, reduced
# and summed over hops in the order of a loop over k, so results are
# bit-identical to one seed and one hop at a time.


def _blocks(a: np.ndarray) -> np.ndarray:
    """Per-hop coefficients (..., K+1) shaped to scale (..., K+1, n, c) blocks."""
    return a[..., None, None]


def _gate(on: np.ndarray, term: np.ndarray) -> np.ndarray:
    """``term`` where a hop's weight branch is on (xi_k != 0), exactly 0 elsewhere.

    A lone seed skips the branch where xi_k == 0; zeroing the product before
    it is scaled keeps that hop exact even where the product overflows.
    """
    return term if on.all() else np.where(_blocks(on), term, 0.0)


def forward_logits(params: UgdgnnParams, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hop-sum logits from the feature powers ``q`` (see ``feature_powers``).

    Also returns the class-width powers P the logits sum over: ``q`` itself
    without a projection, P = Q [pre_w; pre_b] with one. A stack of S seeds
    gives (S, n, c) logits.
    """
    p = q if params.proj is None else q @ params.proj[..., None, :, :]
    xis = params.effective_xis()
    on = xis != 0.0
    # in-place updates keep few (K+1)-block temporaries alive at once
    terms = _blocks(params.zetas) * p
    if on.any():
        branch = _gate(on, p @ params.w)
        branch *= _blocks(xis)
        terms += branch
    terms *= _blocks(params.gammas)
    return terms.sum(axis=-3), p


def backward(
    params: UgdgnnParams, q: np.ndarray, p: np.ndarray, grad_logits: np.ndarray
) -> UgdgnnParams:
    """Hand-written reverse mode through the hop-sum forward pass.

    The gradient comes back as a ``UgdgnnParams`` with the same flat layout
    (seed axis included).

    With G the logit gradient, Q_k the feature powers and P_k the powers
    that ``forward_logits`` returned with the logits:
      dW_k    = gamma_k xi_k P_k^T G
      dgamma_k = zeta_k <P_k, G> + xi_k <P_k W_k, G>
      dzeta_k  = gamma_k <P_k, G>            (minus the W branch when tied)
      dxi_k    = gamma_k <P_k W_k, G>
      d[pre_w; pre_b] = sum_k Q_k^T G M_k^T, M_k = gamma_k (zeta_k I + xi_k W_k)
    """
    g = np.asarray(grad_logits, dtype=np.float64)
    g_hops = g[..., None, :, :]  # the same G against every hop
    gammas, zetas = params.gammas, params.zetas
    xis = params.effective_xis()
    on = xis != 0.0
    grads = params.zeros_like()
    pg = (p * g_hops).sum(axis=(-2, -1))
    pw_g = p @ params.w
    pw_g *= g_hops
    pwg = pw_g.sum(axis=(-2, -1))
    if on.any():
        gx = _blocks(gammas) * _blocks(xis)
        grads.w[:] = gx * _gate(on, np.swapaxes(p, -1, -2) @ g_hops)
    grads.gammas[:] = zetas * pg + xis * pwg
    if params.tie_xi:
        grads.zetas[:] = gammas * (pg - pwg)
    else:
        grads.zetas[:] = gammas * pg
        grads.xis[:] = gammas * pwg
    if params.proj is not None:
        # P_k = Q_k [pre_w; pre_b], so the sum over hops is one product
        # over the (hop, node) rows
        hop_terms = _blocks(zetas) * g_hops  # becomes G M_k^T
        if on.any():
            branch = _gate(on, g_hops @ np.swapaxes(params.w, -1, -2))
            branch *= _blocks(xis)
            hop_terms += branch
        hop_terms *= _blocks(gammas)
        grads.proj[:] = np.swapaxes(_hop_rows(q), -1, -2) @ _hop_rows(hop_terms)
    return grads


def predict(logits: np.ndarray) -> np.ndarray:
    """Class prediction; ties break toward the lowest class index."""
    return np.argmax(logits, axis=-1)


def accuracy(logits: np.ndarray, labels: np.ndarray, mask: np.ndarray) -> float | np.ndarray:
    """Fraction of masked rows predicted right; one value per seed of a stack."""
    mask = np.asarray(mask, dtype=bool)
    if mask.shape[-1] != np.shape(logits)[-2]:
        # np.compress would silently keep only the first len(mask) rows
        raise ValueError(f"mask has {mask.shape[-1]} entries for {np.shape(logits)[-2]} rows")
    if not mask.any():
        raise ValueError("mask selects no rows")
    pred = predict(np.compress(mask, logits, axis=-2))
    return np.mean(pred == labels[mask], axis=-1)


# ---------------------------------------------------------------------------
# optimizer

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def adam_update(
    param: np.ndarray,
    grad: np.ndarray,
    m: np.ndarray,
    v: np.ndarray,
    t: int,
    lr: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One bias-corrected moment update; returns (param, m, v)."""
    m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * grad
    v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * grad * grad
    m_hat = m / (1.0 - ADAM_BETA1**t)
    v_hat = v / (1.0 - ADAM_BETA2**t)
    return param - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS), m, v


@dataclass
class AdamState:
    """Step count and the two moment vectors, laid out like ``params.flat``."""

    t: int
    m: np.ndarray
    v: np.ndarray

    @classmethod
    def init(cls, params: UgdgnnParams) -> "AdamState":
        return cls(t=0, m=np.zeros_like(params.flat), v=np.zeros_like(params.flat))


def adam_step(
    params: UgdgnnParams,
    grads: UgdgnnParams,
    state: AdamState,
    lr: float,
    weight_decay: float,
) -> None:
    """One Adam update of ``params.flat`` in place; decay touches the tail only.

    A stack's seeds share the step count and are updated elementwise.

    The hop coefficients and mixing scalars stay undecayed: they are
    filter coefficients, and pulling them toward zero would bias the
    learned filter rather than regularize capacity.
    """
    state.t += 1
    g = grads.flat
    if weight_decay != 0.0:
        tail = (..., slice(params.decay_start, None))
        g = g.copy()
        g[tail] += weight_decay * params.flat[tail]
    new_flat, state.m, state.v = adam_update(params.flat, g, state.m, state.v, state.t, lr)
    params.flat[:] = new_flat


# ---------------------------------------------------------------------------
# training


@dataclass
class _SeedRun:
    """One seed inside a training stack: its Generator, and the report it fills."""

    rng: np.random.Generator
    best_val_loss: float = math.inf
    report: TrainReport = field(default_factory=lambda: TrainReport(
        train_losses=[], val_accs=[], test_accs=[], best_epoch=-1, best_val_acc=-1.0,
        test_acc_at_best=0.0, final_gammas=[], final_zetas=[], wall_clock_seconds=0.0,
    ))

    def observe(
        self, epoch: int, loss: float, val_acc: float, val_loss: float,
        test_acc: float, patience: int,
    ) -> bool:
        """Record one epoch; True when this seed stops training here."""
        rep = self.report
        if not math.isfinite(loss):
            rep.stop_reason = "diverged"
            return True
        rep.train_losses.append(loss)
        rep.val_accs.append(val_acc)
        rep.test_accs.append(test_acc)
        # the val mask is small, so accuracy plateaus quickly; ties are
        # broken by validation loss, which keeps improving while the
        # decision boundary still moves
        if val_acc > rep.best_val_acc or (
            val_acc == rep.best_val_acc and val_loss < self.best_val_loss
        ):
            rep.best_val_acc = val_acc
            self.best_val_loss = val_loss
            rep.best_epoch = epoch
            rep.test_acc_at_best = test_acc
        if epoch - rep.best_epoch >= patience:
            rep.stop_reason = "patience"
            return True
        return False

    def finish(self, gammas: np.ndarray, zetas: np.ndarray, seconds: float) -> None:
        self.report.final_gammas = gammas.tolist()
        self.report.final_zetas = zetas.tolist()
        self.report.wall_clock_seconds = seconds


# a diverging seed overflows quietly: _SeedRun.observe reports its loss
@np.errstate(over="ignore", invalid="ignore")
def _train_seeds(ds: Dataset, cfg: TrainConfig, seeds: Sequence[int]) -> list[TrainReport]:
    """Train one model per seed as a stack; reports in the order of ``seeds``.

    Each seed draws its initialization and dropout masks from its own
    Generator and keeps its own early-stopping and divergence state; a seed
    that stops leaves the stack, so its report matches a run on its own.
    """
    t_start = time.perf_counter()
    runs = [_SeedRun(np.random.default_rng(seed)) for seed in seeds]
    c = ds.num_classes
    params = UgdgnnParams.stack([
        UgdgnnParams.init(run.rng, cfg.k, ds.x.shape[1], c, cfg.alpha0, tie_xi=True)
        for run in runs
    ])
    state = AdamState.init(params)
    val_rows = _masked_rows(ds.val_mask)
    live = runs
    clean = feature_powers(params, ds.ops, ds.x)  # shared by every seed and epoch

    for epoch in range(cfg.epochs):
        if cfg.feature_dropout > 0.0:
            keep = 1.0 - cfg.feature_dropout
            dropped = [ds.x * (run.rng.random(ds.x.shape) < keep) / keep for run in live]
            q = feature_powers(params, ds.ops, np.stack(dropped))
        else:
            q = clean
        logits, p = forward_logits(params, q)
        probs = softmax_rows(logits)
        loss, grad_logits = cross_entropy_masked(probs, ds.labels, ds.train_mask)
        if cfg.feature_dropout > 0.0:
            eval_logits, _ = forward_logits(params, clean)
            eval_probs = softmax_rows(eval_logits)
        else:
            eval_logits = logits
            eval_probs = probs
        val_acc = accuracy(eval_logits, ds.labels, ds.val_mask)
        val_loss = _mean_nll(eval_probs, ds.labels, val_rows)
        test_acc = accuracy(eval_logits, ds.labels, ds.test_mask)
        stats = zip(live, loss.tolist(), val_acc.tolist(), val_loss.tolist(), test_acc.tolist())
        stopped = [run.observe(epoch, *row, cfg.patience) for run, *row in stats]
        if any(stopped):
            for i, run in enumerate(live):
                if stopped[i]:
                    run.finish(params.gammas[i], params.zetas[i], time.perf_counter() - t_start)
            seeds_left = np.flatnonzero(np.logical_not(stopped))
            live = [live[i] for i in seeds_left]
            if not live:
                break
            params = replace(params, flat=params.flat[seeds_left])
            state = AdamState(state.t, state.m[seeds_left], state.v[seeds_left])
            grad_logits = grad_logits[seeds_left]
            q, p = _take(q, seeds_left), _take(p, seeds_left)
        grads = backward(params, q, p, grad_logits)
        adam_step(params, grads, state, cfg.lr, cfg.weight_decay)

    for i, run in enumerate(live):
        run.finish(params.gammas[i], params.zetas[i], time.perf_counter() - t_start)
    return [run.report for run in runs]


def train(ds: Dataset, cfg: TrainConfig) -> TrainReport:
    """Fit the hop-sum model with Adam and validation-accuracy early stopping.

    Initialization follows the restart-style coefficient profile from
    alpha0, identity mixing (tied), and Glorot weights; the projection is
    added only when the input width differs from the class count. This is
    the stack of one seed, ``cfg.seed``.
    """
    return _train_seeds(ds, cfg, [cfg.seed])[0]


# ---------------------------------------------------------------------------
# toy datasets


def _split_masks(
    labels: np.ndarray, per_class_train: int, per_class_val: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lowest node ids per class go to train, the next block to val."""
    if per_class_train < 1 or per_class_val < 1:
        raise ValueError(
            f"per-class train and val counts must be at least 1, "
            f"got {per_class_train} and {per_class_val}"
        )
    n = labels.shape[0]
    train = np.zeros(n, dtype=bool)
    val = np.zeros(n, dtype=bool)
    test = np.zeros(n, dtype=bool)
    for c in np.unique(labels):
        ids = np.flatnonzero(labels == c)
        need = per_class_train + per_class_val
        if ids.size <= need:
            raise ValueError(
                f"class {int(c)} has {ids.size} nodes; needs more than {need} "
                "to fill train/val and leave test nodes"
            )
        train[ids[:per_class_train]] = True
        val[ids[per_class_train:need]] = True
        test[ids[need:]] = True
    return train, val, test


# Largest node count sbm_generate accepts. Its edge draw takes n^2 uniforms
# (O(n^2) time, though only O(n + edges) memory), about 2 s at this size on a
# 2-vCPU host, so a node count of 1e6 would run for over an hour; the
# benchmark's and tests' graphs have at most 2,000 nodes.
_SBM_MAX_NODES = 20_000


def sbm_generate(
    n: int,
    blocks: int,
    p_in: float,
    p_out: float,
    d: int,
    noise_sigma: float,
    seed: int,
) -> Dataset:
    """Stochastic block model with Gaussian class-mean features.

    Blocks are contiguous index ranges. Class means are unit-separated
    one-hot directions scaled by 1/sqrt(2) (so any two means are exactly
    distance 1 apart), then buried in isotropic noise. Split: 20 train and
    30 val nodes per class by lowest id, rest test.

    Edges come from one n x n uniform draw, taken a row at a time: pair
    (i, j), i < j, is an edge when its uniform is below p_in (same block) or
    p_out. The draw is O(n^2) time but O(n + edges) memory, so n above
    ``_SBM_MAX_NODES`` (20,000) is rejected before anything is drawn or
    allocated.
    """
    if n > _SBM_MAX_NODES:
        raise ValueError(
            f"n = {n} exceeds the SBM limit of {_SBM_MAX_NODES} nodes "
            "(the edge draw is O(n^2))"
        )
    if blocks < 2 or n < blocks:
        raise ValueError("need at least 2 blocks and n >= blocks")
    if not (p_in > p_out >= 0.0):
        raise ValueError("need p_in > p_out >= 0")
    if p_in > 1.0:
        raise ValueError("p_in must be a probability")
    if d < blocks:
        raise ValueError(f"feature width {d} cannot hold {blocks} class means")
    if not math.isfinite(noise_sigma):
        raise ValueError(f"noise_sigma must be finite, got {noise_sigma}")
    rng = np.random.default_rng(seed)
    labels = (np.arange(n) * blocks) // n
    ends = np.searchsorted(labels, labels, side="right")  # past each node's block
    # row i's columns above the diagonal, in order, so the pairs come sorted
    cols = []
    for i, end in enumerate(ends.tolist()):
        u = rng.random(n)
        keep = np.concatenate((u[i + 1 : end] < p_in, u[end:] < p_out))
        cols.append(np.flatnonzero(keep) + (i + 1))
    rows = np.repeat(np.arange(n), [c.size for c in cols])
    graph = Graph(num_nodes=n, edges=np.column_stack((rows, np.concatenate(cols))))
    means = np.zeros((blocks, d))
    means[np.arange(blocks), np.arange(blocks)] = 1.0 / math.sqrt(2.0)
    x = means[labels] + noise_sigma * rng.standard_normal((n, d))
    train, val, test = _split_masks(labels, 20, 30)
    return Dataset(
        ops=normalize(graph),
        x=x,
        labels=labels,
        train_mask=train,
        val_mask=val,
        test_mask=test,
    )


# Zachary's karate club: 34 members, 78 friendships, split into the two
# factions after the fission. Stored as each node's higher-indexed
# neighbors; labels are 0 for the instructor's faction, 1 for the
# president's.
_KARATE_ADJ: dict[int, tuple[int, ...]] = {
    0: (1, 2, 3, 4, 5, 6, 7, 8, 10, 11, 12, 13, 17, 19, 21, 31),
    1: (2, 3, 7, 13, 17, 19, 21, 30),
    2: (3, 7, 8, 9, 13, 27, 28, 32),
    3: (7, 12, 13),
    4: (6, 10),
    5: (6, 10, 16),
    6: (16,),
    8: (30, 32, 33),
    9: (33,),
    13: (33,),
    14: (32, 33),
    15: (32, 33),
    18: (32, 33),
    19: (33,),
    20: (32, 33),
    22: (32, 33),
    23: (25, 27, 29, 32, 33),
    24: (25, 27, 31),
    25: (31,),
    26: (29, 33),
    27: (33,),
    28: (31, 33),
    29: (32, 33),
    30: (32, 33),
    31: (32, 33),
    32: (33,),
}

_KARATE_LABELS = (
    0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 1, 0,
    0, 1, 0, 1, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
)


def karate_dataset() -> Dataset:
    """The karate club with one-hot degree features; 4 train + 4 val per class."""
    edges = tuple(
        (u, v) for u, nbrs in sorted(_KARATE_ADJ.items()) for v in nbrs
    )
    n = 34
    graph = Graph(num_nodes=n, edges=edges)
    degrees = np.bincount(np.concatenate((graph.us, graph.vs)), minlength=n)
    x = np.zeros((n, int(degrees.max()) + 1))
    x[np.arange(n), degrees] = 1.0
    labels = np.asarray(_KARATE_LABELS, dtype=np.int64)
    train, val, test = _split_masks(labels, 4, 4)
    return Dataset(
        ops=normalize(graph),
        x=x,
        labels=labels,
        train_mask=train,
        val_mask=val,
        test_mask=test,
    )


# ---------------------------------------------------------------------------
# depth sweep


def depth_sweep(
    ds: Dataset,
    cfg: TrainConfig,
    ks: Sequence[int],
    n_seeds: int = 10,
) -> list[dict]:
    """Train at each depth over n_seeds seeds; rows of (K, mean, std, accs),
    plus the depth's ``seed_epochs``, summed over its seeds.

    Seeds cfg.seed, cfg.seed + 1, ... of one depth train as one stack.
    """
    if n_seeds < 1:
        raise ValueError(f"n_seeds must be >= 1, got {n_seeds}")
    seeds = [cfg.seed + s for s in range(n_seeds)]
    rows = []
    for k in ks:
        reports = _train_seeds(ds, replace(cfg, k=k), seeds)
        chunk = np.array([rep.test_acc_at_best for rep in reports])
        rows.append(
            {
                "k": int(k),
                "mean_acc": float(chunk.mean()),
                "std_acc": float(chunk.std()),
                "accs": [float(a) for a in chunk],
                "seed_epochs": sum(rep.seed_epochs for rep in reports),
            }
        )
    return rows
