"""Supervised training of the hop-sum model on toy node-classification data.

The lower level is the linear hop-sum forward pass (propagated powers of
A_hat cached once and reused while they stay valid); the upper level is
masked cross-entropy over softmax outputs. Gradients are written out by
hand: the model is linear in every parameter block, so reverse mode is a
handful of inner products plus one reverse Horner recursion for the
optional input projection.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .graph_core import Graph, NormalizedOperators, add_self_loops, normalize, spmm

__all__ = [
    "Dataset",
    "UgdgnnParams",
    "TrainConfig",
    "TrainReport",
    "PropagationCache",
    "Grads",
    "AdamState",
    "softmax_rows",
    "cross_entropy_masked",
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
    graph: Graph
    ops: NormalizedOperators
    x: np.ndarray
    labels: np.ndarray
    train_mask: np.ndarray
    val_mask: np.ndarray
    test_mask: np.ndarray

    def __post_init__(self):
        n = self.graph.num_nodes
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


@dataclass
class UgdgnnParams:
    """Learnable state: hop coefficients, mixing scalars, per-hop weights.

    ``pre_w``/``pre_b`` form an optional linear input projection; it must
    land on the class dimension because the identity mixing branch adds
    propagated features straight into the logits. ``cache_tag`` counts
    projection updates so stale propagated-power caches are detectable.
    """

    gammas: np.ndarray
    zetas: np.ndarray
    xis: np.ndarray
    w: list[np.ndarray]
    pre_w: np.ndarray | None = None
    pre_b: np.ndarray | None = None
    tie_xi: bool = True
    cache_tag: int = 0

    def __post_init__(self):
        self.gammas = np.asarray(self.gammas, dtype=np.float64)
        self.zetas = np.asarray(self.zetas, dtype=np.float64)
        self.xis = np.asarray(self.xis, dtype=np.float64)
        kp1 = self.gammas.shape[0]
        if not (self.zetas.shape == self.xis.shape == (kp1,)):
            raise ValueError("gammas, zetas, xis must share length K+1")
        self.w = [np.asarray(w, dtype=np.float64) for w in self.w]
        if len(self.w) != kp1:
            raise ValueError(f"need {kp1} weight matrices, got {len(self.w)}")
        c = self.w[0].shape[1]
        for i, w in enumerate(self.w):
            if w.shape != (c, c):
                raise ValueError(
                    f"w[{i}] must be {c}x{c} (identity branch forces square), got {w.shape}"
                )
        if self.pre_w is not None:
            self.pre_w = np.asarray(self.pre_w, dtype=np.float64)
            if self.pre_w.shape[1] != c:
                raise ValueError(
                    f"projection must map onto the class width {c}, "
                    f"got {self.pre_w.shape}"
                )
            if self.pre_b is None:
                self.pre_b = np.zeros(c)
            self.pre_b = np.asarray(self.pre_b, dtype=np.float64)
            if self.pre_b.shape != (c,):
                raise ValueError("projection bias width mismatch")

    @property
    def k(self) -> int:
        return self.gammas.shape[0] - 1

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
        gammas = np.array(
            [alpha0 * (1.0 - alpha0) ** j for j in range(k)] + [(1.0 - alpha0) ** k]
        )
        c = num_classes
        limit = math.sqrt(6.0 / (c + c))
        w = [rng.uniform(-limit, limit, size=(c, c)) for _ in range(k + 1)]
        pre_w = pre_b = None
        if d_in != c:
            pre_limit = math.sqrt(6.0 / (d_in + c))
            pre_w = rng.uniform(-pre_limit, pre_limit, size=(d_in, c))
            pre_b = np.zeros(c)
        return cls(
            gammas=gammas,
            zetas=np.ones(k + 1),
            xis=np.zeros(k + 1),
            w=w,
            pre_w=pre_w,
            pre_b=pre_b,
            tie_xi=tie_xi,
        )


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
        if self.lr < 0:
            raise ValueError("lr must be nonnegative")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be nonnegative")
        if self.epochs < 1 or self.k < 0 or self.patience < 1:
            raise ValueError("epochs and patience must be >= 1, K >= 0")
        if not (0.0 < self.alpha0 < 1.0):
            raise ValueError("alpha0 must lie strictly in (0, 1)")
        if not (0.0 <= self.feature_dropout < 1.0):
            raise ValueError("feature_dropout must lie in [0, 1)")


@dataclass
class TrainReport:
    train_losses: list[float]
    val_accs: list[float]
    test_accs: list[float]
    best_epoch: int
    best_val_acc: float
    test_acc_at_best: float
    final_gammas: list[float]
    final_zetas: list[float]
    wall_clock_seconds: float
    diverged: bool = False

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
        }


# ---------------------------------------------------------------------------
# loss plumbing


def softmax_rows(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def cross_entropy_masked(
    probs: np.ndarray, labels: np.ndarray, mask: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean negative log-likelihood over masked rows, plus the logit gradient.

    The returned gradient is with respect to the logits that produced
    ``probs`` (softmax and loss fused): (probs - onehot) / count on masked
    rows, zero elsewhere.
    """
    mask = np.asarray(mask, dtype=bool)
    count = int(mask.sum())
    if count == 0:
        raise ValueError("mask selects no rows")
    rows = np.flatnonzero(mask)
    picked = probs[rows, labels[rows]]
    with np.errstate(divide="ignore"):
        loss = float(-np.log(picked).sum() / count)
    grad = np.zeros_like(probs)
    grad[rows] = probs[rows]
    grad[rows, labels[rows]] -= 1.0
    grad[rows] /= count
    return loss, grad


# ---------------------------------------------------------------------------
# forward / backward


@dataclass
class PropagationCache:
    p: list[np.ndarray]  # P_k = A_hat^k x', k = 0..K
    x_raw: np.ndarray
    ops: NormalizedOperators
    tag: int


def _build_cache(params: UgdgnnParams, ops: NormalizedOperators, x: np.ndarray) -> PropagationCache:
    xp = x if params.pre_w is None else x @ params.pre_w + params.pre_b
    p = [xp]
    for _ in range(params.k):
        p.append(spmm(ops, p[-1]))
    return PropagationCache(p=p, x_raw=x, ops=ops, tag=params.cache_tag)


def forward_logits(
    params: UgdgnnParams,
    ops: NormalizedOperators,
    x: np.ndarray,
    cache: PropagationCache | None = None,
) -> tuple[np.ndarray, PropagationCache]:
    """Hop-sum logits; rebuilds the propagated powers if the cache is stale."""
    if cache is None or cache.tag != params.cache_tag or cache.x_raw is not x:
        cache = _build_cache(params, ops, x)
    xis = params.effective_xis()
    logits = np.zeros_like(cache.p[0])
    for k in range(params.k + 1):
        pk = cache.p[k]
        term = params.zetas[k] * pk
        if xis[k] != 0.0:
            term = term + xis[k] * (pk @ params.w[k])
        logits += params.gammas[k] * term
    return logits, cache


@dataclass
class Grads:
    gammas: np.ndarray
    zetas: np.ndarray
    xis: np.ndarray
    w: list[np.ndarray]
    pre_w: np.ndarray | None = None
    pre_b: np.ndarray | None = None


def backward(
    params: UgdgnnParams, cache: PropagationCache, grad_logits: np.ndarray
) -> Grads:
    """Hand-written reverse mode through the hop-sum forward pass.

    With G the logit gradient and P_k the cached powers:
      dW_k    = gamma_k xi_k P_k^T G
      dgamma_k = zeta_k <P_k, G> + xi_k <P_k W_k, G>
      dzeta_k  = gamma_k <P_k, G>            (minus the W branch when tied)
      dxi_k    = gamma_k <P_k W_k, G>
    The projection gradient transports G back through each power of A_hat
    (A_hat is symmetric) with a reverse Horner recursion.
    """
    if cache.tag != params.cache_tag:
        raise ValueError("cache is stale: projection changed since it was built")
    g = np.asarray(grad_logits, dtype=np.float64)
    kp1 = params.k + 1
    xis = params.effective_xis()
    d_gam = np.zeros(kp1)
    d_zeta = np.zeros(kp1)
    d_xi = np.zeros(kp1)
    d_w = []
    for k in range(kp1):
        pk = cache.p[k]
        pg = float(np.sum(pk * g))
        pwg = float(np.sum((pk @ params.w[k]) * g))
        if xis[k] != 0.0:
            d_w.append(params.gammas[k] * xis[k] * (pk.T @ g))
        else:
            d_w.append(np.zeros_like(params.w[k]))
        d_gam[k] = params.zetas[k] * pg + xis[k] * pwg
        if params.tie_xi:
            d_zeta[k] = params.gammas[k] * (pg - pwg)
        else:
            d_zeta[k] = params.gammas[k] * pg
            d_xi[k] = params.gammas[k] * pwg
    grads = Grads(gammas=d_gam, zetas=d_zeta, xis=d_xi, w=d_w)
    if params.pre_w is not None:
        # S = sum_k gamma_k A_hat^k (G M_k^T) by reverse Horner, using that
        # A_hat is symmetric; then the projection gradients are X^T S and
        # the column sums of S.
        s = np.zeros_like(g)
        for k in range(params.k, -1, -1):
            if k < params.k:
                s = spmm(cache.ops, s)
            mk_t_g = params.zetas[k] * g
            if xis[k] != 0.0:
                mk_t_g = mk_t_g + xis[k] * (g @ params.w[k].T)
            s = s + params.gammas[k] * mk_t_g
        grads.pre_w = cache.x_raw.T @ s
        grads.pre_b = s.sum(axis=0)
    return grads


def predict(logits: np.ndarray) -> np.ndarray:
    """Class prediction; ties break toward the lowest class index."""
    return np.argmax(logits, axis=1)


def accuracy(logits: np.ndarray, labels: np.ndarray, mask: np.ndarray) -> float:
    mask = np.asarray(mask, dtype=bool)
    if not mask.any():
        raise ValueError("mask selects no rows")
    pred = predict(logits[mask])
    return float(np.mean(pred == labels[mask]))


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


def _leaves(params: UgdgnnParams) -> list[tuple[str, bool]]:
    """(leaf name, weight-decay applies) in a fixed order."""
    names: list[tuple[str, bool]] = [("gammas", False), ("zetas", False)]
    if not params.tie_xi:
        names.append(("xis", False))
    for i in range(len(params.w)):
        names.append((f"w{i}", True))
    if params.pre_w is not None:
        names.append(("pre_w", True))
        names.append(("pre_b", True))
    return names


def _get_leaf(obj, name: str) -> np.ndarray:
    if name.startswith("w") and name[1:].isdigit():
        return obj.w[int(name[1:])]
    return getattr(obj, name)


def _set_leaf(params: UgdgnnParams, name: str, value: np.ndarray) -> None:
    if name.startswith("w") and name[1:].isdigit():
        params.w[int(name[1:])] = value
    else:
        setattr(params, name, value)


@dataclass
class AdamState:
    t: int
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]

    @classmethod
    def init(cls, params: UgdgnnParams) -> "AdamState":
        m = {name: np.zeros_like(_get_leaf(params, name)) for name, _ in _leaves(params)}
        v = {name: np.zeros_like(arr) for name, arr in m.items()}
        return cls(t=0, m=m, v=v)


def adam_step(
    params: UgdgnnParams,
    grads: Grads,
    state: AdamState,
    lr: float,
    weight_decay: float,
) -> None:
    """Update every parameter leaf in place; decay touches weights only.

    The hop coefficients and mixing scalars stay undecayed: they are
    filter coefficients, and pulling them toward zero would bias the
    learned filter rather than regularize capacity.
    """
    state.t += 1
    for name, decays in _leaves(params):
        p = _get_leaf(params, name)
        g = _get_leaf(grads, name)
        if decays and weight_decay != 0.0:
            g = g + weight_decay * p
        new_p, state.m[name], state.v[name] = adam_update(
            p, g, state.m[name], state.v[name], state.t, lr
        )
        _set_leaf(params, name, new_p)
    if params.pre_w is not None:
        params.cache_tag += 1


# ---------------------------------------------------------------------------
# training


def train(ds: Dataset, cfg: TrainConfig) -> TrainReport:
    """Fit the hop-sum model with Adam and validation-accuracy early stopping.

    Initialization follows the restart-style coefficient profile from
    alpha0, identity mixing (tied), and Glorot weights; the projection is
    added only when the input width differs from the class count.
    """
    t_start = time.perf_counter()
    rng = np.random.default_rng(cfg.seed)
    c = ds.num_classes
    params = UgdgnnParams.init(rng, cfg.k, ds.x.shape[1], c, cfg.alpha0, tie_xi=True)
    state = AdamState.init(params)

    train_losses: list[float] = []
    val_accs: list[float] = []
    test_accs: list[float] = []
    best_val = -1.0
    best_val_loss = math.inf
    best_epoch = -1
    best_test = 0.0
    diverged = False
    cache: PropagationCache | None = None

    for epoch in range(cfg.epochs):
        if cfg.feature_dropout > 0.0:
            keep = 1.0 - cfg.feature_dropout
            x_epoch = ds.x * (rng.random(ds.x.shape) < keep) / keep
            cache = None
        else:
            x_epoch = ds.x
        logits, cache = forward_logits(params, ds.ops, x_epoch, cache)
        probs = softmax_rows(logits)
        loss, grad_logits = cross_entropy_masked(probs, ds.labels, ds.train_mask)
        if not math.isfinite(loss):
            diverged = True
            break
        if cfg.feature_dropout > 0.0:
            eval_logits, _ = forward_logits(params, ds.ops, ds.x, None)
            eval_probs = softmax_rows(eval_logits)
        else:
            eval_logits = logits
            eval_probs = probs
        val_acc = accuracy(eval_logits, ds.labels, ds.val_mask)
        val_loss, _ = cross_entropy_masked(eval_probs, ds.labels, ds.val_mask)
        test_acc = accuracy(eval_logits, ds.labels, ds.test_mask)
        train_losses.append(loss)
        val_accs.append(val_acc)
        test_accs.append(test_acc)
        # the val mask is small, so accuracy plateaus quickly; ties are
        # broken by validation loss, which keeps improving while the
        # decision boundary still moves
        if val_acc > best_val or (val_acc == best_val and val_loss < best_val_loss):
            best_val = val_acc
            best_val_loss = val_loss
            best_epoch = epoch
            best_test = test_acc
        if epoch - best_epoch >= cfg.patience:
            break
        grads = backward(params, cache, grad_logits)
        adam_step(params, grads, state, cfg.lr, cfg.weight_decay)

    return TrainReport(
        train_losses=train_losses,
        val_accs=val_accs,
        test_accs=test_accs,
        best_epoch=best_epoch,
        best_val_acc=best_val,
        test_acc_at_best=best_test,
        final_gammas=params.gammas.tolist(),
        final_zetas=params.zetas.tolist(),
        wall_clock_seconds=time.perf_counter() - t_start,
        diverged=diverged,
    )


# ---------------------------------------------------------------------------
# toy datasets


def _split_masks(
    labels: np.ndarray, per_class_train: int, per_class_val: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lowest node ids per class go to train, the next block to val."""
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


# Uniforms drawn per block of rows in sbm_generate (8 MiB of float64).
_SBM_DRAW_ENTRIES = 1 << 20


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
    """
    if blocks < 2 or n < blocks:
        raise ValueError("need at least 2 blocks and n >= blocks")
    if not (p_in > p_out >= 0.0):
        raise ValueError("need p_in > p_out >= 0")
    if p_in > 1.0:
        raise ValueError("p_in must be a probability")
    if d < blocks:
        raise ValueError(f"feature width {d} cannot hold {blocks} class means")
    rng = np.random.default_rng(seed)
    labels = (np.arange(n) * blocks) // n
    # The n x n uniform draw is taken a block of rows at a time: the same
    # stream as one full draw, without an n x n array.
    step = max(1, _SBM_DRAW_ENTRIES // n)
    edges = []
    for r0 in range(0, n, step):
        rows = labels[r0 : r0 + step, None]
        prob = np.where(rows == labels[None, :], p_in, p_out)
        upper = np.triu(rng.random(prob.shape) < prob, k=r0 + 1)
        edges.append(np.argwhere(upper) + (r0, 0))
    graph = add_self_loops(Graph(num_nodes=n, edges=np.concatenate(edges)))
    means = np.zeros((blocks, d))
    means[np.arange(blocks), np.arange(blocks)] = 1.0 / math.sqrt(2.0)
    x = means[labels] + noise_sigma * rng.standard_normal((n, d))
    train, val, test = _split_masks(labels, 20, 30)
    return Dataset(
        graph=graph,
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
    graph_plain = Graph(num_nodes=n, edges=edges)
    degrees = np.bincount(np.concatenate((graph_plain.us, graph_plain.vs)), minlength=n)
    x = np.zeros((n, int(degrees.max()) + 1))
    x[np.arange(n), degrees] = 1.0
    labels = np.asarray(_KARATE_LABELS, dtype=np.int64)
    graph = add_self_loops(graph_plain)
    train, val, test = _split_masks(labels, 4, 4)
    return Dataset(
        graph=graph,
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
    max_workers: int | None = None,
) -> list[dict]:
    """Train at each depth over n_seeds seeds; rows of (K, mean, std, accs).

    Cells are independent (each gets its own config), so they run on a
    thread pool when max_workers > 1; results are reassembled in (K, seed)
    order either way.
    """
    cells = [
        (k, replace(cfg, k=k, seed=cfg.seed + s))
        for k in ks
        for s in range(n_seeds)
    ]

    def run(cell):
        _, cell_cfg = cell
        return train(ds, cell_cfg).test_acc_at_best

    if max_workers is not None and max_workers > 1:
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            accs = list(pool.map(run, cells))
    else:
        accs = [run(cell) for cell in cells]

    rows = []
    for i, k in enumerate(ks):
        chunk = np.array(accs[i * n_seeds : (i + 1) * n_seeds])
        rows.append(
            {
                "k": int(k),
                "mean_acc": float(chunk.mean()),
                "std_acc": float(chunk.std()),
                "accs": [float(a) for a in chunk],
            }
        )
    return rows
