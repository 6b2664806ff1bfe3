"""Multinomial logistic regression over sparse feature ids, trained by SGD.

The same model class serves two conditionals: label given the token's
features, and next label given the previous label and the token's
features (the previous label enters as a one-hot block appended to the
feature id space).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Optional, Sequence, Union

import numpy as np

from .errors import InvalidInputError

# one training example: (active feature ids, previous label or None, target)
Example = tuple[Sequence[int], Optional[int], int]
# one input's feature ids, or a batch of them: a (T, F) array or a list of
# id sequences, which may differ in length
Ids = Union[Sequence[int], Sequence[Sequence[int]], np.ndarray]


@dataclass(frozen=True)
class SgdConfig:
    """Hyperparameters for mini-batch SGD with 1/(1 + decay*epoch) rate decay."""

    learning_rate: float = 0.1
    decay: float = 0.05
    epochs: int = 20
    l2: float = 1e-5
    batch_size: int = 32
    seed: int = 42

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise InvalidInputError("learning rate must be > 0")
        if self.epochs < 1:
            raise InvalidInputError("epochs must be >= 1")
        if self.batch_size < 1:
            raise InvalidInputError("batch size must be >= 1")
        if self.l2 < 0:
            raise InvalidInputError("l2 strength must be >= 0")


@dataclass(frozen=True)
class LogisticModel:
    """Weight table of shape (inputs + optional previous-label block + bias, N)."""

    weights: np.ndarray
    n_features: int
    n_labels: int
    conditions_on_prev: bool

    def __post_init__(self):
        d = self.n_features + (self.n_labels if self.conditions_on_prev else 0) + 1
        if self.weights.shape != (d, self.n_labels):
            raise InvalidInputError(
                f"weight table shape {self.weights.shape}, expected {(d, self.n_labels)}"
            )

    @property
    def bias_row(self) -> int:
        return self.weights.shape[0] - 1

    def active_rows(
        self, feature_ids: Sequence[int], prev_label: Optional[int]
    ) -> list[int]:
        if self.conditions_on_prev:
            if prev_label is None:
                raise InvalidInputError("model conditions on the previous label")
            if not 0 <= prev_label < self.n_labels:
                raise InvalidInputError(f"previous label {prev_label} out of range")
        elif prev_label is not None:
            raise InvalidInputError("model does not condition on the previous label")
        rows = list(feature_ids)
        for fid in rows:
            if not 0 <= fid < self.n_features:
                raise InvalidInputError(f"feature id {fid} out of range")
        if self.conditions_on_prev:
            rows.append(self.n_features + prev_label)
        rows.append(self.bias_row)
        return rows


def zero_model(
    n_features: int, n_labels: int, conditions_on_prev: bool = False
) -> LogisticModel:
    d = n_features + (n_labels if conditions_on_prev else 0) + 1
    return LogisticModel(
        weights=np.zeros((d, n_labels)),
        n_features=n_features,
        n_labels=n_labels,
        conditions_on_prev=conditions_on_prev,
    )


def _softmax_rows(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _is_batch(feature_ids) -> bool:
    """True for a batch of inputs' id sequences, False for one input's ids."""
    if isinstance(feature_ids, np.ndarray):
        return feature_ids.ndim == 2
    return len(feature_ids) > 0 and not isinstance(feature_ids[0], (int, np.integer))


def _batch_scores(model: LogisticModel, feature_ids) -> np.ndarray:
    """(T, N) summed weight rows of a batch of per-position id sequences.

    Each row is summed in its ids' order.  Ragged batches gather id 0
    into the missing slots and zero it, which adds exact zeros.
    """
    try:
        ids = np.asarray(feature_ids, dtype=np.intp)
        present = None
    except ValueError:  # ragged
        width = max(map(len, feature_ids))
        ids = np.zeros((len(feature_ids), width), dtype=np.intp)
        present = np.arange(width) < np.array([len(r) for r in feature_ids])[:, None]
        ids[present] = np.fromiter(chain.from_iterable(feature_ids), dtype=np.intp)
    if ids.ndim != 2:
        raise InvalidInputError("a batch of feature ids must be two-dimensional")
    bad = (ids < 0) | (ids >= model.n_features)
    if present is not None:
        bad &= present
    if bad.any():
        raise InvalidInputError(f"feature id {int(ids[bad][0])} out of range")
    rows = model.weights[ids]  # (T, F, N)
    if present is not None:
        rows[~present] = 0.0
    return rows.sum(axis=1)


def predict(
    model: LogisticModel,
    feature_ids: Ids,
    prev_label: Optional[int] | Sequence[int] = None,
) -> np.ndarray:
    """Softmax distribution over the N labels for one input.

    Given a batch of T inputs (a (T, F) id array or a list of id
    sequences), returns the (T, N) matrix whose row t is the prediction
    for input t, from one gather-sum-softmax; `prev_label` is then one
    label for every row or one per row.
    """
    batch = _is_batch(feature_ids)
    scores = _batch_scores(model, feature_ids if batch else [feature_ids])
    if model.conditions_on_prev:
        if prev_label is None:
            raise InvalidInputError("model conditions on the previous label")
        prev = np.broadcast_to(np.asarray(prev_label, dtype=np.intp), scores.shape[:1])
        out = (prev < 0) | (prev >= model.n_labels)
        if out.any():
            raise InvalidInputError(f"previous label {int(prev[out][0])} out of range")
        scores += model.weights[model.n_features + prev]
    elif prev_label is not None:
        raise InvalidInputError("model does not condition on the previous label")
    scores += model.weights[model.bias_row]
    probs = _softmax_rows(scores)
    return probs if batch else probs[0]


def predict_all_prev(model: LogisticModel, feature_ids: Ids) -> np.ndarray:
    """N x N table whose column j is the prediction given previous label j.

    Given a batch of T inputs, returns the (T, N, N) stack of those tables.
    """
    if not model.conditions_on_prev:
        raise InvalidInputError("model does not condition on the previous label")
    batch = _is_batch(feature_ids)
    base = _batch_scores(model, feature_ids if batch else [feature_ids])
    base += model.weights[model.bias_row]
    block = model.weights[model.n_features : model.n_features + model.n_labels]
    scores = base[:, None, :] + block  # [t, j]: scores at t given prev=j
    tables = _softmax_rows(scores).transpose(0, 2, 1)
    return tables if batch else tables[0]


def loss_and_gradient(
    model: LogisticModel, batch: Sequence[Example], l2: float = 0.0
) -> tuple[float, np.ndarray]:
    """Average negative log-likelihood plus (l2/2)*||w||^2, and its gradient."""
    w = model.weights
    grad = l2 * w
    loss = 0.5 * l2 * float((w * w).sum())
    if batch:
        inv = 1.0 / len(batch)
        for feature_ids, prev_label, target in batch:
            rows = model.active_rows(feature_ids, prev_label)
            p = _softmax_rows(w[rows].sum(axis=0))
            loss -= inv * float(np.log(p[target]))
            g = p.copy()
            g[target] -= 1.0
            np.add.at(grad, rows, inv * g)
    return loss, grad


def _padded_rows(
    model: LogisticModel, dataset: Sequence[Example]
) -> tuple[np.ndarray, np.ndarray]:
    """Every example's active weight rows as one (examples, width) array, plus targets.

    Rows shorter than the widest are padded with index
    `model.weights.shape[0]`, one past the last weight row; callers
    gather from a weight table with a zero row appended there, so padding
    adds exact zeros to every score.
    """
    rows_list = [model.active_rows(ids, prev) for ids, prev, _ in dataset]
    targets = np.array([t for _, _, t in dataset], dtype=np.intp)
    if np.any(targets < 0) or np.any(targets >= model.n_labels):
        raise InvalidInputError("target label out of range")
    width = max(map(len, rows_list))
    fill = [model.weights.shape[0]]
    rows = np.fromiter(
        chain.from_iterable(r + fill * (width - len(r)) for r in rows_list),
        dtype=np.intp,
        count=len(rows_list) * width,
    )
    return rows.reshape(len(rows_list), width), targets


def train(
    dataset: Sequence[Example],
    n_features: int,
    n_labels: int,
    config: SgdConfig,
    conditions_on_prev: bool = False,
) -> LogisticModel:
    """Mini-batch SGD on L2-regularized cross-entropy, deterministic per seed.

    L2 decay is applied as a lazily tracked global scale so each batch
    only touches the weight rows active in it.
    """
    if len(dataset) == 0:
        raise InvalidInputError("dataset must be non-empty")
    model = zero_model(n_features, n_labels, conditions_on_prev)
    rows, targets = _padded_rows(model, dataset)
    pad = model.weights.shape[0]
    w = np.zeros((pad + 1, n_labels))  # row `pad` is the zero row padding points at
    model = LogisticModel(w[:pad], n_features, n_labels, conditions_on_prev)
    rng = np.random.default_rng(config.seed)
    n = len(dataset)
    scale = 1.0
    for epoch in range(config.epochs):
        rate = config.learning_rate / (1.0 + config.decay * epoch)
        order = rng.permutation(n)
        decay_factor = 1.0 - rate * config.l2
        for start in range(0, n, config.batch_size):
            batch_idx = order[start : start + config.batch_size]
            b_rows = rows[batch_idx]  # (B, width)
            b_size = len(batch_idx)
            g = _softmax_rows(scale * w[b_rows].sum(axis=1))
            g[np.arange(b_size), targets[batch_idx]] -= 1.0
            scale *= decay_factor
            g *= rate / (b_size * scale)
            np.subtract.at(w, b_rows.reshape(-1), np.repeat(g, b_rows.shape[1], axis=0))
            w[pad] = 0.0  # undo the scatter into the padding row
        # fold the lazy scale back in once per epoch to limit drift
        w *= scale
        scale = 1.0
    return model


# examples per chunk in `mean_loss`, so its peak memory does not grow with
# the dataset
LOSS_CHUNK = 1024


def mean_loss(
    model: LogisticModel, dataset: Sequence[Example], l2: float = 0.0
) -> float:
    """The loss of `loss_and_gradient`, computed without the gradient."""
    w = model.weights
    loss = 0.5 * l2 * float((w * w).sum())
    if len(dataset) == 0:
        return loss
    w = np.vstack([w, np.zeros((1, model.n_labels))])
    inv = 1.0 / len(dataset)
    for start in range(0, len(dataset), LOSS_CHUNK):
        rows, targets = _padded_rows(model, dataset[start : start + LOSS_CHUNK])
        p = _softmax_rows(w[rows].sum(axis=1))
        loss -= inv * float(np.log(p[np.arange(len(targets)), targets]).sum())
    return loss
