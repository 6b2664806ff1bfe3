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

from .errors import InvalidInputError, NumericalDegeneracyError

# one training example: (active feature ids, previous label or None, target)
Example = tuple[Sequence[int], Optional[int], int]
# one input's feature ids, or a batch of them: a (T, F) array or a list of
# id sequences, which may differ in length
Ids = Union[Sequence[int], Sequence[Sequence[int]], np.ndarray]


@dataclass(frozen=True)
class ExampleColumns:
    """M examples as columns: (M, F) ids, (M,) previous labels or None, (M,) targets."""

    ids: np.ndarray
    prev_labels: Optional[np.ndarray]
    targets: np.ndarray

    def __len__(self) -> int:
        return len(self.targets)


# a training set: columns, or a list of examples whose id lists may be ragged
Dataset = Union[ExampleColumns, Sequence[Example]]


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
        if not np.isfinite([self.learning_rate, self.decay, self.l2]).all():
            raise InvalidInputError("learning rate, decay and l2 must be finite")
        if self.learning_rate <= 0:
            raise InvalidInputError("learning rate must be > 0")
        if self.epochs < 1:
            raise InvalidInputError("epochs must be >= 1")
        if self.batch_size < 1:
            raise InvalidInputError("batch size must be >= 1")
        if self.l2 < 0:
            raise InvalidInputError("l2 strength must be >= 0")
        if self.decay < 0:
            raise InvalidInputError("learning-rate decay must be >= 0")
        if self.learning_rate * self.l2 >= 1:
            raise InvalidInputError("learning rate * l2 must be < 1")
        if self.seed < 0:
            raise InvalidInputError("seed must be >= 0")


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


def _as_batch(feature_ids) -> tuple[Ids, bool]:
    """A batch of inputs' id sequences as is, or one input's ids as a batch of one."""
    if isinstance(feature_ids, np.ndarray):
        batch = feature_ids.ndim == 2
    else:
        batch = len(feature_ids) > 0 and not isinstance(feature_ids[0], (int, np.integer))
    return (feature_ids if batch else np.asarray(feature_ids)[np.newaxis]), batch


def _weight_rows(
    model: LogisticModel, feature_ids, prev_label=None, targets=None, all_prev=False
) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """(T, W) weight-row indices of a batch of T inputs, in `active_rows` order.

    Row t holds input t's feature ids, its previous-label row (one label for
    all or one per input; none when `all_prev`) and the bias row.  A ragged
    batch points its missing slots at row 0 and also returns the (T, W) mask
    of real slots.  Ids, previous labels and `targets` are checked as arrays.
    """
    try:
        ids = np.asarray(feature_ids, dtype=np.intp)
        real, mask = ids, None
    except ValueError:  # ragged
        lengths = np.fromiter(map(len, feature_ids), dtype=np.intp)
        mask = np.arange(lengths.max()) < lengths[:, None]
        real = np.fromiter(chain.from_iterable(feature_ids), dtype=np.intp)
        ids = np.zeros(mask.shape, dtype=np.intp)
        ids[mask] = real
    if ids.ndim != 2:
        raise InvalidInputError("a batch of feature ids must be two-dimensional")
    bad = (real < 0) | (real >= model.n_features)
    if bad.any():
        raise InvalidInputError(f"feature id {int(real[bad][0])} out of range")
    if targets is not None and np.any((targets < 0) | (targets >= model.n_labels)):
        raise InvalidInputError("target label out of range")
    has_prev = model.conditions_on_prev and not all_prev
    if has_prev:
        try:
            prev = np.asarray(prev_label, dtype=np.intp)
        except TypeError:  # None, or None among the labels
            raise InvalidInputError("model conditions on the previous label") from None
        out = (prev < 0) | (prev >= model.n_labels)
        if out.any():
            raise InvalidInputError(f"previous label {int(prev[out][0])} out of range")
    elif prev_label is not None and any(p is not None for p in np.ravel(prev_label)):
        raise InvalidInputError("model does not condition on the previous label")
    rows = np.empty((len(ids), ids.shape[1] + 1 + has_prev), dtype=np.intp)
    rows[:, : ids.shape[1]] = ids
    if has_prev:
        rows[:, -2] = model.n_features + prev
    rows[:, -1] = model.bias_row
    if mask is not None:
        mask = np.hstack([mask, np.ones((len(ids), 1 + has_prev), dtype=bool)])
    return rows, mask


def _example_rows(model: LogisticModel, dataset: Dataset):
    """`_weight_rows` of a non-empty dataset in either form, and its intp targets."""
    cols = dataset if isinstance(dataset, ExampleColumns) else ExampleColumns(*zip(*dataset))
    targets = np.asarray(cols.targets, dtype=np.intp)
    prevs = cols.prev_labels
    if len(cols.ids) != len(targets) or (prevs is not None and len(prevs) != len(targets)):
        raise InvalidInputError("a dataset needs one id row and label per example")
    rows, mask = _weight_rows(model, cols.ids, prevs, targets)
    return rows, mask, targets


def _row_sums(weights: np.ndarray, rows: np.ndarray, mask: Optional[np.ndarray]):
    """Each input's gathered weight rows summed in slot order, masked slots zeroed."""
    # Gathered slot-major, (W, T, N): the reduction over axis 0 adds whole
    # (T, N) slabs one slot after another, so each input's sum is taken in
    # slot order exactly as summing its own (W, N) rows does, while every
    # addition runs over a contiguous slab instead of T short rows.
    gathered = weights[rows.T]
    if mask is not None:
        gathered[~mask.T] = 0.0
    return np.add.reduce(gathered, axis=0)


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
    ids, batch = _as_batch(feature_ids)
    rows, mask = _weight_rows(model, ids, prev_label)
    probs = _softmax_rows(_row_sums(model.weights, rows, mask))
    return probs if batch else probs[0]


def predict_all_prev(model: LogisticModel, feature_ids: Ids) -> np.ndarray:
    """N x N table whose column j is the prediction given previous label j.

    Given a batch of T inputs, returns the (T, N, N) stack of those tables.
    """
    if not model.conditions_on_prev:
        raise InvalidInputError("model does not condition on the previous label")
    ids, batch = _as_batch(feature_ids)
    rows, mask = _weight_rows(model, ids, all_prev=True)
    base = _row_sums(model.weights, rows, mask)
    block = model.weights[model.n_features : model.n_features + model.n_labels]
    scores = base[:, None, :] + block  # [t, j]: scores at t given prev=j
    tables = _softmax_rows(scores).transpose(0, 2, 1)
    return tables if batch else tables[0]


def _l2_term(w: np.ndarray, l2: float) -> float:
    """(l2/2)*||w||^2, and exactly 0 when l2 is 0 even for overflowing weights."""
    return 0.5 * l2 * float((w * w).sum()) if l2 else 0.0


def loss_and_gradient(
    model: LogisticModel, batch: Sequence[Example], l2: float = 0.0
) -> tuple[float, np.ndarray]:
    """Average negative log-likelihood plus (l2/2)*||w||^2, and its gradient."""
    w = model.weights
    grad = l2 * w
    loss = _l2_term(w, l2)
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


@np.errstate(over="ignore", invalid="ignore")  # divergence is checked per epoch
def train(
    dataset: Dataset,
    n_features: int,
    n_labels: int,
    config: SgdConfig,
    conditions_on_prev: bool = False,
) -> LogisticModel:
    """Mini-batch SGD on L2-regularized cross-entropy, deterministic per seed.

    `dataset` is an `ExampleColumns` or a list of `Example` tuples; both
    forms of the same examples give the same model.  L2 decay is applied
    as a lazily tracked global scale so each batch only touches the weight
    rows active in it.  A batch's updates reach each weight in example
    order, so the model is bitwise the one a per-example loop would write.
    Weights that are not all finite after an epoch raise
    NumericalDegeneracyError.
    """
    if len(dataset) == 0:
        raise InvalidInputError("dataset must be non-empty")
    model = zero_model(n_features, n_labels, conditions_on_prev)
    rows, mask, targets = _example_rows(model, dataset)
    w = model.weights
    flat_w = w.reshape(-1)  # a view: `zero_model` makes a C-ordered table
    cols = np.arange(n_labels)
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
            b_mask = None if mask is None else mask[batch_idx]
            b_size = len(batch_idx)
            g = _softmax_rows(scale * _row_sums(w, b_rows, b_mask))
            g[np.arange(b_size), targets[batch_idx]] -= 1.0
            scale *= decay_factor
            g *= rate / (b_size * scale)
            # flat ids in (example, slot, label) order: each weight takes its
            # updates in example order, through numpy's fast 1-D `ufunc.at`
            flat_ids = b_rows[:, :, None] * n_labels + cols
            g = np.broadcast_to(g[:, None, :], flat_ids.shape)
            if b_mask is not None:
                flat_ids, g = flat_ids[b_mask], g[b_mask]
            np.subtract.at(flat_w, flat_ids.ravel(), g.ravel())
        # fold the lazy scale back in once per epoch to limit drift
        w *= scale
        scale = 1.0
        if not np.isfinite(w).all():
            raise NumericalDegeneracyError(
                f"training diverged: weights not finite after epoch {epoch + 1}"
            )
    return model


# examples per chunk in `mean_loss`, so its peak memory does not grow with
# the dataset
LOSS_CHUNK = 1024


@np.errstate(all="ignore")  # a non-finite loss is the caller's to reject
def mean_loss(model: LogisticModel, dataset: Dataset, l2: float = 0.0) -> float:
    """The loss of `loss_and_gradient` over a dataset in either form of `train`."""
    w = model.weights
    loss = _l2_term(w, l2)
    if len(dataset) == 0:
        return loss
    rows, mask, targets = _example_rows(model, dataset)
    inv = 1.0 / len(dataset)
    for start in range(0, len(dataset), LOSS_CHUNK):
        chunk = slice(start, start + LOSS_CHUNK)
        scores = _row_sums(w, rows[chunk], None if mask is None else mask[chunk])
        p = _softmax_rows(scores)
        loss -= inv * float(np.log(p[np.arange(len(p)), targets[chunk]]).sum())
    return loss
