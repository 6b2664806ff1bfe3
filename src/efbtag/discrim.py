"""Multinomial logistic regression over sparse feature ids, trained by SGD.

The same model class serves two conditionals: label given the token's
features, and next label given the previous label and the token's
features (the previous label enters as a one-hot block appended to the
feature id space).
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral
from typing import Optional, Sequence, Union

import numpy as np
from numpy.typing import ArrayLike

from .core import id_array
from .errors import InvalidInputError, NumericalDegeneracyError

# one training example: (active feature ids, previous label or None, target)
Example = tuple[Sequence[int], Optional[int], int]


@dataclass(frozen=True)
class ExampleColumns:
    """M examples as columns: (M, F) ids, (M,) previous labels or None, (M,) targets."""

    ids: np.ndarray
    prev_labels: Optional[np.ndarray]
    targets: np.ndarray

    def __len__(self) -> int:
        return len(self.targets)


# a training set: columns, or a list of examples whose id lists have one length
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
        if not all(isinstance(v, Integral) for v in (self.epochs, self.batch_size, self.seed)):
            raise InvalidInputError("epochs, batch size and seed must be integers")
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
    """The softmax of each row, written over `scores`, which the caller owns."""
    scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=-1, keepdims=True)
    return scores


def _as_batch(feature_ids) -> tuple[np.ndarray, bool]:
    """A (T, F) batch of inputs' ids as intp, or one input's ids as a batch of one."""
    ids = id_array(feature_ids, "feature ids")
    batch = ids.ndim == 2
    return (ids if batch else ids[np.newaxis]), batch


def _extra_rows(
    model: LogisticModel, ids: np.ndarray, prev_label=None, all_prev=False
) -> tuple:
    """The weight rows that each input of a (T, F) id batch adds after its
    feature ids' rows: its previous label's (one label for all inputs or
    one per input; none when `all_prev` or when the model does not
    condition on it), then the bias row.  The ids and previous labels are
    checked first, as arrays; values that are not integers raise instead
    of being truncated.
    """
    if ids.ndim != 2:
        raise InvalidInputError("a batch of feature ids must be two-dimensional")
    # two reductions decide; the mask is built only to name the first bad id
    if ids.size and (np.minimum.reduce(ids, axis=None) < 0
                     or np.maximum.reduce(ids, axis=None) >= model.n_features):
        bad = (ids < 0) | (ids >= model.n_features)
        raise InvalidInputError(f"feature id {int(ids[bad][0])} out of range")
    if model.conditions_on_prev and not all_prev:
        if prev_label is None or None in np.ravel(prev_label):
            raise InvalidInputError("model conditions on the previous label")
        prev = id_array(prev_label, "previous labels")
        if prev.ndim > 1 or prev.size not in (1, len(ids)):
            raise InvalidInputError(
                f"{len(ids)} inputs take one previous label or one each, not {prev.shape}"
            )
        out = (prev < 0) | (prev >= model.n_labels)
        if out.any():
            raise InvalidInputError(f"previous label {int(prev[out][0])} out of range")
        return model.n_features + prev, model.bias_row
    if prev_label is not None and any(p is not None for p in np.ravel(prev_label)):
        raise InvalidInputError("model does not condition on the previous label")
    return (model.bias_row,)


def _example_rows(model: LogisticModel, dataset: Dataset):
    """The (M, W) weight-row indices of a non-empty dataset in either form
    (row m: example m's feature ids, then `_extra_rows`), which SGD's
    scatter reads, and its intp targets."""
    cols = dataset if isinstance(dataset, ExampleColumns) else ExampleColumns(*zip(*dataset))
    targets = id_array(cols.targets, "labels")
    prevs = cols.prev_labels
    if len(cols.ids) != len(targets) or (prevs is not None and len(prevs) != len(targets)):
        raise InvalidInputError("a dataset needs one id row and label per example")
    if np.any((targets < 0) | (targets >= model.n_labels)):
        raise InvalidInputError("target label out of range")
    ids = id_array(cols.ids, "feature ids")
    extra = _extra_rows(model, ids, prevs)
    rows = np.empty((len(ids), ids.shape[1] + len(extra)), dtype=np.intp)
    rows[:, : ids.shape[1]] = ids
    for slot, row in enumerate(extra, ids.shape[1]):
        rows[:, slot] = row
    return rows, targets


def _row_sums(weights: np.ndarray, rows: np.ndarray, *extra) -> np.ndarray:
    """Each input's gathered weight rows summed in slot order: its (T, W)
    `rows`, then each of `extra` (one row index for all inputs, or one
    per input)."""
    # Gathered slot-major, (W, T, N): the reduction over axis 0 adds whole
    # (T, N) slabs one slot after another, so each input's sum is taken in
    # slot order exactly as summing its own (W, N) rows does, while every
    # addition runs over a contiguous slab instead of T short rows.  `take`
    # copies the rows fancy indexing copies, in about half the time.  The
    # extra rows are added after the slabs, in the same order, so scoring
    # needs no (T, W) table of row indices.
    sums = np.add.reduce(weights.take(rows.T, axis=0), axis=0)
    for row in extra:
        sums += weights[row]
    return sums


def predict(
    model: LogisticModel,
    feature_ids: ArrayLike,
    prev_label: Optional[int] | Sequence[int] = None,
) -> np.ndarray:
    """Softmax distribution over the N labels for one input.

    Given a batch of T inputs (a (T, F) id array, or T id sequences of one
    length), returns the (T, N) matrix whose row t is the prediction for
    input t, from one gather-sum-softmax; `prev_label` is then one label
    for every row or one per row.
    """
    ids, batch = _as_batch(feature_ids)
    extra = _extra_rows(model, ids, prev_label)
    probs = _softmax_rows(_row_sums(model.weights, ids, *extra))
    return probs if batch else probs[0]


# a step-table column whose factored normaliser is at most this may have
# lost its mass to underflow, so it is scored as a direct softmax instead
FACTOR_FLOOR = 1e-150


def predict_all_prev(model: LogisticModel, feature_ids: ArrayLike) -> np.ndarray:
    """N x N table whose column j is the prediction given previous label j.

    Given a batch of T inputs, returns the (T, N, N) stack of those tables.
    """
    if not model.conditions_on_prev:
        raise InvalidInputError("model does not condition on the previous label")
    ids, batch = _as_batch(feature_ids)
    extra = _extra_rows(model, ids, all_prev=True)
    base = _row_sums(model.weights, ids, *extra)  # [t, i]: input t's score of label i
    block = model.weights[model.n_features : model.n_features + model.n_labels]
    # softmax over i of base[t, i] + block[j, i] factors into exp(base - its
    # max) times exp(block - its max), normalised over i: N exponentials a
    # row, not N^2, written straight in [t, i, j] order
    scaled = base - base.max(axis=1, keepdims=True)
    np.exp(scaled, out=scaled)
    prev = block - block.max(axis=1, keepdims=True)
    np.exp(prev, out=prev)  # [j, i]
    # the normalisers as one (1, N) @ (N, N) product per input, so an
    # input's table never depends on the inputs scored with it; the tables
    # then take two passes, the product and the scaling
    norms = np.matmul(scaled[:, None, :], prev.T)[:, 0]  # [t, j]
    tables = np.multiply(scaled[:, :, None], prev.T, out=np.empty((len(base),) + prev.shape))
    if norms.min(initial=np.inf) > FACTOR_FLOOR:
        tables *= (1.0 / norms)[:, None, :]
    else:
        t, j = np.nonzero(norms <= FACTOR_FLOOR)
        norms[t, j] = 1.0
        tables *= (1.0 / norms)[:, None, :]
        tables[t, :, j] = _softmax_rows(base[t] + block[j])
    return tables if batch else tables[0]


def _l2_term(w: np.ndarray, l2: float) -> float:
    """(l2/2)*||w||^2, and exactly 0 when l2 is 0 even for overflowing weights."""
    return 0.5 * l2 * float((w * w).sum()) if l2 else 0.0


def _residuals(
    weights: np.ndarray, rows: np.ndarray, targets: np.ndarray, scale: float = 1.0
) -> tuple[np.ndarray, np.ndarray]:
    """The loss-and-gradient kernel of a (B, W) weight-row batch, scored at
    `scale` times its row sums (`train`'s lazy L2 scale): the (B, N) softmax
    minus one-hot targets, each example's gradient for each of its rows, and
    the (B,) probabilities of the targets."""
    sums = _row_sums(weights, rows)
    sums *= scale
    probs = _softmax_rows(sums)
    picked = np.arange(len(rows)), targets
    target_probs = probs[picked]
    probs[picked] -= 1.0
    return probs, target_probs


def loss_and_gradient(
    model: LogisticModel, batch: Dataset, l2: float = 0.0
) -> tuple[float, np.ndarray]:
    """Average negative log-likelihood plus (l2/2)*||w||^2, and its gradient,
    over a batch in either form of `train`."""
    w = model.weights
    grad = l2 * w
    loss = _l2_term(w, l2)
    if batch:
        rows, targets = _example_rows(model, batch)
        g, target_probs = _residuals(w, rows, targets)
        inv = 1.0 / len(batch)
        loss -= inv * float(np.log(target_probs).sum())
        np.add.at(grad, rows, (inv * g)[:, np.newaxis])
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
    rows, targets = _example_rows(model, dataset)
    w = model.weights
    flat_w = w.reshape(-1)  # a view: `zero_model` makes a C-ordered table
    # each weight's flat id at its place in the table, so a batch's ids in
    # (example, slot, label) order are one gather of its weight rows
    flat_ids = np.arange(w.size).reshape(w.shape)
    rng = np.random.default_rng(config.seed)
    n = len(dataset)
    scale = 1.0
    for epoch in range(config.epochs):
        rate = config.learning_rate / (1.0 + config.decay * epoch)
        order = rng.permutation(n)
        decay_factor = 1.0 - rate * config.l2
        for start in range(0, n, config.batch_size):
            batch_idx = order[start : start + config.batch_size]
            b_rows = rows.take(batch_idx, axis=0)  # (B, width)
            b_size = len(batch_idx)
            g, _ = _residuals(w, b_rows, targets.take(batch_idx), scale)
            scale *= decay_factor
            g *= rate / (b_size * scale)
            # flat ids in (example, slot, label) order: each weight takes its
            # updates in example order, through numpy's fast 1-D `ufunc.at`
            b_ids = flat_ids.take(b_rows, axis=0)  # (B, width, N)
            g = np.repeat(g, b_rows.shape[1], axis=0)  # row b * width + slot is g[b]
            np.subtract.at(flat_w, b_ids.ravel(), g.ravel())
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
    rows, targets = _example_rows(model, dataset)
    inv = 1.0 / len(dataset)
    for start in range(0, len(dataset), LOSS_CHUNK):
        chunk = slice(start, start + LOSS_CHUNK)
        _, target_probs = _residuals(w, rows[chunk], targets[chunk])
        loss -= inv * float(np.log(target_probs).sum())
    return loss
