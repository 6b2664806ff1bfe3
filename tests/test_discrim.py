import math

import numpy as np
import pytest

from efbtag.discrim import (
    LOSS_CHUNK,
    ExampleColumns,
    LogisticModel,
    SgdConfig,
    loss_and_gradient,
    mean_loss,
    predict,
    predict_all_prev,
    train,
    zero_model,
)
from efbtag.errors import InvalidInputError


def random_model(rng, n_features, n_labels, conditions_on_prev=False, scale=0.5):
    model = zero_model(n_features, n_labels, conditions_on_prev)
    model.weights[:] = rng.normal(0.0, scale, model.weights.shape)
    return model


class TestPredict:
    def test_zero_weights_uniform(self):
        model = zero_model(n_features=4, n_labels=3)
        assert predict(model, [0, 2]) == pytest.approx(np.full(3, 1 / 3))

    def test_binary_softmax_identity(self):
        c = 0.8
        model = zero_model(n_features=1, n_labels=2)
        model.weights[0] = [c, -c]
        p = predict(model, [0])
        sigma = 1.0 / (1.0 + math.exp(-2 * c))
        assert p[0] == pytest.approx(sigma, rel=1e-12)
        assert p[1] == pytest.approx(1 - sigma, rel=1e-12)

    def test_sums_to_one_and_positive(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            model = random_model(rng, 6, 4)
            p = predict(model, [1, 3, 5])
            assert abs(p.sum() - 1.0) <= 1e-12
            assert np.all(p > 0)

    def test_score_shift_invariance(self):
        rng = np.random.default_rng(1)
        model = random_model(rng, 3, 4)
        base = predict(model, [0])
        bumped_weights = model.weights.copy()
        bumped_weights[-1] += 3.25  # bias row shifts every label's score equally
        bumped = LogisticModel(bumped_weights, 3, 4, False)
        assert predict(bumped, [0]) == pytest.approx(base, rel=1e-12)

    def test_conditioning_mismatch_rejected(self):
        plain = zero_model(2, 2, conditions_on_prev=False)
        cond = zero_model(2, 2, conditions_on_prev=True)
        with pytest.raises(InvalidInputError):
            predict(plain, [0], prev_label=1)
        with pytest.raises(InvalidInputError):
            predict(cond, [0])

    def test_predict_all_prev_matches_per_prev_predict(self):
        rng = np.random.default_rng(2)
        model = random_model(rng, 5, 3, conditions_on_prev=True)
        table = predict_all_prev(model, [1, 4])
        for j in range(3):
            assert table[:, j] == pytest.approx(
                predict(model, [1, 4], prev_label=j), rel=1e-12
            )


class TestLossAndGradient:
    def test_zero_weights_binary_loss_is_ln2(self):
        model = zero_model(3, 2)
        loss, _ = loss_and_gradient(model, [([0], None, 1)])
        assert loss == pytest.approx(math.log(2), rel=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        step = 1e-5
        for trial in range(5):
            cond = trial % 2 == 1
            model = random_model(rng, 4, 3, conditions_on_prev=cond)
            batch = [
                (
                    list(rng.choice(4, size=2, replace=False)),
                    int(rng.integers(0, 3)) if cond else None,
                    int(rng.integers(0, 3)),
                )
                for _ in range(6)
            ]
            l2 = 0.01
            _, grad = loss_and_gradient(model, batch, l2=l2)
            for r in range(model.weights.shape[0]):
                for c in range(model.weights.shape[1]):
                    w_plus = model.weights.copy()
                    w_plus[r, c] += step
                    w_minus = model.weights.copy()
                    w_minus[r, c] -= step
                    lp, _ = loss_and_gradient(
                        LogisticModel(w_plus, 4, 3, cond), batch, l2=l2
                    )
                    lm, _ = loss_and_gradient(
                        LogisticModel(w_minus, 4, 3, cond), batch, l2=l2
                    )
                    fd = (lp - lm) / (2 * step)
                    denom = max(abs(fd), abs(grad[r, c]), 1e-8)
                    assert abs(fd - grad[r, c]) / denom <= 1e-5

    def test_zero_l2_ignores_overflowing_weights(self):
        # (w * w) overflows to inf here, and 0 * inf would be nan
        model = LogisticModel(np.full((4, 3), 1e200), 3, 3, False)
        data = [([0, 1], None, 1), ([1, 2], None, 0)]
        assert loss_and_gradient(model, data, l2=0.0)[0] == pytest.approx(math.log(3))
        assert mean_loss(model, data, l2=0.0) == pytest.approx(math.log(3))

    def test_zero_data_limit_is_regularizer_gradient(self):
        rng = np.random.default_rng(4)
        model = random_model(rng, 3, 2)
        l2 = 0.7
        loss, grad = loss_and_gradient(model, [], l2=l2)
        assert grad == pytest.approx(l2 * model.weights, rel=1e-12)
        assert loss == pytest.approx(0.5 * l2 * (model.weights**2).sum(), rel=1e-12)


class TestTrain:
    def test_separable_toy_set_perfect_accuracy(self):
        # one distinct feature per example, so any labeling is separable
        dataset = [
            ([0], None, 0),
            ([1], None, 1),
            ([2], None, 0),
            ([3], None, 1),
        ]
        config = SgdConfig(learning_rate=0.5, epochs=200, l2=0.0, batch_size=4)
        model = train(dataset, n_features=4, n_labels=2, config=config)
        for ids, _, target in dataset:
            assert int(np.argmax(predict(model, ids))) == target

    def test_determining_feature_drives_loss_down(self):
        dataset = [([i % 3], None, i % 3) for i in range(30)]
        config = SgdConfig(learning_rate=1.0, decay=0.0, epochs=300, l2=0.0)
        model = train(dataset, n_features=3, n_labels=3, config=config)
        assert mean_loss(model, dataset) < 0.05

    def test_zero_epochs_rejected(self):
        with pytest.raises(InvalidInputError):
            SgdConfig(epochs=0)

    def test_empty_dataset_rejected(self):
        with pytest.raises(InvalidInputError):
            train([], 2, 2, SgdConfig())

    def test_bitwise_deterministic(self):
        rng = np.random.default_rng(5)
        dataset = [
            (
                list(rng.choice(6, size=2, replace=False)),
                None,
                int(rng.integers(0, 3)),
            )
            for _ in range(40)
        ]
        config = SgdConfig(epochs=5, seed=123)
        a = train(dataset, 6, 3, config)
        b = train(dataset, 6, 3, config)
        assert np.array_equal(a.weights, b.weights)

    def test_duplicated_dataset_same_trajectory_under_full_batch(self):
        # full-batch mean gradients are identical for the doubled set
        dataset = [([0, 0], None, 0), ([1, 1], None, 1), ([0, 1], None, 0)]
        doubled = dataset * 2
        cfg = lambda n: SgdConfig(
            learning_rate=0.3, decay=0.1, epochs=25, l2=1e-3, batch_size=n
        )
        a = train(dataset, 2, 2, cfg(len(dataset)))
        b = train(doubled, 2, 2, cfg(len(doubled)))
        np.testing.assert_allclose(a.weights, b.weights, rtol=1e-12, atol=1e-14)

    def test_train_with_previous_label_conditioning(self):
        # target equals previous label; features are uninformative
        dataset = [([0], p, p) for p in (0, 1)] * 20
        config = SgdConfig(learning_rate=0.5, epochs=200, l2=0.0, batch_size=8)
        model = train(dataset, 1, 2, config, conditions_on_prev=True)
        assert int(np.argmax(predict(model, [0], prev_label=0))) == 0
        assert int(np.argmax(predict(model, [0], prev_label=1))) == 1


def example_rows(model, ids, prev):
    """One example's weight rows: its feature ids, previous-label row and bias row."""
    return list(ids) + ([] if prev is None else [model.n_features + prev]) + [model.bias_row]


def reference_train(dataset, n_features, n_labels, config, conditions_on_prev=False):
    """Per-example SGD: the loop `train` must reproduce byte for byte."""
    model = zero_model(n_features, n_labels, conditions_on_prev)
    w = model.weights
    rows = [example_rows(model, ids, prev) for ids, prev, _ in dataset]
    rng = np.random.default_rng(config.seed)
    scale = 1.0
    for epoch in range(config.epochs):
        rate = config.learning_rate / (1.0 + config.decay * epoch)
        order = rng.permutation(len(dataset))
        for start in range(0, len(dataset), config.batch_size):
            batch = order[start : start + config.batch_size]
            grads = []
            for b in batch:
                scores = scale * w[rows[b]].sum(axis=0)
                g = np.exp(scores - scores.max())
                g = g / g.sum()
                g[dataset[b][2]] -= 1.0
                grads.append(g)
            scale *= 1.0 - rate * config.l2
            step = rate / (len(batch) * scale)
            for b, g in zip(batch, grads):
                for r in rows[b]:
                    w[r] -= step * g
        w *= scale
        scale = 1.0
    return model


def sparse_dataset(rng, n, n_features, n_labels, widths, conditions_on_prev=False):
    return [
        (
            list(rng.choice(n_features, size=int(rng.choice(widths)), replace=False)),
            int(rng.integers(0, n_labels)) if conditions_on_prev else None,
            int(rng.integers(0, n_labels)),
        )
        for _ in range(n)
    ]


def as_columns(dataset):
    """`dataset` as `ExampleColumns` of the values as given, or None where its
    previous labels mix None with labels."""
    ids, prevs, targets = zip(*dataset)
    if len({p is None for p in prevs}) != 1:
        return None
    prevs = None if prevs[0] is None else np.array(prevs)
    return ExampleColumns(np.array(ids), prevs, np.array(targets))


def both_forms(dataset):
    """`dataset` as given, then as columns where it can be."""
    columns = as_columns(dataset)
    return [dataset] if columns is None else [dataset, columns]


# (name, widths, conditions_on_prev): plain and previous-label rows
LAYOUTS = [
    ("fixed", [3], False),
    ("fixed-prev", [2], True),
]


class TestSinglePaths:
    @pytest.mark.parametrize("name,widths,cond", LAYOUTS)
    def test_train_byte_equal_to_per_example_loop(self, name, widths, cond):
        rng = np.random.default_rng(61)
        dataset = sparse_dataset(rng, 150, 12, 4, widths, cond)
        config = SgdConfig(learning_rate=0.3, decay=0.1, epochs=4, l2=1e-3, batch_size=7)
        fast = train(dataset, 12, 4, config, conditions_on_prev=cond)
        ref = reference_train(dataset, 12, 4, config, conditions_on_prev=cond)
        assert fast.weights.tobytes() == ref.weights.tobytes()
        columns = as_columns(dataset)
        assert len(columns) == len(dataset)
        cols = train(columns, 12, 4, config, conditions_on_prev=cond)
        assert cols.weights.tobytes() == ref.weights.tobytes()

    @pytest.mark.parametrize("name,widths,cond", LAYOUTS)
    def test_mean_loss_equals_reference_loss(self, name, widths, cond):
        rng = np.random.default_rng(67)
        dataset = sparse_dataset(rng, 120, 10, 5, widths, cond)
        model = random_model(rng, 10, 5, conditions_on_prev=cond)
        ref, _ = loss_and_gradient(model, dataset, l2=0.03)
        assert mean_loss(model, dataset, l2=0.03) == pytest.approx(ref, rel=1e-12)
        columns = as_columns(dataset)
        assert mean_loss(model, columns, l2=0.03) == mean_loss(model, dataset, l2=0.03)

    @pytest.mark.parametrize("cond", [False, True], ids=["plain", "prev"])
    def test_sgd_steps_follow_checked_gradient(self, cond):
        # rate 1, no decay and no L2: each SGD step is minus the batch's
        # `loss_and_gradient`, with its examples in the order SGD visits them
        rng = np.random.default_rng(73)
        dataset = sparse_dataset(rng, 13, 8, 4, [2], cond)
        config = SgdConfig(learning_rate=1.0, decay=0.0, epochs=1, l2=0.0, batch_size=7)
        visits = lambda n: np.random.default_rng(config.seed).permutation(n)
        order = visits(len(dataset))
        first, second = ([dataset[i] for i in part] for part in (order[:7], order[7:]))
        w1 = -loss_and_gradient(zero_model(8, 4, cond), first)[1]
        # `first` arranged so that an epoch over it alone visits it as listed
        alone = [first[k] for k in np.argsort(visits(7))]
        assert np.array_equal(train(alone, 8, 4, config, cond).weights, w1)
        w2 = w1 - loss_and_gradient(LogisticModel(w1, 8, 4, cond), second)[1]
        final = train(dataset, 8, 4, config, cond).weights
        np.testing.assert_allclose(final, w2, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("cond", [False, True], ids=["plain", "prev"])
    @pytest.mark.parametrize("batch_size", [1, 20, 21, 64], ids=["one", "n", "n+1", "4n"])
    def test_batch_edges_byte_equal_to_per_example_loop(self, cond, batch_size):
        # one example a batch, the whole set as one batch, and a batch size past
        # n, where each epoch is one short batch
        rng = np.random.default_rng(79)
        dataset = sparse_dataset(rng, 20, 9, 4, [3], cond)
        config = SgdConfig(learning_rate=0.3, decay=0.1, epochs=3, l2=1e-3,
                           batch_size=batch_size)
        ref = reference_train(dataset, 9, 4, config, conditions_on_prev=cond)
        for data in both_forms(dataset):
            fast = train(data, 9, 4, config, conditions_on_prev=cond)
            assert fast.weights.tobytes() == ref.weights.tobytes()

    @pytest.mark.parametrize("cond", [False, True], ids=["plain", "prev"])
    def test_huge_batch_size_writes_the_bytes_of_one_whole_batch(self, cond):
        # a buffer sized by the batch size would ask for 8 TiB here and raise
        # MemoryError at once; the epoch is one batch of the 20 examples
        rng = np.random.default_rng(83)
        dataset = sparse_dataset(rng, 20, 9, 4, [3], cond)
        whole = SgdConfig(learning_rate=0.3, decay=0.1, epochs=3, l2=1e-3, batch_size=20)
        huge = SgdConfig(learning_rate=0.3, decay=0.1, epochs=3, l2=1e-3, batch_size=2**40)
        want = train(dataset, 9, 4, whole, conditions_on_prev=cond).weights.tobytes()
        assert train(dataset, 9, 4, huge, conditions_on_prev=cond).weights.tobytes() == want

    def test_mean_loss_over_several_chunks(self):
        rng = np.random.default_rng(71)
        dataset = sparse_dataset(rng, LOSS_CHUNK + 905, 30, 6, [5])
        model = random_model(rng, 30, 6)
        ref, _ = loss_and_gradient(model, dataset, l2=1e-2)
        assert mean_loss(model, dataset, l2=1e-2) == pytest.approx(ref, rel=1e-12)


# (name, conditions_on_prev, dataset): the last example of each breaks a
# precondition and the others are valid
BAD_EXAMPLES = [
    ("id-too-large", False, [([0, 1], None, 0), ([4, 0], None, 1)]),
    ("negative-id", False, [([0, 2], None, 0), ([1, -1], None, 1)]),
    ("fractional-id", False, [([0, 2], None, 0), ([1, 1.5], None, 1)]),
    ("prev-on-plain-model", False, [([0], None, 0), ([1], 2, 1)]),
    ("none-prev-on-conditioned", True, [([1], None, 1)]),
    ("mixed-prev-on-conditioned", True, [([0], 1, 0), ([1], None, 1)]),
    ("prev-too-large", True, [([0], 1, 0), ([1], 3, 1)]),
    ("negative-prev", True, [([0], 0, 0), ([1], -1, 1)]),
    ("fractional-prev", True, [([0], 1, 0), ([1], 1.7, 1)]),
    ("target-too-large", False, [([0, 1], None, 0), ([1, 3], None, 3)]),
    ("negative-target", True, [([0], 0, 1), ([1], 0, -1)]),
    ("fractional-target", False, [([0], None, 0), ([1], None, 1.5)]),
    ("float-target", True, [([0], 0, 1), ([1], 0, 1.0)]),
]


@pytest.mark.parametrize("entry", ["train", "mean_loss", "loss_and_gradient"])
@pytest.mark.parametrize(
    "cond,dataset", [b[1:] for b in BAD_EXAMPLES], ids=[b[0] for b in BAD_EXAMPLES]
)
def test_bad_example_rejected(entry, cond, dataset):
    for data in both_forms(dataset):
        with pytest.raises(InvalidInputError):
            if entry == "train":
                train(data, 4, 3, SgdConfig(epochs=1), conditions_on_prev=cond)
            elif entry == "mean_loss":
                mean_loss(zero_model(4, 3, cond), data)
            else:
                loss_and_gradient(zero_model(4, 3, cond), data)
    if len(dataset) > 1:  # the valid examples alone are accepted
        for data in both_forms(dataset[:-1]):
            train(data, 4, 3, SgdConfig(epochs=1), conditions_on_prev=cond)
            mean_loss(zero_model(4, 3, cond), data)
            loss_and_gradient(zero_model(4, 3, cond), data)


def test_negative_seed_rejected():
    with pytest.raises(InvalidInputError, match="seed must be >= 0"):
        SgdConfig(seed=-1)
    assert SgdConfig(seed=0).seed == 0


@pytest.mark.parametrize("field", ["epochs", "batch_size", "seed"])
def test_non_integer_counts_rejected(field):
    # each used to build, then fail inside `train` with a bare TypeError
    for value in (2.5, 2.0, "2"):
        with pytest.raises(InvalidInputError, match="must be integers"):
            SgdConfig(**{field: value})
    assert getattr(SgdConfig(**{field: np.int64(2)}), field) == 2


@pytest.mark.parametrize("entry", ["train", "mean_loss", "loss_and_gradient"])
def test_columns_of_unequal_length_rejected(entry):
    ids = np.array([[0], [1]])
    for bad in (ExampleColumns(ids, None, np.array([0])),
                ExampleColumns(ids, np.array([0]), np.array([0, 1]))):
        with pytest.raises(InvalidInputError, match="one id row and label per example"):
            if entry == "train":
                train(bad, 4, 3, SgdConfig(epochs=1), conditions_on_prev=True)
            elif entry == "mean_loss":
                mean_loss(zero_model(4, 3, True), bad)
            else:
                loss_and_gradient(zero_model(4, 3, True), bad)
