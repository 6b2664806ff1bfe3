import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from efbtag.core import (
    LabeledSentence,
    PosteriorLattice,
    TagSet,
    Vocabulary,
    id_array,
    mpm_from_lattice,
    real_array,
)
from efbtag.errors import InvalidInputError


def as_lattice(values) -> PosteriorLattice:
    return PosteriorLattice(np.asarray(values, dtype=np.float64))


class TestTagSet:
    def test_roundtrip(self):
        ts = TagSet.from_labels(["NOUN", "VERB", "PUNCT"])
        assert len(ts) == 3
        for i, lab in enumerate(ts.labels):
            assert ts.id_of(lab) == i
            assert ts.label_of(i) == lab

    def test_duplicate_labels_rejected(self):
        with pytest.raises(InvalidInputError):
            TagSet.from_labels(["NOUN", "NOUN"])

    def test_unknown_label_rejected(self):
        with pytest.raises(InvalidInputError):
            TagSet.from_labels(["NOUN"]).id_of("VERB")


class TestVocabulary:
    def test_unknown_id_distinct(self):
        v = Vocabulary.from_words(["the", "cat"])
        assert v.unknown_id == 2
        assert v.id_of("the") == 0
        assert v.id_of("dog") == v.unknown_id

    def test_exact_surface_form(self):
        v = Vocabulary.from_words(["The"])
        assert "The" in v
        assert "the" not in v

    def test_from_words_dedupes_preserving_order(self):
        v = Vocabulary.from_words(["a", "b", "a", "c"])
        assert v.words == ("a", "b", "c")


class TestLabeledSentence:
    def test_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            LabeledSentence(tokens=("a", "b"), labels=(0,))

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            LabeledSentence(tokens=(), labels=())


class TestMpm:
    def test_strict_maximum(self):
        assert mpm_from_lattice(as_lattice([[0.9, 0.1]])) == [0]

    def test_tie_breaks_to_lowest_id(self):
        assert mpm_from_lattice(as_lattice([[0.5, 0.5]])) == [0]

    def test_worked_efb_lattice(self):
        # both rows of the two-state worked instance; values from the
        # path-enumeration oracle (0.3548571/0.396 at each position)
        lattice = as_lattice([[0.896104, 0.103896], [0.896104, 0.103896]])
        assert mpm_from_lattice(lattice) == [0, 0]

    def test_empty_lattice_rejected(self):
        with pytest.raises(InvalidInputError):
            PosteriorLattice(np.empty((0, 2)))

    def test_unnormalized_row_rejected(self):
        with pytest.raises(InvalidInputError):
            as_lattice([[0.4, 0.4]])

    @given(
        st.lists(
            st.lists(st.floats(0.01, 100.0), min_size=2, max_size=5),
            min_size=1,
            max_size=6,
        ).filter(lambda rows: len({len(r) for r in rows}) == 1),
        st.floats(0.1, 10.0),
    )
    def test_argmax_invariant_under_row_scaling(self, rows, c):
        raw = np.array(rows)
        # at near-ties scaling can round the two largest entries together;
        # the property holds only where the maximum wins by a margin
        top2 = np.sort(raw, axis=1)[:, -2:]
        assume(np.all(top2[:, 1] - top2[:, 0] > 1e-9 * top2[:, 1]))
        base = raw / raw.sum(axis=1, keepdims=True)
        scaled = (raw * c) / (raw * c).sum(axis=1, keepdims=True)
        assert mpm_from_lattice(PosteriorLattice(base)) == mpm_from_lattice(
            PosteriorLattice(scaled)
        )


class Tagged(np.ndarray):
    """An ndarray subclass, which the coercions return as a plain ndarray."""


# (values, what the coercion gives): "same" for the very object, an array
# for a new native array of those values, InvalidInputError for a refusal
SAME = "same"
ID_CASES = {
    "intp": (np.arange(6).reshape(2, 3), SAME),
    "empty intp": (np.empty((0, 2), dtype=np.intp), SAME),
    "big-endian": (np.arange(3, dtype=">i8"), np.arange(3)),
    "int32": (np.arange(3, dtype=np.int32), np.arange(3)),
    "uint8": (np.arange(3, dtype=np.uint8), np.arange(3)),
    "subclass": (np.arange(3).view(Tagged), np.arange(3)),
    "list": ([[1, 2], [3, 4]], np.array([[1, 2], [3, 4]])),
    "empty float": (np.empty(0), np.empty(0, dtype=np.intp)),
    "float": (np.arange(3.0), InvalidInputError),
    "bool": (np.ones(3, dtype=bool), InvalidInputError),
    "complex": (np.ones(3, dtype=complex), InvalidInputError),
    "object": (np.array([1, 2], dtype=object), InvalidInputError),
    "text": (np.array(["1", "2"]), InvalidInputError),
    "ragged": ([[1, 2], [3]], InvalidInputError),
}
REAL_CASES = {
    "float64": (np.linspace(0.0, 1.0, 6).reshape(2, 3), SAME),
    "empty float64": (np.empty((0, 2)), SAME),
    "big-endian": (np.arange(3, dtype=">f8"), np.arange(3.0)),
    "float32": (np.array([0.1, 2.5], dtype=np.float32), np.array([0.1, 2.5], dtype=np.float32)),
    "subclass": (np.arange(3.0).view(Tagged), np.arange(3.0)),
    "list": ([[0.5, 1], [2, 3]], np.array([[0.5, 1.0], [2.0, 3.0]])),
    "intp": (np.arange(3), np.arange(3.0)),
    "bool": (np.array([True, False]), np.array([1.0, 0.0])),
    "complex": (np.ones(3, dtype=complex), InvalidInputError),
    "object": (np.array([1.0, 2.0], dtype=object), InvalidInputError),
    "text": (np.array(["1", "2"]), InvalidInputError),
    "ragged": ([[1.0, 2.0], [3.0]], InvalidInputError),
}


def check_coercion(coerce, dtype, values, want):
    if want is InvalidInputError:
        with pytest.raises(InvalidInputError):
            coerce(values)
        return
    out = coerce(values)
    if want is SAME:
        assert out is values
        return
    assert type(out) is np.ndarray and out is not values
    assert out.dtype == dtype and out.dtype.isnative
    assert out.tobytes() == np.asarray(want, dtype=dtype).tobytes()


@pytest.mark.parametrize("values, want", ID_CASES.values(), ids=ID_CASES)
def test_id_array_returns_an_intp_array_as_it_is_and_converts_or_refuses_the_rest(values, want):
    check_coercion(lambda v: id_array(v, "ids"), np.intp, values, want)


@pytest.mark.parametrize("values, want", REAL_CASES.values(), ids=REAL_CASES)
def test_real_array_returns_a_float64_array_as_it_is_and_converts_or_refuses_the_rest(values, want):
    check_coercion(lambda v: real_array(v, "not real"), np.float64, values, want)
