import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from efbtag.core import (
    LabeledSentence,
    PosteriorLattice,
    TagSet,
    Vocabulary,
    mpm_from_lattice,
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
