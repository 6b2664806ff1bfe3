"""Seeded synthetic tagging corpora shaped like UD English EWT.

A fixed synthetic "language" (tag chain, lexicon, morphology) is built
from a constant seed; the workload seed only decides which sentences are
sampled from it, so two seeds give different text with the same
statistics.  Open-class words are a Zipfian stem plus a tag-bearing
suffix, so affix features carry signal for unknown words.  The lexicon
covers every LF2 family: capitalised proper nouns, digit-bearing
numbers and hyphenated compounds.

Sentence lengths are drawn by stratified inverse-CDF sampling, so every
seed gets nearly the same length distribution and timings do not drift
with the seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from statistics import NormalDist

import numpy as np

LANGUAGE_SEED = 20200521

LABELS = (
    "NOUN", "VERB", "ADJ", "ADV", "PRON", "DET", "ADP", "AUX", "CCONJ",
    "SCONJ", "NUM", "PART", "INTJ", "PROPN", "PUNCT", "SYM", "X",
)

# closed classes: fixed word lists, Zipfian in list order; shared words
# ("that", "to", "as", ...) make the chain context matter
_CLOSED = {
    "PRON": "I you it he she we they that this what who me him them us there".split(),
    "DET": "the a an this that these those some any every no each all".split(),
    "ADP": "of in to for on with at by from about as into like over after".split(),
    "AUX": "is was be are have has had do did will would can could should been".split(),
    "CCONJ": "and or but nor so yet".split(),
    "SCONJ": "that if because as while when since although whether".split(),
    "PART": "to not 's n't up out off".split(),
    "INTJ": "oh yes no well hey please wow ok".split(),
    "PUNCT": [".", ",", "!", "?", ":", ";", "-", "(", ")", '"', "'", "--"],
    "SYM": ["$", "%", "&", "+", "=", "/", "*", "@", "#"],
}

# open classes: (suffixes, suffix probabilities); "" and "s" are shared
# between NOUN and VERB on purpose
_OPEN = {
    "NOUN": (["", "s", "er", "ers", "tion", "ment", "ness", "-work"],
             [0.30, 0.22, 0.10, 0.06, 0.10, 0.08, 0.08, 0.06]),
    "VERB": (["", "s", "ed", "ing", "es", "ize", "en"],
             [0.28, 0.14, 0.22, 0.20, 0.06, 0.05, 0.05]),
    "ADJ": (["al", "ous", "ive", "ful", "ish", "", "-like", "-based"],
            [0.18, 0.14, 0.14, 0.12, 0.10, 0.16, 0.08, 0.08]),
    "ADV": (["ly", "ward", "", "wise"], [0.70, 0.08, 0.14, 0.08]),
    "PROPN": (["", "son", "ton", "ia"], [0.55, 0.15, 0.15, 0.15]),
    "X": (["ez", "ur", "ich"], [0.4, 0.3, 0.3]),
}

_ONSETS = "b c d f g h j k l m n p r s t v w z br cr dr fl gr pl st tr sh ch".split()
_VOWELS = "a e i o u ai ea ou".split()
_CODAS = ["", "", "n", "r", "l", "m", "st", "nd", "k"]

STEM_POOL = 24000  # stems per open class seen by the Zipf law
ZIPF_EXPONENT = 1.3  # about 11% of held-out tokens unseen in 50k training tokens


@dataclass(frozen=True)
class Sentences:
    """Token and gold-label sequences of one generated corpus."""

    tokens: list[list[str]]
    labels: list[list[str]]


def _zipf_cdf(n: int, exponent: float) -> np.ndarray:
    w = 1.0 / np.arange(2.0, n + 2.0) ** exponent
    return np.cumsum(w) / w.sum()


class Language:
    """The fixed tag chain and lexicon; sampling from it takes a seed."""

    def __init__(self):
        rng = np.random.default_rng(LANGUAGE_SEED)
        n = len(LABELS)
        # sparse-ish chain: each tag prefers a few successors
        conc = np.full((n, n), 0.15)
        conc[:, LABELS.index("NOUN")] += 1.0
        conc[:, LABELS.index("PUNCT")] += 0.6
        conc[LABELS.index("DET"), [LABELS.index("NOUN"), LABELS.index("ADJ")]] += 6.0
        conc[LABELS.index("ADJ"), LABELS.index("NOUN")] += 5.0
        conc[LABELS.index("ADP"), [LABELS.index("DET"), LABELS.index("PROPN")]] += 4.0
        conc[[LABELS.index("PRON"), LABELS.index("AUX")], LABELS.index("VERB")] += 4.0
        self.trans_cdf = np.cumsum(rng.gamma(conc), axis=1)
        self.trans_cdf /= self.trans_cdf[:, -1:]
        start = np.full(n, 0.2)
        start[[LABELS.index("PRON"), LABELS.index("DET"), LABELS.index("PROPN")]] += 2.0
        self.start_cdf = np.cumsum(start) / start.sum()

        known = _make_stems(rng, STEM_POOL)
        # each open class ranks the shared stems differently, so a bare
        # stem is ambiguous and only its suffix tells the tag
        self.stems = {
            tag: [known[i] for i in rng.permutation(STEM_POOL)] for tag in _OPEN
        }
        self.stems["PROPN"] = [s.capitalize() for s in self.stems["PROPN"]]
        self.zipf_cdf = _zipf_cdf(STEM_POOL, ZIPF_EXPONENT)
        self.closed_cdf = {
            tag: _zipf_cdf(len(words), 1.0) for tag, words in _CLOSED.items()
        }

    def sample(
        self,
        seed: int | list[int],
        n_tokens: int,
        length_quantile,
        novel_share: float,
    ) -> Sentences:
        """About `n_tokens` tokens; `length_quantile` maps u in (0,1) to a length."""
        rng = np.random.default_rng(seed)
        lengths = _stratified_lengths(rng, n_tokens, length_quantile)
        labels = self._sample_labels(rng, lengths)
        flat = np.concatenate(labels)
        forms = np.empty(flat.size, dtype=object)
        for tag_id, tag in enumerate(LABELS):
            where = np.nonzero(flat == tag_id)[0]
            if where.size:
                forms[where] = self._forms(rng, tag, where.size, novel_share)
        cut = np.cumsum(lengths)[:-1]
        tokens = [list(part) for part in np.split(forms, cut)]
        names = [[LABELS[i] for i in lab] for lab in labels]
        return Sentences(tokens=tokens, labels=names)

    def _sample_labels(
        self, rng: np.random.Generator, lengths: np.ndarray
    ) -> list[np.ndarray]:
        n_sent, t_max = lengths.size, int(lengths.max())
        grid = np.empty((n_sent, t_max), dtype=np.int64)
        u = rng.random((n_sent, t_max))
        grid[:, 0] = np.searchsorted(self.start_cdf, u[:, 0], side="right")
        for t in range(1, t_max):
            cdf = self.trans_cdf[grid[:, t - 1]]
            grid[:, t] = (u[:, t : t + 1] >= cdf).sum(axis=1)
        np.minimum(grid, len(LABELS) - 1, out=grid)
        return [grid[i, : lengths[i]] for i in range(n_sent)]

    def _forms(
        self, rng: np.random.Generator, tag: str, k: int, novel_share: float
    ) -> list[str]:
        if tag in _CLOSED:
            words = _CLOSED[tag]
            idx = np.searchsorted(self.closed_cdf[tag], rng.random(k), side="right")
            return [words[i] for i in np.minimum(idx, len(words) - 1)]
        if tag == "NUM":
            return _numbers(rng, k)
        suffixes, probs = _OPEN[tag]
        suf = rng.choice(len(suffixes), size=k, p=probs)
        rank = np.searchsorted(self.zipf_cdf, rng.random(k), side="right")
        rank = np.minimum(rank, STEM_POOL - 1)
        stems = [self.stems[tag][r] for r in rank.tolist()]
        # unseen words: fresh random stems, distinct within one sample
        novel = np.nonzero(rng.random(k) < novel_share)[0]
        fresh = _make_stems(rng, novel.size)
        if tag == "PROPN":
            fresh = [s.capitalize() for s in fresh]
        for i, stem in zip(novel.tolist(), fresh):
            stems[i] = stem
        return [stem + suffixes[s] for stem, s in zip(stems, suf.tolist())]


def _make_stems(rng: np.random.Generator, count: int) -> list[str]:
    """`count` distinct pseudo-words of one to three syllables."""
    seen: dict[str, None] = {}
    while len(seen) < count:
        k = 2 * (count - len(seen))
        syl = rng.integers(1, 4, size=k).tolist()
        on = rng.integers(len(_ONSETS), size=(k, 3)).tolist()
        vo = rng.integers(len(_VOWELS), size=(k, 3)).tolist()
        co = rng.integers(len(_CODAS), size=(k, 3)).tolist()
        for i in range(k):
            stem = "".join(
                _ONSETS[on[i][j]] + _VOWELS[vo[i][j]] + _CODAS[co[i][j]]
                for j in range(syl[i])
            )
            if len(stem) >= 3:
                seen.setdefault(stem)
    return list(seen)[:count]


def _numbers(rng: np.random.Generator, k: int) -> list[str]:
    kind = rng.integers(4, size=k)
    small = rng.integers(0, 20, size=k)
    year = rng.integers(1950, 2030, size=k)
    frac = rng.integers(0, 1000, size=k)
    words = ("one", "two", "three", "ten", "hundred")
    out = []
    for kd, s, y, f in zip(kind.tolist(), small.tolist(), year.tolist(), frac.tolist()):
        if kd == 0:
            out.append(str(s))
        elif kd == 1:
            out.append(str(y))
        elif kd == 2:
            out.append(f"{s}.{f % 100}")
        else:
            out.append(words[f % len(words)] if f % 3 else f"{s}-{f % 50}")
    return out


def _stratified_lengths(
    rng: np.random.Generator, n_tokens: int, length_quantile
) -> np.ndarray:
    # stratified u keeps the empirical length distribution (and so the
    # work per run) nearly identical across seeds
    mean = float(np.mean(length_quantile((np.arange(4096) + 0.5) / 4096)))
    n_sent = max(1, int(round(n_tokens / mean)))
    u = (np.arange(n_sent) + rng.random(n_sent)) / n_sent
    lengths = np.maximum(1, np.rint(length_quantile(u))).astype(np.int64)
    return rng.permutation(lengths)


def ewt_lengths(u: np.ndarray) -> np.ndarray:
    """EWT-like sentence lengths: log-normal body, median about 14, mean about 17."""
    normal = NormalDist()
    z = np.array([normal.inv_cdf(float(x)) for x in np.clip(u, 1e-9, 1 - 1e-9)])
    return np.clip(np.exp(2.65 + 0.62 * z), 1, 160)


def stream_lengths(u: np.ndarray) -> np.ndarray:
    """Long-tailed lengths for single-sentence tagging: EWT body, Pareto tail to ~600."""
    body = ewt_lengths(np.minimum(u / 0.97, 1 - 1e-9))
    tail_u = np.clip((u - 0.97) / 0.03, 0.0, 1 - 1e-9)
    tail = 60.0 * (1.0 - tail_u) ** (-1.0 / 1.2)
    return np.where(u < 0.97, body, np.minimum(tail, 600.0))


def write_conllu(path: Path, sents: Sentences) -> None:
    """CoNLL-U with FORM and UPOS filled, every other column '_'."""
    lines = []
    for i, (toks, labs) in enumerate(zip(sents.tokens, sents.labels)):
        lines.append(f"# sent_id = {i + 1}")
        for j, (tok, lab) in enumerate(zip(toks, labs)):
            lines.append(f"{j + 1}\t{tok}\t_\t{lab}\t_\t_\t_\t_\t_\t_")
        lines.append("")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def input_stats(sents: Sentences, train_vocab: set[str] | None) -> dict:
    """Size, length quantiles, unseen share and feature-cache ceiling of an input."""
    lengths = np.array([len(s) for s in sents.tokens])
    q = np.quantile(lengths, [0.5, 0.9, 0.99, 1.0])
    pairs = [(tok, pos == 0) for toks in sents.tokens for pos, tok in enumerate(toks)]
    stats = {
        "tokens": int(lengths.sum()),
        "sentences": int(lengths.size),
        "length_p50": float(q[0]),
        "length_p90": float(q[1]),
        "length_p99": float(q[2]),
        "length_max": int(q[3]),
        "repeat_share": 1.0 - len(set(pairs)) / len(pairs),
    }
    if train_vocab is not None:
        flat = [tok for toks in sents.tokens for tok in toks]
        stats["unseen_share"] = sum(tok not in train_vocab for tok in flat) / len(flat)
    return stats
