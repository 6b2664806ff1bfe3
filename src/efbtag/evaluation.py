"""Known-word / unknown-word / global error accounting."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .core import Vocabulary
from .dataio import Corpus, split_known_unknown
from .errors import InvalidInputError
from .tagger import Tagger


@dataclass(frozen=True)
class EvalReport:
    """Token-level error counts bucketed by training-vocabulary membership."""

    kw_errors: int
    kw_tokens: int
    uw_errors: int
    uw_tokens: int
    confusion: np.ndarray  # gold x predicted counts

    @property
    def global_errors(self) -> int:
        return self.kw_errors + self.uw_errors

    @property
    def total_tokens(self) -> int:
        return self.kw_tokens + self.uw_tokens

    @staticmethod
    def _rate(errors: int, tokens: int) -> float:
        return 100.0 * errors / tokens if tokens else 0.0

    @property
    def kw_rate(self) -> float:
        return self._rate(self.kw_errors, self.kw_tokens)

    @property
    def uw_rate(self) -> float:
        return self._rate(self.uw_errors, self.uw_tokens)

    @property
    def global_rate(self) -> float:
        return self._rate(self.global_errors, self.total_tokens)


def evaluate(tagger: Tagger, test: Corpus, train_vocab: Vocabulary) -> EvalReport:
    """Decode every test sentence and bucket errors by word novelty."""
    if len(test.sentences) == 0:
        raise InvalidInputError("test corpus is empty")
    n = len(tagger.tagset)
    decoded = (tagger.decode(s.tokens) for s in test.sentences)
    pred = np.fromiter(chain.from_iterable(decoded), np.intp)
    gold = np.fromiter(chain.from_iterable(s.labels for s in test.sentences), np.intp)
    unknown = np.fromiter(
        chain.from_iterable(split_known_unknown(test.sentences, train_vocab)), bool
    )
    confusion = np.zeros((n, n), dtype=np.int64)
    np.add.at(confusion, (gold, pred), 1)
    wrong = gold != pred
    uw_tokens = int(unknown.sum())
    uw_errors = int((wrong & unknown).sum())
    kw_tokens = unknown.size - uw_tokens
    kw_errors = int(wrong.sum()) - uw_errors
    return EvalReport(
        kw_errors=kw_errors,
        kw_tokens=kw_tokens,
        uw_errors=uw_errors,
        uw_tokens=uw_tokens,
        confusion=confusion,
    )


def format_table(report: EvalReport) -> str:
    lines = [
        f"{'bucket':<14}{'tokens':>10}{'errors':>10}{'error %':>10}",
        f"{'known':<14}{report.kw_tokens:>10}{report.kw_errors:>10}{report.kw_rate:>10.2f}",
        f"{'unknown':<14}{report.uw_tokens:>10}{report.uw_errors:>10}{report.uw_rate:>10.2f}",
        f"{'global':<14}{report.total_tokens:>10}{report.global_errors:>10}{report.global_rate:>10.2f}",
    ]
    return "\n".join(lines)


def format_kv(report: EvalReport, dataset: str, decoder: str, template: str) -> str:
    """Flat key-value emission, one fact per line, diffable in CI."""
    pairs = [
        ("dataset", dataset),
        ("decoder", decoder),
        ("template", template),
        ("kw_err", f"{report.kw_rate:.4f}"),
        ("uw_err", f"{report.uw_rate:.4f}"),
        ("global_err", f"{report.global_rate:.4f}"),
        ("kw_errors", report.kw_errors),
        ("kw_tokens", report.kw_tokens),
        ("uw_errors", report.uw_errors),
        ("uw_tokens", report.uw_tokens),
        ("global_errors", report.global_errors),
        ("total_tokens", report.total_tokens),
    ]
    return "\n".join(f"{k}={v}" for k, v in pairs)
