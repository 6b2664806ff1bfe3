"""The paper's comparative claims, checked offline on synthetic corpora.

Acceptance criterion 7 checks them on UD English EWT, which is not
bundled, so it skips without that data.  This test checks two of its
claims on corpora from `benchmarks/gen.py`, which it imports: a fixed
synthetic language whose unknown words carry tag-bearing suffixes.

  (a) hmc-efb's global error is below memm's for every template;
  (c) hmc-efb's unknown-word error falls strictly from nf to lf1 to lf2.
"""

import importlib.util
import sys
from pathlib import Path

from efbtag.dataio import CorpusFormat, read_corpus
from efbtag.discrim import SgdConfig
from efbtag.evaluation import evaluate
from efbtag.features import FeatureTemplate
from efbtag.tagger import train_compare_pair

# loaded by path, so the benchmark directory's modules stay off sys.path;
# registered first, because its dataclasses look their module up there
_GEN = Path(__file__).resolve().parents[1] / "benchmarks" / "gen.py"
_spec = importlib.util.spec_from_file_location("efbtag_bench_gen", _GEN)
gen = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen)

SEED = 1
TOKENS = 10_000  # in each of the training and test corpora


def test_efb_beats_memm_and_features_help_unknown_words(tmp_path):
    lang = gen.Language()
    for part, name in enumerate(("train", "test")):
        sents = lang.sample([SEED, part], TOKENS, gen.ewt_lengths, 0.0)
        gen.write_conllu(tmp_path / f"{name}.conllu", sents)
    train = read_corpus(tmp_path / "train.conllu", CorpusFormat.CONLLU)
    test = read_corpus(tmp_path / "test.conllu", CorpusFormat.CONLLU, tagset=train.tagset)
    efb_uw = []
    for template in FeatureTemplate:  # nf, lf1, lf2
        efb_tagger, memm_tagger = train_compare_pair(train, template, SgdConfig())
        efb = evaluate(efb_tagger, test, train.vocab)
        memm = evaluate(memm_tagger, test, train.vocab)
        print(f"{template.value}: hmc-efb {efb.global_rate:.2f} % "
              f"(unknown {efb.uw_rate:.2f} %), memm {memm.global_rate:.2f} %")
        assert efb.global_rate < memm.global_rate, template.value  # (a)
        efb_uw.append(efb.uw_rate)
    assert efb_uw[0] > efb_uw[1] > efb_uw[2]  # (c)
