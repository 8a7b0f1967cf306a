"""Quality/diversity evaluation: BLEU-n, Diversity-n, Feature Coverage.

All scores are percentages. Diversity-n is the fraction of generated n-grams
that are distinct; FC-n is the fraction whose distinct grams also occur in
the test set. BLEU uses uniform weights over orders 1..n, clipped modified
precisions against the whole test corpus, no smoothing (any zero precision
gives score 0), and the closest-reference-length brevity penalty.
"""

import json
import math
from collections import Counter
from dataclasses import dataclass, field

from .errors import EmptyInputError


def ngrams(seq, n, pad_id=None):
    """Tuples of n >= 1 consecutive hashable tokens of seq, minus any holding pad_id."""
    grams = list(zip(*(seq[k:] for k in range(n))))
    if pad_id is not None:
        grams = [g for g in grams if pad_id not in g]
    return grams


def _all_ngrams(sequences, n, pad_id):
    return [g for seq in sequences for g in ngrams(seq, n, pad_id)]


def diversity_n(generated, n, pad_id=None) -> float:
    grams = _all_ngrams(generated, n, pad_id)
    if not grams:
        raise EmptyInputError(f"no {n}-grams in generated corpus")
    return 100.0 * len(set(grams)) / len(grams)


def fc_n(generated, test, n, pad_id=None) -> float:
    if len(test) == 0:
        raise EmptyInputError("empty test corpus")
    grams = _all_ngrams(generated, n, pad_id)
    if not grams:
        raise EmptyInputError(f"no {n}-grams in generated corpus")
    test_set = set(_all_ngrams(test, n, pad_id))
    covered = set(grams) & test_set
    return 100.0 * len(covered) / len(grams)


class _ReferenceIndex:
    """Per-order max n-gram counts and distinct sorted lengths over the test corpus."""

    def __init__(self, references, max_order, pad_id=None):
        if len(references) == 0:
            raise EmptyInputError("empty reference corpus")
        self.max_counts = [dict() for _ in range(max_order + 1)]
        self.lengths = sorted({len(r) for r in references})
        for ref in references:
            for k in range(1, max_order + 1):
                for gram, cnt in Counter(ngrams(ref, k, pad_id)).items():
                    prev = self.max_counts[k].get(gram, 0)
                    if cnt > prev:
                        self.max_counts[k][gram] = cnt

    def closest_length(self, c):
        # ties break toward the shorter reference
        return min(self.lengths, key=lambda r: (abs(r - c), r))


def _bleu_indexed(candidate, index: _ReferenceIndex, n, pad_id=None) -> float:
    log_precisions = []
    for k in range(1, n + 1):
        counts = Counter(ngrams(candidate, k, pad_id))
        total = sum(counts.values())
        if total == 0:
            return 0.0
        clipped = sum(min(cnt, index.max_counts[k].get(gram, 0)) for gram, cnt in counts.items())
        if clipped == 0:
            return 0.0
        log_precisions.append(math.log(clipped / total))
    c = len(candidate)
    r = index.closest_length(c)
    bp = 1.0 if c > r else math.exp(1.0 - r / c)
    return 100.0 * bp * math.exp(sum(log_precisions) / n)


def bleu_n(candidate, references, n, pad_id=None) -> float:
    """Sentence BLEU-n of one candidate against a reference set."""
    return _bleu_indexed(candidate, _ReferenceIndex(references, n, pad_id), n, pad_id)


def corpus_bleu_n(generated, test, n, pad_id=None) -> float:
    """Mean sentence BLEU-n, every test sentence serving as a reference."""
    if len(generated) == 0:
        raise EmptyInputError("empty generated corpus")
    index = _ReferenceIndex(test, n, pad_id)
    return sum(_bleu_indexed(g, index, n, pad_id) for g in generated) / len(generated)


@dataclass
class MetricsReport:
    bleu: dict = field(default_factory=dict)
    fc: dict = field(default_factory=dict)
    diversity: dict = field(default_factory=dict)
    sample_count: int = 0

    def to_json(self) -> str:
        def rounded(d):
            return {str(k): round(v, 2) for k, v in sorted(d.items())}

        return json.dumps(
            {
                "bleu": rounded(self.bleu),
                "fc": rounded(self.fc),
                "diversity": rounded(self.diversity),
                "samples": self.sample_count,
            }
        )


def full_report(generated, test, orders=(2, 3), pad_id=None) -> MetricsReport:
    report = MetricsReport(sample_count=len(generated))
    for n in orders:
        report.bleu[n] = corpus_bleu_n(generated, test, n, pad_id)
        report.diversity[n] = diversity_n(generated, n, pad_id)
        report.fc[n] = fc_n(generated, test, n, pad_id)
    return report
