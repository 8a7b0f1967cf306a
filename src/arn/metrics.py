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
from itertools import repeat

from .errors import ConfigError, EmptyInputError


def ngrams(seq, n, pad_id=None):
    """Tuples of n >= 1 consecutive hashable tokens of seq, minus any holding pad_id."""
    if n > len(seq):
        return []
    grams = list(zip(*(seq[k:] for k in range(n))))
    if pad_id is not None:
        grams = [g for g in grams if pad_id not in g]
    return grams


def _ngrams_upto(seq, max_order, pad_id=None):
    """ngrams(seq, k, pad_id) for k = 1..max_order, cut at the first empty order (all above are too)."""
    by_order = []
    for k in range(1, max_order + 1):
        grams = ngrams(seq, k, pad_id)
        if not grams:
            break
        by_order.append(grams)
    return by_order


def _all_ngrams(sequences, n, pad_id):
    return [g for seq in sequences for g in ngrams(seq, n, pad_id)]


def _distinct(grams, n):
    """The distinct n-grams of a generated corpus's pooled n-grams, of which there must be some."""
    if not grams:
        raise EmptyInputError(f"no {n}-grams in generated corpus")
    return set(grams)


def _diversity(grams, distinct):
    return 100.0 * len(distinct) / len(grams)


def _coverage(grams, distinct, test_grams):
    return 100.0 * len(test_grams & distinct) / len(grams)


def diversity_n(generated, n, pad_id=None) -> float:
    grams = _all_ngrams(generated, n, pad_id)
    return _diversity(grams, _distinct(grams, n))


def fc_n(generated, test, n, pad_id=None) -> float:
    if len(test) == 0:
        raise EmptyInputError("empty test corpus")
    grams = _all_ngrams(generated, n, pad_id)
    return _coverage(grams, _distinct(grams, n), set(_all_ngrams(test, n, pad_id)))


def _check_orders(orders):
    if min(orders) < 1:
        raise ConfigError(f"n-gram orders must be positive integers, got {tuple(orders)}")


class _ReferenceIndex:
    """Per-order max n-gram counts and distinct sorted lengths over the test corpus.

    The keys of max_counts[k] are the test corpus's distinct k-grams.
    """

    def __init__(self, references, max_order, pad_id=None):
        if len(references) == 0:
            raise EmptyInputError("empty reference corpus")
        self.lengths = sorted({len(r) for r in references})
        self.max_counts = [dict() for _ in range(max_order + 1)]
        for ref in references:
            for max_counts, grams in zip(self.max_counts[1:], _ngrams_upto(ref, max_order, pad_id)):
                for gram, cnt in Counter(grams).items():
                    if cnt > max_counts.get(gram, 0):
                        max_counts[gram] = cnt

    def closest_length(self, c):
        # ties break toward the shorter reference
        return min(self.lengths, key=lambda r: (abs(r - c), r))


def _sentence_bleus(by_order, c, index: _ReferenceIndex, orders):
    """Sentence BLEU-n for each n in orders of a length-c candidate with the given k-gram lists."""
    log_precisions = []
    for grams, max_counts in zip(by_order, index.max_counts[1:]):
        if len(set(grams)) == len(grams):  # each gram once: it clips to 1 if the test has it
            clipped = len(max_counts.keys() & grams)
        else:
            counts = Counter(grams)
            clipped = sum(map(min, counts.values(), map(max_counts.get, counts, repeat(0))))
        if clipped == 0:
            break  # and every higher order clips to 0 too
        log_precisions.append(math.log(clipped / len(grams)))
    if not log_precisions:
        return [0.0] * len(orders)
    r = index.closest_length(c)
    bp = 1.0 if c > r else math.exp(1.0 - r / c)
    return [100.0 * bp * math.exp(sum(log_precisions[:n]) / n) if n <= len(log_precisions) else 0.0
            for n in orders]


def corpus_bleu_n(generated, test, n, pad_id=None) -> float:
    """Mean sentence BLEU-n, every test sentence serving as a reference."""
    _check_orders((n,))
    if len(generated) == 0:
        raise EmptyInputError("empty generated corpus")
    index = _ReferenceIndex(test, n, pad_id)
    return sum(_sentence_bleus(_ngrams_upto(g, n, pad_id), len(g), index, (n,))[0]
               for g in generated) / len(generated)


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
    """BLEU-n, FC-n and Diversity-n for each n in orders, equal to the one-order functions.

    Each corpus's k-grams are extracted and counted once for k = 1 up to the
    highest order asked.
    """
    report = MetricsReport(sample_count=len(generated))
    if not orders:
        return report
    _check_orders(orders)
    if len(generated) == 0:
        raise EmptyInputError("empty generated corpus")
    top = max(orders)
    # no index order above the longest generated sentence: a larger order is an error below
    index = _ReferenceIndex(test, min(top, max(map(len, generated))), pad_id)
    pooled = {n: [] for n in orders}  # each order once, with the generated corpus's n-grams
    distinct_orders = list(pooled)
    rows = []
    for g in generated:
        by_order = _ngrams_upto(g, top, pad_id)
        rows.append(_sentence_bleus(by_order, len(g), index, distinct_orders))
        for n, grams in pooled.items():
            if n <= len(by_order):
                grams += by_order[n - 1]
    for n in orders:
        grams = pooled[n]
        distinct = _distinct(grams, n)  # an order above the index's has no grams and raises here
        report.diversity[n] = _diversity(grams, distinct)
        report.fc[n] = _coverage(grams, distinct, index.max_counts[n].keys())
    report.bleu.update(zip(distinct_orders, (sum(scores) / len(generated) for scores in zip(*rows))))
    return report
