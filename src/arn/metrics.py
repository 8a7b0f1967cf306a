"""Quality/diversity evaluation: BLEU-n, Diversity-n, Feature Coverage.

All scores are percentages. Diversity-n is the fraction of generated n-grams
that are distinct; FC-n is the fraction whose distinct grams also occur in
the test set. BLEU uses uniform weights over orders 1..n, clipped modified
precisions against the whole test corpus, no smoothing (any zero precision
gives score 0), and the closest-reference-length brevity penalty.

Tokens are scored as written, equal where equal as dict keys ("3" and 3 differ,
3 and np.int64(3) do not). One dict maps both corpora's tokens to ids;
each order's k-grams get ids by ranking (id of the (k-1)-gram, next token)
pairs with np.unique, and all counts are read from sorted (sentence, k-gram)
pairs with NumPy. Only the per-sentence BLEU float math runs in Python.
"""

import json
import math
from collections import namedtuple
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .errors import ConfigError, EmptyInputError


def ngrams(seq, n):
    """Tuples of n >= 1 consecutive hashable tokens of seq."""
    return list(zip(*(seq[k:] for k in range(n))))


# one order k's counts: each generated sentence's k-grams clipped by their max count in any one
# test sentence, and in all; the generated corpus's k-grams in all, distinct, and found in the test
_Order = namedtuple("_Order", "clipped totals grams distinct covered")


def _count(generated, test, top, pad_id=None):
    """The _Order of each k = 1..top, up to the first order with no generated k-gram.

    k-grams holding a token equal to pad_id are not counted.
    """
    sentences = [*generated, *test]
    lengths = np.fromiter(map(len, sentences), np.int64, len(sentences))
    flat = list(chain.from_iterable(sentences))
    # a token's id is 1 + the position where it first occurs: one dict pass, ids below len(flat) + 1
    ids = {}
    tokens = np.fromiter(map(ids.setdefault, flat, range(1, len(flat) + 1)), np.int64, len(flat))
    if pad_id is not None and pad_id in ids:
        tokens[tokens == ids[pad_id]] = 0
    # id 0 marks a pad and the gap after each sentence, so no k-gram holds a pad or spans two sentences
    stream = np.zeros(len(flat) + len(sentences), np.int64)
    stream[np.arange(len(flat)) + np.repeat(np.arange(len(sentences)), lengths)] = tokens
    sentence = np.repeat(np.arange(len(sentences)), lengths + 1)
    n_gen, n_tokens = len(generated), len(flat) + 1
    starts = np.flatnonzero(stream)  # where each k-gram starts, in stream order
    gram, n_grams = stream[starts], n_tokens
    counts = []
    for k in range(1, top + 1):
        if k > 1:  # a k-gram is a (k-1)-gram and the token after it; ranks stay below the token count
            keep = stream[starts + k - 1] > 0
            starts = starts[keep]
            ranked, gram = np.unique(gram[keep] * n_tokens + stream[starts + k - 1], return_inverse=True)
            n_grams = len(ranked)
        pairs, repeats = np.unique(sentence[starts] * n_grams + gram, return_counts=True)
        sent, gram_of = np.divmod(pairs, n_grams)
        split = int(np.searchsorted(sent, n_gen))
        if split == 0:
            break  # and no generated sentence has a longer gram
        ref_max = np.zeros(n_grams, np.int64)
        np.maximum.at(ref_max, gram_of[split:], repeats[split:])
        sent, gram_of, repeats = sent[:split], gram_of[:split], repeats[:split]
        clipped = np.bincount(sent, np.minimum(repeats, ref_max[gram_of]), n_gen).astype(np.int64)
        totals = np.bincount(sent, repeats, n_gen).astype(np.int64)
        seen = np.zeros(n_grams, bool)
        seen[gram_of] = True
        counts.append(_Order(clipped.tolist(), totals.tolist(), int(repeats.sum()),
                             int(np.count_nonzero(seen)), int(np.count_nonzero(ref_max[seen]))))
    return counts


def _mean_bleus(generated, test, counts, orders):
    """Mean sentence BLEU-n over the generated corpus for each n in orders, summed in sentence order."""
    lengths = sorted({len(r) for r in test})
    # ties break toward the shorter reference
    closest = {c: min(lengths, key=lambda r: (abs(r - c), r)) for c in {len(g) for g in generated}}
    rows = []
    for i, g in enumerate(generated):
        log_precisions = []
        for order in counts:
            if order.clipped[i] == 0:
                break  # no k-gram, or none in the test set: every higher order clips to 0 too
            log_precisions.append(math.log(order.clipped[i] / order.totals[i]))
        if not log_precisions:
            rows.append([0.0] * len(orders))
            continue
        c = len(g)
        r = closest[c]
        bp = 1.0 if c > r else math.exp(1.0 - r / c)
        rows.append([100.0 * bp * math.exp(sum(log_precisions[:n]) / n) if n <= len(log_precisions)
                     else 0.0 for n in orders])
    return [sum(scores) / len(generated) for scores in zip(*rows)]


def _check_inputs(orders, generated, test):
    if min(orders) < 1:
        raise ConfigError(f"n-gram orders must be positive integers, got {tuple(orders)}")
    if len(generated) == 0:
        raise EmptyInputError("empty generated corpus")
    if len(test) == 0:
        raise EmptyInputError("empty reference corpus")


def diversity_n(generated, n, pad_id=None) -> float:
    """Diversity-n, full_report's entry; it reads no reference, so one generated sentence serves as one."""
    return full_report(generated, generated[:1], (n,), pad_id).diversity[n]


def fc_n(generated, test, n, pad_id=None) -> float:
    """FC-n, full_report's entry."""
    return full_report(generated, test, (n,), pad_id).fc[n]


def corpus_bleu_n(generated, test, n, pad_id=None) -> float:
    """Mean sentence BLEU-n, every test sentence serving as a reference."""
    _check_inputs((n,), generated, test)
    return _mean_bleus(generated, test, _count(generated, test, n, pad_id), (n,))[0]


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
    """BLEU-n, FC-n and Diversity-n for each n in orders.

    Each corpus's k-grams are counted once for k = 1 up to the highest order asked.
    """
    report = MetricsReport(sample_count=len(generated))
    if not orders:
        return report
    _check_inputs(orders, generated, test)
    counts = _count(generated, test, max(orders), pad_id)
    for n in orders:
        if n > len(counts):
            raise EmptyInputError(f"no {n}-grams in generated corpus")
        order = counts[n - 1]
        report.diversity[n] = 100.0 * order.distinct / order.grams
        report.fc[n] = 100.0 * order.covered / order.grams
    bleu_orders = list(dict.fromkeys(orders))
    report.bleu.update(zip(bleu_orders, _mean_bleus(generated, test, counts, bleu_orders)))
    return report
