import json
import math
import re

import numpy as np
import pytest

from arn import cli
from arn.errors import ConfigError, EmptyInputError
from arn.metrics import corpus_bleu_n, diversity_n, fc_n, full_report

A, B, C, D, X, Y = range(6)


class TestDiversity:
    def test_single_sentence(self):
        assert diversity_n([[A, B]], 2) == 100.0

    def test_worked_example(self):
        # grams: ab, ba, ab, bc -> 3 distinct of 4
        assert diversity_n([[A, B, A], [A, B, C]], 2) == 75.0

    def test_duplicated_corpus(self):
        sent = [A, B, C, D]
        for m in (2, 3, 5):
            assert abs(diversity_n([sent] * m, 2) - 100.0 / m) < 1e-12

    def test_empty(self):
        with pytest.raises(EmptyInputError):
            diversity_n([[A]], 2)

    def test_pad_exclusion(self):
        pad = 9
        assert diversity_n([[A, pad, A, B]], 2, pad_id=pad) == 100.0


class TestFeatureCoverage:
    def test_worked_example(self):
        # distinct-in-test {ab} over 4 generated grams
        assert fc_n([[A, B, A], [A, B, C]], [[A, B, D]], 2) == 25.0

    def test_containment_equals_diversity(self):
        gen = [[A, B, C], [B, C, D]]
        test = [[A, B, C, D]]
        assert fc_n(gen, test, 2) == diversity_n(gen, 2)

    def test_disjoint_vocab(self):
        assert fc_n([[A, B]], [[C, D]], 2) == 0.0

    def test_fc_bounded_by_diversity(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            gen = [list(rng.integers(0, 4, size=5)) for _ in range(4)]
            test = [list(rng.integers(0, 4, size=5)) for _ in range(4)]
            assert 0.0 <= fc_n(gen, test, 2) <= diversity_n(gen, 2) <= 100.0


class TestBleu:
    """Sentence BLEU-n: corpus BLEU-n of a one-sentence corpus."""

    def test_exact_match(self):
        ref = [A, B, C, D]
        for n in (1, 2, 3, 4):
            assert abs(corpus_bleu_n([ref], [ref], n) - 100.0) < 1e-12

    def test_worked_example(self):
        # p1 = 4/4, p2 = 2/3, BP = 1 -> 100 sqrt(2/3)
        score = corpus_bleu_n([[A, B, C, D]], [[A, B, X], [C, D, Y]], 2)
        assert abs(score - 100.0 * math.sqrt(2.0 / 3.0)) < 1e-10
        assert round(score, 2) == 81.65

    def test_clipping_example(self):
        # "the the the" vs "the cat": p1 clipped to 1/3, BP = 1
        score = corpus_bleu_n([[A, A, A]], [[A, B]], 1)
        assert abs(score - 100.0 / 3.0) < 1e-10
        assert round(score, 2) == 33.33

    def test_zero_precision_policy(self):
        assert corpus_bleu_n([[A, B]], [[C, D]], 1) == 0.0

    def test_brevity_penalty(self):
        # candidate shorter than the closest reference
        score = corpus_bleu_n([[A, B]], [[A, B, C, D]], 1)
        assert abs(score - 100.0 * math.exp(1 - 4 / 2)) < 1e-10


class TestCorpusBleu:
    def test_identical_corpora(self):
        corpus = [[A, B, C], [B, C, D]]
        assert abs(corpus_bleu_n(corpus, corpus, 2) - 100.0) < 1e-12

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        gen = [list(rng.integers(0, 4, size=5)) for _ in range(6)]
        test = [list(rng.integers(0, 4, size=5)) for _ in range(6)]
        base = corpus_bleu_n(gen, test, 2)
        # the sentence average is summed in list order, so allow ulp noise
        assert abs(corpus_bleu_n(gen[::-1], test[::-1], 2) - base) < 1e-9
        assert fc_n(gen[::-1], test[::-1], 2) == fc_n(gen, test, 2)
        assert diversity_n(gen[::-1], 2) == diversity_n(gen, 2)


def oracle_grams(seq, k, pad_id=None):
    return [tuple(seq[i:i + k]) for i in range(len(seq) - k + 1) if pad_id not in seq[i:i + k]]


def oracle_bleu(cand, refs, n, pad_id=None):
    """Sentence BLEU-n by brute force: clip by the max count in any one
    reference, and take the closest reference length, the shorter on a tie."""
    def grams(seq, k):
        return oracle_grams(seq, k, pad_id)

    logs = []
    for k in range(1, n + 1):
        cand_grams = grams(cand, k)
        if not cand_grams:
            return 0.0
        clipped = sum(min(cand_grams.count(g), max(grams(r, k).count(g) for r in refs))
                      for g in set(cand_grams))
        if clipped == 0:
            return 0.0
        logs.append(math.log(clipped / len(cand_grams)))
    c = len(cand)
    r = None
    for length in (len(ref) for ref in refs):
        if r is None or abs(length - c) < abs(r - c) or (abs(length - c) == abs(r - c) and length < r):
            r = length
    bp = 1.0 if c > r else math.exp(1.0 - r / c)
    return 100.0 * bp * math.exp(sum(logs) / n)


def oracle_report(gen, test, orders, pad_id):
    """BLEU-n, FC-n and Diversity-n by brute force, one order at a time."""
    bleu, fc, diversity = {}, {}, {}
    for n in orders:
        grams = [g for s in gen for g in oracle_grams(s, n, pad_id)]
        test_grams = {g for s in test for g in oracle_grams(s, n, pad_id)}
        bleu[n] = sum([oracle_bleu(s, test, n, pad_id) for s in gen]) / len(gen)
        fc[n] = 100.0 * sum(1 for g in set(grams) if g in test_grams) / len(grams)
        diversity[n] = 100.0 * len(set(grams)) / len(grams)
    return bleu, fc, diversity


class TestRaggedReferenceLengths:
    def test_tie_breaks_toward_shorter_reference(self):
        # c = 3 lies between reference lengths 2 and 4: r = 2, so no penalty
        assert corpus_bleu_n([[A, B, C]], [[A, B, C, D], [A, B]], 1) == 100.0
        # c = 2 lies between 1 and 3: r = 1, again no penalty
        assert corpus_bleu_n([[A, B]], [[A], [A, B, C], [B]], 1) == 100.0

    def test_matches_oracle_on_ragged_micro_corpora(self):
        rng = np.random.default_rng(17)

        def sentence(v, length):
            return list(rng.integers(0, v, size=length))

        ties = 0
        for trial in range(200):
            v = int(rng.integers(2, 5))
            gen = [sentence(v, int(rng.integers(1, 8))) for _ in range(int(rng.integers(1, 6)))]
            if trial % 4:
                test = [sentence(v, int(rng.integers(1, 8))) for _ in range(int(rng.integers(2, 6)))]
            else:
                # the first candidate lies exactly between the two reference lengths
                gen[0] = sentence(v, 4)
                test = [sentence(v, length) for length in (2, 6, *rng.choice([2, 6], size=3))]
            lengths = {len(t) for t in test}
            ties += sum(len(g) - d in lengths and len(g) + d in lengths
                        for g in gen for d in range(1, 8))
            n = int(rng.integers(1, 4))
            want = [oracle_bleu(g, test, n) for g in gen]
            assert [corpus_bleu_n([g], test, n) for g in gen] == want, trial
            assert corpus_bleu_n(gen, test, n) == sum(want) / len(want), trial
        assert ties >= 50


class TestFullReport:
    def test_self_report(self):
        corpus = [[A, B, C, D], [B, C, D, X]]
        report = full_report(corpus, corpus, orders=(2, 3))
        for n in (2, 3):
            assert report.bleu[n] == 100.0
            assert report.fc[n] == report.diversity[n]

    def test_json_schema(self):
        corpus = [[A, B, C, D]]
        obj = json.loads(full_report(corpus, corpus, orders=(2,)).to_json())
        assert set(obj) == {"bleu", "fc", "diversity", "samples"}
        assert obj["samples"] == 1
        assert obj["bleu"]["2"] == 100.0

    def test_golden_micro_corpus(self):
        gen = [[A, B, A], [A, B, C]]
        test = [[A, B, D]]
        report = full_report(gen, test, orders=(2,))
        assert report.diversity[2] == 75.0
        assert report.fc[2] == 25.0
        # sentence 1: p1 = 2/3 (a,b in test; second a clipped), p2 = 1/2, BP=1
        # sentence 2: p1 = 2/3, p2 = 1/2, BP=1
        expected = 100.0 * math.sqrt((2 / 3) * (1 / 2))
        assert abs(report.bleu[2] - expected) < 1e-10

    def test_token_type_does_not_matter(self):
        # word strings, the ints they map to, and NumPy rows of those ints score alike
        rng = np.random.default_rng(23)
        words = ["<PAD>", "the", "cat", "sat", "on", "mat"]
        for _ in range(50):
            gen, test = ([[words[i] for i in rng.integers(0, len(words), size=int(rng.integers(1, 9)))]
                          for _ in range(int(rng.integers(1, 8)))]
                         for _ in range(2))
            as_ints = [[[words.index(w) for w in s] for s in corpus] for corpus in (gen, test)]
            as_rows = [[np.asarray(s, dtype=np.int64) for s in corpus] for corpus in as_ints]
            orders = (1, 2)
            try:
                want = full_report(gen, test, orders=orders, pad_id="<PAD>")
            except EmptyInputError:
                continue
            assert full_report(*as_ints, orders=orders, pad_id=0) == want
            assert full_report(*as_rows, orders=orders, pad_id=0) == want


class TestOnePassReport:
    """full_report scores every order from one n-gram pass; it must equal the brute force."""

    @pytest.mark.parametrize("pad_id", [0, "<PAD>"])
    @pytest.mark.parametrize("rows", ["lists", "arrays"])
    def test_equals_oracle_on_ragged_corpora(self, pad_id, rows):
        rng = np.random.default_rng(31)
        orders_pool = [(1,), (2, 3), (3, 2), (2, 2), (1, 2, 3), (3, 1, 3), (4,), (5, 1, 2)]
        checked = short = 0
        for trial in range(150):
            v = int(rng.integers(2, 6))  # id 0 is the pad
            gen, test = ([[int(t) if pad_id == 0 else ("<PAD>" if t == 0 else f"w{t}")
                           for t in rng.integers(0, v, size=int(rng.integers(1, 9)))]
                          for _ in range(int(rng.integers(1, 7)))]
                         for _ in range(2))
            orders = orders_pool[trial % len(orders_pool)]
            short += any(len(s) < max(orders) for s in gen)
            args = [[np.asarray(s) for s in c] for c in (gen, test)] if rows == "arrays" else [gen, test]
            missing = [n for n in orders if not any(oracle_grams(s, n, pad_id) for s in gen)]
            if missing:
                with pytest.raises(EmptyInputError, match=f"^no {missing[0]}-grams in generated corpus$"):
                    full_report(*args, orders=orders, pad_id=pad_id)
                continue
            report = full_report(*args, orders=orders, pad_id=pad_id)
            assert (report.bleu, report.fc, report.diversity) == oracle_report(gen, test, orders, pad_id), \
                (trial, orders)
            assert report.sample_count == len(gen)
            checked += 1
        assert checked >= 75 and short >= 50

    @pytest.mark.parametrize("orders", [(2, 3), (3, 2), (1,), (5, 2, 4)])
    @pytest.mark.parametrize("gen, test, message", [
        ([], [["a", "b"]], "empty generated corpus"),
        ([], [], "empty generated corpus"),
        ([["a", "b", "c", "d"]], [], "empty reference corpus"),
        ([[]], [], "empty reference corpus"),
    ])
    def test_empty_corpus_errors(self, orders, gen, test, message, tmp_path, capsys):
        with pytest.raises(EmptyInputError, match=f"^{message}$"):
            full_report(gen, test, orders=orders, pad_id="<PAD>")
        # each empty corpus has one name, whichever entry point meets it
        for n in orders:
            scores = [lambda: fc_n(gen, test, n, "<PAD>"), lambda: corpus_bleu_n(gen, test, n, "<PAD>")]
            if message == "empty generated corpus":
                scores.append(lambda: diversity_n(gen, n, "<PAD>"))
            for score in scores:
                with pytest.raises(EmptyInputError, match=f"^{message}$"):
                    score()
        if all(gen):  # evaluate skips blank lines, so a file cannot hold an empty sentence
            paths = [tmp_path / "gen.txt", tmp_path / "test.txt"]
            for path, corpus in zip(paths, (gen, test)):
                path.write_text("".join(" ".join(s) + "\n" for s in corpus))
            argv = ["evaluate", "--generated", str(paths[0]), "--test", str(paths[1]),
                    "--orders", ",".join(map(str, orders))]
            assert cli.main(argv) == 2
            assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("orders, n", [((2, 4, 3), 4), ((3, 4, 2), 3), ((2, 2, 5, 4), 5),
                                           ((1, 9), 9)])
    def test_first_order_without_generated_grams_is_named(self, orders, n):
        # the longest pad-free run of the generated corpus is 2 tokens long
        gen = [["a", "b", "<PAD>", "c"], ["<PAD>", "d"], ["e", "<PAD>", "f", "g"]]
        with pytest.raises(EmptyInputError, match=f"^no {n}-grams in generated corpus$"):
            full_report(gen, [["a", "b", "c"]], orders=orders, pad_id="<PAD>")

    @pytest.mark.parametrize("orders", [(0,), (-1,), (2, 0)])
    def test_non_positive_order_is_a_config_error(self, orders):
        gen = [["a", "b"]]
        message = f"^{re.escape(f'n-gram orders must be positive integers, got {orders}')}$"
        with pytest.raises(ConfigError, match=message):
            full_report(gen, gen, orders=orders)
        if len(orders) == 1:
            # every entry point checks n by the one rule, before it looks at the corpora
            (n,) = orders
            for score in (lambda: corpus_bleu_n(gen, gen, n), lambda: diversity_n(gen, n),
                          lambda: fc_n(gen, gen, n), lambda: diversity_n([], n), lambda: fc_n(gen, [], n)):
                with pytest.raises(ConfigError, match=message):
                    score()


class TestDifferential:
    """Every entry point against the brute force, bit for bit, on seeded micro-corpora."""

    def test_fuzz_equals_oracle(self):
        rng = np.random.default_rng(1802)
        checked = missing_orders = duplicate_orders = 0
        for trial in range(2000):
            pad_id = (0, "<PAD>")[trial % 2]
            v = int(rng.integers(2, 7))  # id 0 is the pad

            def sentence():
                return [int(t) if pad_id == 0 else ("<PAD>" if t == 0 else f"w{t}")
                        for t in rng.integers(0, v, size=int(rng.integers(1, 10)))]

            gen = [sentence() for _ in range(int(rng.integers(1, 7)))]
            test = [sentence() for _ in range(int(rng.integers(1, 7)))]
            # orders repeat, and some lie above the longest pad-free run of the generated corpus
            orders = tuple(int(n) for n in rng.integers(1, 8, size=int(rng.integers(1, 4))))
            duplicate_orders += len(set(orders)) < len(orders)
            args = [[np.asarray(s) for s in c] for c in (gen, test)] if trial % 4 >= 2 else [gen, test]
            missing = [n for n in orders if not any(oracle_grams(s, n, pad_id) for s in gen)]
            if missing:
                n = missing[0]
                for score in (lambda: full_report(*args, orders=orders, pad_id=pad_id),
                              lambda: diversity_n(args[0], n, pad_id=pad_id),
                              lambda: fc_n(*args, n, pad_id=pad_id)):
                    with pytest.raises(EmptyInputError, match=f"^no {n}-grams in generated corpus$"):
                        score()
                assert corpus_bleu_n(*args, n, pad_id=pad_id) == 0.0
                missing_orders += 1
                continue
            report = full_report(*args, orders=orders, pad_id=pad_id)
            assert (report.bleu, report.fc, report.diversity) == oracle_report(gen, test, orders, pad_id), \
                (trial, orders)
            for n in orders:
                assert corpus_bleu_n(*args, n, pad_id=pad_id) == report.bleu[n], (trial, n)
                assert diversity_n(args[0], n, pad_id=pad_id) == report.diversity[n], (trial, n)
                assert fc_n(*args, n, pad_id=pad_id) == report.fc[n], (trial, n)
            checked += 1
        assert checked >= 900 and missing_orders >= 900 and duplicate_orders >= 300

    @pytest.mark.parametrize("distinct", [8190, 8191, 8192])
    def test_order_20_over_8000_tokens(self, distinct):
        # A k-gram key built as a base-V number wraps int64 far below order 20. Where V is a power
        # of two it then drops the first tokens, merging 20-grams that differ only there, which
        # these corpora hold; the distinct token counts put V at 2^13 under any small id offset.
        rng = np.random.default_rng(20)
        gen = rng.permutation(6000).reshape(300, 20)  # every token once
        test = gen[:200].copy()
        test[100:, 0] = gen[200:, 0]  # rows 100..199 lose their first token to one of rows 200..299
        fresh = np.resize(rng.permutation(np.arange(6000, distinct)), (110, 20))
        test = np.concatenate([test, fresh])
        assert len(np.unique(np.concatenate([gen, test]))) == distinct
        orders = tuple(range(1, 21))
        report = full_report(gen, test, orders=orders)
        for n in orders:
            grams = [g for s in gen for g in oracle_grams(s, n)]
            test_grams = {g for s in test for g in oracle_grams(s, n)}
            assert report.diversity[n] == 100.0
            assert report.fc[n] == 100.0 * sum(1 for g in set(grams) if g in test_grams) / len(grams), n
        # only rows 0..99 have all their 20-grams, and their one 20-gram, in the test corpus
        assert report.fc[20] == 100.0 * 100 / 300
        assert report.bleu[20] == 100.0 * 100 / 300 == corpus_bleu_n(gen, test, 20)


class TestIdArrays:
    """(N, T) id arrays, as load_corpus, sample_markov and generate_batch return them."""

    GEN = np.random.default_rng(0).integers(0, 5, size=(4, 6))
    TEST = np.random.default_rng(1).integers(0, 5, size=(7, 6))

    @pytest.mark.parametrize("score", [
        lambda gen, test: fc_n(gen, test, 2),
        lambda gen, test: corpus_bleu_n(gen, test, 3),
        lambda gen, test: corpus_bleu_n([gen[1]], test, 2),
        lambda gen, test: full_report(gen, test, orders=(1, 2, 3), pad_id=0).to_json(),
    ], ids=["fc_n", "corpus_bleu_n", "reference_index", "full_report"])
    def test_array_scores_as_its_rows(self, score):
        assert score(self.GEN, self.TEST) == score(list(self.GEN), list(self.TEST))

    @pytest.mark.parametrize("score", [
        lambda empty, full: fc_n(full, empty, 2),
        lambda empty, full: corpus_bleu_n(empty, full, 2),
        lambda empty, full: corpus_bleu_n(full, empty, 2),
        lambda empty, full: corpus_bleu_n([full[0]], empty, 2),
        lambda empty, full: full_report(empty, full),
        lambda empty, full: full_report(full, empty),
    ], ids=["fc_n_test", "corpus_bleu_n_generated", "corpus_bleu_n_test", "reference_index",
            "full_report_generated", "full_report_test"])
    def test_empty_array_raises(self, score):
        with pytest.raises(EmptyInputError):
            score(np.zeros((0, 6), dtype=np.int64), self.GEN)
