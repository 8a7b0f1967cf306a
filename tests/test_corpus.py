import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from arn.corpus import (
    MarkovSource,
    PAD_ID,
    PAD_TOKEN,
    UNK_ID,
    UNK_TOKEN,
    Vocabulary,
    build_vocab,
    empirical_ngram_distribution,
    encode_fixed,
    load_corpus,
    read_lines,
    sample_markov,
    source_ngram_distribution,
    tokenize,
    tv_distance,
)
from arn.errors import ArnError, ConfigError, EmptyInputError, EncodingError, VocabError


class TestTokenize:
    def test_casefold_and_split(self):
        assert tokenize("The CAT sat") == ["the", "cat", "sat"]

    def test_empty(self):
        assert tokenize("") == []

    def test_whitespace_classes(self):
        assert tokenize("a  b\tc d\n") == ["a", "b", "c", "d"]

    def test_punctuation_attached(self):
        assert tokenize("well, done.") == ["well,", "done."]


class TestVocabulary:
    def test_frequency_order(self):
        vocab = build_vocab(["a a b"], 4)
        assert vocab.tokens == ["<PAD>", "<UNK>", "a", "b"]
        assert vocab.index == {"<PAD>": 0, "<UNK>": 1, "a": 2, "b": 3}

    def test_cap_maps_rest_to_unk(self):
        vocab = build_vocab(["a a a b b c"], 4)
        assert encode_fixed(["c"], vocab, 1).tolist() == [UNK_ID]

    def test_tie_break_lexicographic(self):
        vocab = build_vocab(["b a", "a b"], 4)
        assert vocab.tokens[2:] == ["a", "b"]

    def test_order_invariance(self):
        lines = ["c c a", "b b b", "a c"]
        assert build_vocab(lines, 5).tokens == build_vocab(lines[::-1], 5).tokens

    def test_empty_corpus(self):
        with pytest.raises(EmptyInputError):
            build_vocab([""], 4)

    def test_cap_3_keeps_one_word(self):
        assert build_vocab(["b a a"], 3).tokens == [PAD_TOKEN, UNK_TOKEN, "a"]
        with pytest.raises(ConfigError, match="at least 3"):
            build_vocab(["b a a"], 2)

    def test_pad_and_unk_ids_index_their_tokens(self, tmp_path):
        path = tmp_path / "vocab.txt"
        build_vocab(["x y z y"], 5).save(str(path))
        for vocab in (build_vocab(["a a b"], 3), build_vocab(["a a b"], 4), Vocabulary.load(str(path))):
            assert (vocab.index[PAD_TOKEN], vocab.index[UNK_TOKEN]) == (PAD_ID, UNK_ID)

    def test_file_roundtrip(self, tmp_path):
        vocab = build_vocab(["x y z y"], 5)
        path = tmp_path / "vocab.txt"
        vocab.save(str(path))
        assert Vocabulary.load(str(path)).tokens == vocab.tokens

    @pytest.mark.parametrize("text", ["a\nb\nc\n", "<UNK>\n<PAD>\na\n", "<PAD>\n",
                                      "<PAD>\na\n<UNK>\n", "<PAD>\n<UNK>\na\nb\na\n"])
    def test_load_checks_layout(self, tmp_path, text):
        # load_corpus encodes padding as id 0 and unknown words as id 1,
        # and needs one id per token
        path = tmp_path / "vocab.txt"
        path.write_text(text)
        with pytest.raises(VocabError, match="vocab.txt"):
            Vocabulary.load(str(path))


class TestEncodeFixed:
    @pytest.fixture
    def vocab(self):
        return build_vocab(["a b c d e"], 7)

    def test_exact_length(self, vocab):
        toks = ["a", "b", "c"]
        np.testing.assert_array_equal(encode_fixed(toks, vocab, 3), [2, 3, 4])

    def test_padding(self, vocab):
        ids = encode_fixed(["a", "b", "c"], vocab, 5)
        np.testing.assert_array_equal(ids, [2, 3, 4, PAD_ID, PAD_ID])

    def test_truncation(self, vocab):
        ids = encode_fixed(["a"] * 25, vocab, 20)
        assert ids.size == 20 and np.all(ids == 2)

    def test_unknown_maps_to_unk(self, vocab):
        assert encode_fixed(["zebra"], vocab, 1)[0] == UNK_ID

    def test_roundtrip_in_vocab(self, vocab):
        toks = ["c", "a", "e"]
        assert vocab.decode(encode_fixed(toks, vocab, 3)) == toks


class TestLoadCorpus:
    @pytest.fixture
    def vocab(self):
        return build_vocab(["a b c"], 5)

    def test_every_line_end_ends_a_sentence(self, tmp_path, vocab):
        path = tmp_path / "corpus.txt"
        path.write_bytes(b"a B\r\nc\rb a\n\n  \nC")
        np.testing.assert_array_equal(load_corpus(str(path), vocab, 2), [[2, 3], [4, PAD_ID], [3, 2], [4, PAD_ID]])

    def test_non_utf8_names_the_file(self, tmp_path, vocab):
        path = tmp_path / "corpus.txt"
        path.write_bytes(b"a b\ncaf\xe9\n")
        with pytest.raises(EncodingError, match="corpus.txt"):
            load_corpus(str(path), vocab, 2)


@pytest.mark.parametrize("raw", [
    "a b\nc\n", "a b\r\nc\r\n", "a b\rc\r", "a b\n\nc", "", "\n", "\r\n\r\n",
    "x\x85y\nz\u2028w\n", "\u2028\n\x85",
], ids=["lf", "crlf", "cr", "no-final-end", "empty", "one-end", "two-crlf", "nel-ls-inside",
        "ls-nel-lines"])
def test_read_lines_equals_iterating_the_file(tmp_path, raw):
    path = tmp_path / "lines.txt"
    path.write_bytes(raw.encode("utf-8"))
    with open(path, encoding="utf-8") as fh:
        want = [line.rstrip("\n") for line in fh]
    assert read_lines(str(path)) == want


class TestMarkov:
    def cycle(self):
        a = np.roll(np.eye(3), 1, axis=1)  # a -> b -> c -> a
        return MarkovSource(pi=[1.0, 0.0, 0.0], transition=a)

    def test_deterministic_cycle(self):
        seqs = sample_markov(self.cycle(), 6, 2, np.random.default_rng(0))
        np.testing.assert_array_equal(seqs[0], [0, 1, 2, 0, 1, 2])

    def test_count_zero(self):
        assert sample_markov(self.cycle(), 4, 0, np.random.default_rng(0)).shape == (0, 4)

    @pytest.mark.parametrize("count", [0, 3])
    def test_zero_length_is_a_config_error(self, count):
        with pytest.raises(ConfigError, match="sequence length"):
            sample_markov(self.cycle(), 0, count, np.random.default_rng(0))

    def test_cycle_bigram_distribution(self):
        dist = source_ngram_distribution(self.cycle(), 2, 7)
        assert set(dist) == {(0, 1), (1, 2), (2, 0)}
        np.testing.assert_allclose(sorted(dist.values()), 1 / 3)

    def test_unigram_approaches_stationary(self):
        rng = np.random.default_rng(1)
        a = rng.dirichlet(np.ones(4), size=4)
        src = MarkovSource(pi=rng.dirichlet(np.ones(4)), transition=a)
        # position-averaged marginals carry an O(1/T) transient, so use a
        # long horizon before comparing against the stationary eigenvector
        dist = source_ngram_distribution(src, 1, 8000)
        vals, vecs = np.linalg.eig(a.T)
        stat = np.real(vecs[:, np.argmax(np.real(vals))])
        stat = stat / stat.sum()
        got = np.array([dist[(k,)] for k in range(4)])
        np.testing.assert_allclose(got, stat, atol=1e-3)

    def test_single_position_gram(self):
        src = MarkovSource(pi=[0.0, 1.0], transition=[[0.5, 0.5], [0.25, 0.75]])
        dist = source_ngram_distribution(src, 2, 2)
        assert abs(dist[(1, 0)] - 0.25) < 1e-12
        assert abs(dist[(1, 1)] - 0.75) < 1e-12

    def test_order_exceeds_length(self):
        with pytest.raises(ConfigError):
            source_ngram_distribution(self.cycle(), 4, 3)

    @pytest.mark.parametrize("n", [0, -1])
    def test_order_below_one(self, n):
        with pytest.raises(ConfigError, match=f"n = {n} is not in 1..3"):
            source_ngram_distribution(self.cycle(), n, 3)

    @pytest.mark.parametrize("pi, transition", [
        ([1.5, -0.5], np.eye(2)),
        ([np.nan, 1.0], np.eye(2)),
        ([1.0, 0.0], [[2.0, -1.0], [0.0, 1.0]]),
        ([1.0, 0.0], [[1.0, 0.0], [np.nan, 1.0]]),
        ([-np.inf, 1.0], np.eye(2)),
    ])
    def test_rejects_negative_or_nan_entries(self, pi, transition):
        with pytest.raises(ConfigError, match="must be nonnegative and sum to 1"):
            MarkovSource(pi, transition)

    @pytest.mark.parametrize("pi, transition", [
        ([np.inf, 0.0], np.eye(2)),
        ([1.0, 0.0], [[np.inf, 0.0], [0.0, 1.0]]),
        ([0.5, 0.6], np.eye(2)),
        ([1.0, 0.0], [[0.5, 0.4], [0.0, 1.0]]),
    ])
    def test_rejects_laws_that_do_not_sum_to_one(self, pi, transition):
        with pytest.raises(ConfigError, match="must be nonnegative and sum to 1"):
            MarkovSource(pi, transition)

    def test_empirical_matches_exact(self):
        rng = np.random.default_rng(2)
        a = rng.dirichlet(np.ones(5) * 2, size=5)
        src = MarkovSource(pi=rng.dirichlet(np.ones(5)), transition=a)
        seqs = sample_markov(src, 6, 100_000, rng)
        assert np.all(seqs < 5) and seqs.shape == (100_000, 6)
        emp = empirical_ngram_distribution(seqs, 2)
        exact = source_ngram_distribution(src, 2, 6)
        assert tv_distance(emp, exact) <= 0.02

    def test_empirical_law_of_one_gram_and_of_none(self):
        assert empirical_ngram_distribution([[0, 1], [2]], 2) == {(0, 1): 1.0}
        with pytest.raises(EmptyInputError, match="no 3-grams"):
            empirical_ngram_distribution([[0, 1], [2]], 3)

    def test_tv_distance_is_exact(self):
        assert tv_distance({"a": 1.0}, {"b": 1.0}) == 1.0
        assert tv_distance({"a": 0.5, "b": 0.5}, {"a": 1.0}) == 0.5
        assert tv_distance({"a": 0.25, "b": 0.75}, {"b": 0.75, "a": 0.25}) == 0.0


def random_source(rng, k, zeros):
    """A K-state source; with zeros and K > 1, pi and each transition row hold at least one 0."""
    laws = rng.dirichlet(np.ones(k), size=k + 1)
    if zeros and k > 1:
        rows, drop = np.arange(k + 1), rng.integers(0, k, k + 1)
        keep = rng.random(laws.shape) >= 0.4
        keep[rows, drop], keep[rows, (drop + rng.integers(1, k, k + 1)) % k] = False, True
        laws = laws * keep / (laws * keep).sum(axis=1, keepdims=True)
    return MarkovSource(pi=laws[0], transition=laws[1:])


def loop_ngram_distribution(src, n, t_len):
    """The gram-at-a-time law that source_ngram_distribution replaced, kept as its reference."""
    k = src.k
    marginals = [src.pi]
    for _ in range(t_len - 1):
        marginals.append(marginals[-1] @ src.transition)
    grams = {}
    positions = t_len - n + 1
    for start in range(positions):
        stack = [((s,), marginals[start][s]) for s in range(k)]
        for _ in range(n - 1):
            nxt = []
            for gram, p in stack:
                for s in range(k):
                    q = p * src.transition[gram[-1], s]
                    if q > 0:
                        nxt.append((gram + (s,), q))
            stack = nxt
        for gram, p in stack:
            grams[gram] = grams.get(gram, 0.0) + p / positions
    return grams


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("t_len", [1, 2, 3, 4, 5])
def test_source_law_equals_enumerated_sequences(k, t_len):
    """Every n-gram law equals the gram frequencies over all K^T sequences, weighted by their probability."""
    src = random_source(np.random.default_rng(10 * k + t_len), k, zeros=True)
    freqs = {n: {} for n in range(1, t_len + 1)}
    for seq in itertools.product(range(k), repeat=t_len):
        prob = src.pi[seq[0]] * np.prod([src.transition[a, b] for a, b in zip(seq, seq[1:])])
        for n, freq in freqs.items():
            for start in range(t_len - n + 1):
                gram = seq[start:start + n]
                freq[gram] = freq.get(gram, 0.0) + prob / (t_len - n + 1)
    for n, freq in freqs.items():
        law = source_ngram_distribution(src, n, t_len)
        assert set(law) == {g for g, p in freq.items() if p > 0 or n == 1}
        for gram, p in law.items():
            assert abs(p - freq[gram]) <= 1e-12, (n, gram)


def test_source_law_equals_the_loop_bit_for_bit():
    """The same keys in the same order, each value == the loop's and of its type, on 300 sources."""
    rng = np.random.default_rng(34)
    for trial in range(300):
        k, n = int(rng.integers(1, 6)), int(rng.integers(1, 4))
        src = random_source(rng, k, zeros=trial % 3 == 0)
        t_len = int(rng.integers(n, 10))
        got, want = source_ngram_distribution(src, n, t_len), loop_ngram_distribution(src, n, t_len)
        assert list(got) == list(want), trial
        assert all(type(got[g]) is type(p) and got[g] == p for g, p in want.items()), trial
        assert all(type(s) is int for g in got for s in g), trial


def test_source_law_of_a_sparse_source_stays_small():
    """A 100-state cycle has 100 trigrams: the law holds those, not a (K,)*n array (8 MB here)."""
    k = 100
    src = MarkovSource(pi=np.full(k, 1.0 / k), transition=np.roll(np.eye(k), 1, axis=1))
    tracemalloc.start()
    try:
        law = source_ngram_distribution(src, 3, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert set(law) == {(s, (s + 1) % k, (s + 2) % k) for s in range(k)}
    assert peak < 1 << 20, peak


# byte pieces of word files: words with case and punctuation, every newline
# and whitespace kind, multi-byte UTF-8 and bytes that are not UTF-8
TEXT_PIECES = [b"a", b"B", b"cat.", b"<PAD>", b" ", b"\n", b"\r", b"\r\n", b"\t", b"\x00",
               "\u00e9".encode(), "\u2028".encode(), b"\xff", b"\xc3", b"\x80"]
TEXT_BYTES = st.one_of(st.binary(max_size=64),
                       st.lists(st.sampled_from(TEXT_PIECES), max_size=30).map(b"".join))
FUZZ = settings(max_examples=200, deadline=None, database=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@FUZZ
@given(raw=st.one_of(TEXT_BYTES, TEXT_BYTES.map(lambda tail: b"<PAD>\n<UNK>\n" + tail)))
def test_vocabulary_load_loads_or_raises_arn_error(tmp_path, raw):
    """Arbitrary bytes are a valid vocabulary file or raise an ArnError subclass."""
    path = tmp_path / "vocab.txt"
    path.write_bytes(raw)
    try:
        vocab = Vocabulary.load(str(path))
    except ArnError:
        return
    assert len(vocab) > 0 and all("\n" not in tok for tok in vocab.tokens)
    assert vocab.tokens[:2] == ["<PAD>", "<UNK>"]
    assert len(set(vocab.tokens)) == len(vocab.tokens)
    assert all(tokenize(tok) == [tok] for tok in vocab.tokens[2:])


@FUZZ
@given(raw=TEXT_BYTES)
def test_load_corpus_loads_or_raises_arn_error(tmp_path, raw):
    """Arbitrary bytes are a valid word corpus or raise an ArnError subclass."""
    path = tmp_path / "corpus.txt"
    path.write_bytes(raw)
    vocab = build_vocab(["a b cat."], 5)
    try:
        ids = load_corpus(str(path), vocab, 4)
    except ArnError:
        return
    assert ids.dtype == np.int64 and ids.shape[1] == 4 and ids.shape[0] > 0
    assert ids.min() >= 0 and ids.max() < len(vocab)
    want = [encode_fixed(toks, vocab, 4) for toks in map(tokenize, read_lines(str(path))) if toks]
    np.testing.assert_array_equal(ids, want)


# Unicode whitespace of every kind str.split knows, and characters whose lower case is longer
SPLIT_PIECES = ["a", "Bc", "\u0130", "\u1e9e", "\u00c9t\u00e9", " ", "\t", "\n", "\x0b", "\x0c", "\x1c", "\x1f",
                "\x85", "\xa0", "\u1680", "\u2000", "\u2028", "\u2029", "\u202f", "\u3000", "\u200b"]


@settings(max_examples=500, deadline=None, database=None)
@given(text=st.one_of(st.text(), st.lists(st.sampled_from(SPLIT_PIECES), max_size=40).map("".join)),
       n=st.integers(0, 12))
def test_bounded_split_keeps_the_first_tokens(text, n):
    """load_corpus splits a line at most n times: its first n pieces are tokenize's first n tokens."""
    assert text.lower().split(None, n)[:n] == tokenize(text)[:n]
