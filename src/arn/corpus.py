"""Data pipeline: tokenizer, vocabulary, fixed-length encoding, and synthetic
Markov sources with exact n-gram statistics for verification.
"""

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .distributions import sample_rows
from .errors import ConfigError, EmptyInputError, EncodingError, VocabError

PAD_TOKEN = "<PAD>"
UNK_TOKEN = "<UNK>"
PAD_ID = 0
UNK_ID = 1


def read_lines(path):
    """The list of lines of a UTF-8 text file without their line ends, from one read.

    "\n", "\r\n" and a lone "\r" each end a line, and nothing else does, as
    when iterating the file. Bytes that are not UTF-8 raise EncodingError
    naming the file.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except UnicodeDecodeError as exc:
        raise EncodingError(f"{path}: {exc}") from exc
    if not lines[-1]:  # the empty piece after a final line end, or of an empty file
        lines.pop()
    return lines


def tokenize(text):
    """Lowercase and split on Unicode whitespace; punctuation stays attached."""
    return text.lower().split()


@dataclass
class Vocabulary:
    tokens: list

    def __post_init__(self):
        self.index = {tok: i for i, tok in enumerate(self.tokens)}

    def __len__(self):
        return len(self.tokens)

    def decode(self, ids):
        return [self.tokens[int(i)] for i in ids]

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for tok in self.tokens:
                fh.write(tok + "\n")

    @staticmethod
    def load(path) -> "Vocabulary":
        tokens = [line for line in read_lines(path) if line]
        if not tokens:
            raise EmptyInputError(f"{path}: empty vocabulary")
        if tokens[:2] != [PAD_TOKEN, UNK_TOKEN]:
            raise VocabError(f"{path}: the first two tokens must be {PAD_TOKEN} and {UNK_TOKEN}")
        if len(set(tokens)) != len(tokens):
            raise VocabError(f"{path}: duplicate tokens")
        words = tokens[2:]
        # one pass over the joined words: it equals the per-word test tokenize(tok) == [tok]
        if tokenize("\n".join(words)) != words:
            bad = next(tok for tok in words if tokenize(tok) != [tok])
            raise VocabError(f"{path}: token {bad!r} is not one lowercase word without whitespace")
        return Vocabulary(tokens)


def build_vocab(lines, cap: int) -> Vocabulary:
    """Top cap-2 tokens by frequency (lexicographic tie-break) plus PAD/UNK."""
    if cap < 3:
        raise ConfigError("vocabulary cap must be at least 3")
    counts = Counter()
    for line in lines:
        counts.update(tokenize(line))
    if not counts:
        raise EmptyInputError("empty corpus")
    kept = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[: cap - 2]
    return Vocabulary([PAD_TOKEN, UNK_TOKEN] + [tok for tok, _ in kept])


def _fixed_ids(tokens, vocab: Vocabulary, t_len: int) -> list:
    ids = [vocab.index.get(tok, UNK_ID) for tok in tokens[:t_len]]
    return ids + [PAD_ID] * (t_len - len(ids))


def encode_fixed(tokens, vocab: Vocabulary, t_len: int) -> np.ndarray:
    """Map tokens to ids, truncate to t_len or right-pad with PAD."""
    return np.asarray(_fixed_ids(tokens, vocab, t_len), dtype=np.int64)


def load_corpus(path, vocab: Vocabulary, t_len: int) -> np.ndarray:
    """Encode a one-sentence-per-line UTF-8 file into an (N, T) id array, one row per encode_fixed.

    A line is split at most t_len times: the first t_len pieces are those
    of tokenize(line), and the rest of the line stays one unread piece.
    """
    pieces = (line.lower().split(None, t_len) for line in read_lines(path))
    rows = [_fixed_ids(toks, vocab, t_len) for toks in pieces if toks]
    if not rows:
        raise EmptyInputError(f"{path}: no sentences")
    return np.array(rows, dtype=np.int64)


@dataclass
class MarkovSource:
    """Order-1 chain over K states with known initial and transition laws."""

    pi: np.ndarray
    transition: np.ndarray

    def __post_init__(self):
        self.pi = np.asarray(self.pi, dtype=np.float64)
        self.transition = np.asarray(self.transition, dtype=np.float64)
        k = self.pi.size
        if self.transition.shape != (k, k):
            raise ConfigError("transition matrix must be K x K")
        laws = np.vstack([self.pi, self.transition])
        if not (np.all(laws >= 0.0) and np.all(np.abs(laws.sum(axis=1) - 1.0) <= 1e-9)):
            raise ConfigError("pi and every transition row must be nonnegative and sum to 1")

    @property
    def k(self):
        return self.pi.size


def sample_markov(src: MarkovSource, t_len: int, count: int, rng) -> np.ndarray:
    """(count, t_len) array of state-index sequences."""
    if t_len < 1:
        raise ConfigError(f"sequence length must be >= 1, got {t_len}")
    out = np.empty((count, t_len), dtype=np.int64)
    out[:, 0] = sample_rows(np.broadcast_to(src.pi, (count, src.k)), rng)
    for i in range(1, t_len):
        out[:, i] = sample_rows(src.transition[out[:, i - 1]], rng)
    return out


def source_ngram_distribution(src: MarkovSource, n: int, t_len: int) -> dict:
    """Exact occurrence distribution of n-grams over positions 1..T-n+1.

    Returns {gram tuple: probability}; probabilities sum to 1. The keys are
    every unigram and every longer gram with probability above 0 somewhere.
    """
    if not 1 <= n <= t_len:
        raise ConfigError(f"n = {n} is not in 1..{t_len}, the sequence length")
    positions = t_len - n + 1
    grams, marginal = {}, src.pi
    for _ in range(positions):
        gram, p = np.arange(src.k)[:, None], marginal  # row i of gram has probability p[i] here
        for _ in range(n - 1):  # extend each gram by every state, keeping those with p > 0
            q = p[:, None] * src.transition[gram[:, -1]]
            rows, s = np.nonzero(q > 0)
            gram, p = np.column_stack([gram[rows], s]), q[rows, s]
        for key, q in zip(map(tuple, gram.tolist()), p):
            grams[key] = grams.get(key, 0.0) + q / positions
        marginal = marginal @ src.transition
    return grams


def empirical_ngram_distribution(sequences, n: int) -> dict:
    counts = Counter(g for seq in sequences for g in zip(*(seq[k:] for k in range(n))))
    total = sum(counts.values())
    if total == 0:
        raise EmptyInputError(f"no {n}-grams")
    return {gram: cnt / total for gram, cnt in counts.items()}


def tv_distance(p: dict, q: dict) -> float:
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(key, 0.0) - q.get(key, 0.0)) for key in keys)
