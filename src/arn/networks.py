"""Model architecture: shared embedding, LSTM generator, first-token VAE,
and a sequence discriminator, plus the two generation procedures.

All forward passes are batched: token batches are (B, T) int arrays,
latents are (B, d_z) arrays, and soft (relaxed) sequences are (T, B, V)
tensors of rows on the simplex.
"""

from dataclasses import dataclass, field

import numpy as np

from .distributions import GaussianPosterior, gumbel_noise, gumbel_softmax
from .errors import ConfigError, ShapeError, VocabError
from .tensor import (
    Tensor, concat, gather_rows, gumbel_lstm_sequence, lstm_cell, lstm_sequence, no_grad, pick,
)

INIT_SCALE = 0.08


@dataclass
class RnnState:
    h: Tensor
    c: Tensor


@dataclass
class ArnConfig:
    seq_len: int = 8
    vocab_size: int = 8
    d_emb: int = 16
    d_hidden: int = 32
    d_latent: int = 8

    @staticmethod
    def preset(name: str) -> "ArnConfig":
        if name == "desk":
            return ArnConfig()
        if name == "paper":
            return ArnConfig(seq_len=20, vocab_size=10000, d_emb=500, d_hidden=500, d_latent=350)
        raise ConfigError(f"unknown preset {name!r}")


@dataclass
class ArnModel:
    """Parameter bundle; params maps names to Tensors with requires_grad set."""

    config: ArnConfig
    params: dict = field(default_factory=dict)

    @staticmethod
    def initialized(config: ArnConfig, rng: np.random.Generator) -> "ArnModel":
        """Uniform [-0.08, 0.08] initialization of every parameter tensor."""
        model = ArnModel(config)
        for name, shape in model.param_shapes().items():
            model.params[name] = Tensor(
                rng.uniform(-INIT_SCALE, INIT_SCALE, size=shape), requires_grad=True
            )
        return model

    @staticmethod
    def zeros(config: ArnConfig) -> "ArnModel":
        model = ArnModel(config)
        for name, shape in model.param_shapes().items():
            model.params[name] = Tensor(np.zeros(shape), requires_grad=True)
        return model

    def param_shapes(self):
        c = self.config
        return {
            "emb": (c.vocab_size, c.d_emb),
            "gen.wx": (c.d_emb, 4 * c.d_hidden),
            "gen.wh": (c.d_hidden, 4 * c.d_hidden),
            "gen.b": (4 * c.d_hidden,),
            "gen.proj_w": (c.d_hidden, c.vocab_size),
            "gen.proj_b": (c.vocab_size,),
            "dec.w": (c.d_latent, c.vocab_size),
            "dec.b": (c.vocab_size,),
            "enc.w": (c.d_emb, 2 * c.d_latent),
            "enc.b": (2 * c.d_latent,),
            "disc.emb": (c.vocab_size, c.d_emb),
            "disc.wx": (c.d_emb, 4 * c.d_hidden),
            "disc.wh": (c.d_hidden, 4 * c.d_hidden),
            "disc.b": (4 * c.d_hidden,),
            "disc.head_w": (c.d_hidden, 1),
            "disc.head_b": (1,),
        }

    def generator_params(self):
        """theta and phi: everything the generator objective trains."""
        return {k: v for k, v in self.params.items() if not k.startswith("disc.")}

    def discriminator_params(self):
        return {k: v for k, v in self.params.items() if k.startswith("disc.")}

    def copy(self) -> "ArnModel":
        clone = ArnModel(self.config)
        for name, p in self.params.items():
            clone.params[name] = Tensor(p.data.copy(), requires_grad=True)
        return clone


def _check_ids(model, ids):
    ids = np.asarray(ids, dtype=np.int64)
    if np.any(ids < 0) or np.any(ids >= model.config.vocab_size):
        raise VocabError("token id out of vocabulary range")
    return ids


def init_state(model: ArnModel, batch: int) -> RnnState:
    hdim = model.config.d_hidden
    return RnnState(Tensor(np.zeros((batch, hdim))), Tensor(np.zeros((batch, hdim))))


def encode_first_token(model: ArnModel, x1) -> GaussianPosterior:
    """q(z | x1) for (B,) first tokens: embedding + dense layer to (B, d_z) mu and log_var."""
    e = gather_rows(model.params["emb"], _check_ids(model, x1))
    out = e @ model.params["enc.w"] + model.params["enc.b"]
    dz = model.config.d_latent
    return GaussianPosterior(out[:, :dz], out[:, dz:])


def decode_first_token(model: ArnModel, z) -> Tensor:
    """p(x1 | z): dense layer from (B, d_z) latents to (B, V) vocabulary logits."""
    z = z if isinstance(z, Tensor) else Tensor(z)
    if z.data.ndim != 2 or z.shape[1] != model.config.d_latent:
        raise ShapeError(f"latents must be (B, {model.config.d_latent}), got shape {z.shape}")
    return z @ model.params["dec.w"] + model.params["dec.b"]


def lstm_step(model: ArnModel, inp, state: RnnState):
    """One generator step: (logits over V, next state). inp is (B, d_emb)."""
    inp = inp if isinstance(inp, Tensor) else Tensor(inp)
    p = model.params
    hc = lstm_cell(inp @ p["gen.wx"] + state.h @ p["gen.wh"] + p["gen.b"], state.c)
    hdim = model.config.d_hidden
    new_state = RnnState(hc[:, :hdim], hc[:, hdim:])
    logits = new_state.h @ p["gen.proj_w"] + p["gen.proj_b"]
    return logits, new_state


def sequence_log_likelihood_batch(model: ArnModel, ids, z) -> tuple:
    """Teacher-forced log-likelihood terms for a (B, T) batch.

    Returns (first_token_logprob, autoregressive_logprob), each shape (B,),
    where the first term is log p(x1 | z) and the second sums steps 2..T.
    """
    ids = _check_ids(model, ids)
    bsz, tlen = ids.shape
    p = model.params
    lp1 = pick(decode_first_token(model, z).log_softmax(), ids[:, 0])
    hs = lstm_sequence(gather_rows(p["emb"], ids[:, :-1].T), p["gen.wx"], p["gen.wh"], p["gen.b"])
    logits = hs.reshape((tlen - 1) * bsz, model.config.d_hidden) @ p["gen.proj_w"] + p["gen.proj_b"]
    steps = pick(logits.log_softmax(), ids[:, 1:].T.reshape(-1))
    return lp1, steps.reshape(tlen - 1, bsz).sum(axis=0)


def _sample_rows(probs: np.ndarray, rng) -> np.ndarray:
    cum = probs.cumsum(axis=1)
    cum[:, -1] = 1.0
    u = rng.random(probs.shape[0])
    return (u[:, None] > cum).sum(axis=1)


def generate_batch(model: ArnModel, z: np.ndarray, rng) -> np.ndarray:
    """Sample (B, T) hard token ids given latent draws z (B, d_z)."""
    with no_grad():
        bsz = z.shape[0]
        probs = decode_first_token(model, Tensor(z)).softmax().data
        ids = np.empty((bsz, model.config.seq_len), dtype=np.int64)
        ids[:, 0] = _sample_rows(probs, rng)
        state = init_state(model, bsz)
        for i in range(1, model.config.seq_len):
            inp = gather_rows(model.params["emb"], ids[:, i - 1])
            logits, state = lstm_step(model, inp, state)
            ids[:, i] = _sample_rows(logits.softmax().data, rng)
    return ids


def draw_latents(model: ArnModel, mode, rng, count, seed_tokens=None) -> np.ndarray:
    """(count, d_z) latent draws.

    mode "noise": z ~ N(0, I). mode "decoded-x1": z ~ q(z | seed_tokens[k]).
    """
    dz = model.config.d_latent
    if mode == "noise":
        return rng.standard_normal((count, dz))
    if mode != "decoded-x1":
        raise ConfigError(f"unknown generation mode {mode!r}")
    if seed_tokens is None:
        raise ConfigError("decoded-x1 mode requires a seed token")
    with no_grad():
        q = encode_first_token(model, np.asarray(seed_tokens))
        return q.mu.data + np.exp(0.5 * q.log_var.data) * rng.standard_normal((count, dz))


def generate_relaxed_batch(model: ArnModel, z, tau: float, uniforms) -> Tensor:
    """Differentiable sampling: a (T, B, V) soft sequence of relaxed one-hot rows.

    uniforms is the (T, B, V) array of U(0, 1) draws behind each step's
    Gumbel noise, first token first; tau is the Gumbel-softmax temperature.
    """
    z = z if isinstance(z, Tensor) else Tensor(z)
    shape = (model.config.seq_len, z.shape[0], model.config.vocab_size)
    if np.shape(uniforms) != shape:
        raise ShapeError(f"uniforms must have shape {shape}, got {np.shape(uniforms)}")
    first = gumbel_softmax(decode_first_token(model, z), tau, uniforms[0])
    p = model.params
    return gumbel_lstm_sequence(
        first, p["emb"], p["gen.wx"], p["gen.wh"], p["gen.b"], p["gen.proj_w"], p["gen.proj_b"],
        gumbel_noise(uniforms[1:]), tau)


def one_hot_rows(ids: np.ndarray, vocab_size: int) -> Tensor:
    """Exact one-hot (T, B, V) soft sequence for a (B, T) hard batch."""
    ids = np.asarray(ids, dtype=np.int64)
    rows = np.zeros((ids.shape[1], ids.shape[0], vocab_size))
    np.put_along_axis(rows, ids.T[:, :, None], 1.0, axis=2)
    return Tensor(rows)


def discriminator_score_batch(model: ArnModel, *batches) -> Tensor:
    """Pre-sigmoid discriminator scores of one or more batches, run as one LSTM batch.

    Each batch is a (B, T) array of token ids, embedded by row lookup, or a
    (T, B, V) soft sequence, embedded by one (T*B, V) @ table product.
    Returns the scores of all batches in order, shape (sum of B,).
    """
    p = model.params
    inputs = []
    for batch in batches:
        if isinstance(batch, Tensor):
            tlen, bsz, vocab = batch.shape
            emb = batch.reshape(tlen * bsz, vocab) @ p["disc.emb"]
            inputs.append(emb.reshape(tlen, bsz, model.config.d_emb))
        else:
            inputs.append(gather_rows(p["disc.emb"], _check_ids(model, batch).T))
    x = inputs[0] if len(inputs) == 1 else concat(inputs, axis=1)
    hs = lstm_sequence(x, p["disc.wx"], p["disc.wh"], p["disc.b"])
    return (hs[-1] @ p["disc.head_w"] + p["disc.head_b"]).reshape(-1)

