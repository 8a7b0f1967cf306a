"""Model architecture: shared embedding, LSTM generator, first-token VAE,
and a sequence discriminator, plus the two generation procedures.

All forward passes are batched: token batches are (B, T) int arrays,
latents are (B, d_z) arrays, and soft (relaxed) sequences are (T, B, V)
tensors of rows on the simplex.
"""

from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .distributions import GaussianPosterior, gumbel_noise, gumbel_softmax, sample_rows
from .errors import ConfigError, ShapeError, VocabError
from .tensor import (
    Tensor, concat, gather_rows, gumbel_lstm_sequence, lstm_cell, lstm_sequence, no_grad, pick,
)

INIT_SCALE = 0.08


@dataclass
class ArnConfig:
    """Model sizes, and the float dtype of every array the model computes with."""

    seq_len: int = 8
    vocab_size: int = 8
    d_emb: int = 16
    d_hidden: int = 32
    d_latent: int = 8
    dtype: str = "float64"

    @staticmethod
    def preset(name: str) -> "ArnConfig":
        if name == "desk":
            return ArnConfig()
        if name == "paper":
            return ArnConfig(seq_len=20, vocab_size=10000, d_emb=500, d_hidden=500, d_latent=350,
                             dtype="float32")
        raise ConfigError(f"unknown preset {name!r}")


@dataclass
class ArnModel:
    """Parameter bundle; params maps names to Tensors with requires_grad set."""

    config: ArnConfig
    params: dict = field(default_factory=dict)

    @staticmethod
    def initialized(config: ArnConfig, rng: np.random.Generator) -> "ArnModel":
        """Uniform [-0.08, 0.08] initialization of every parameter tensor.

        The draws are float64 in any dtype, then cast to config.dtype.
        """
        model = ArnModel(config)
        for name, shape in model.param_shapes().items():
            draw = rng.uniform(-INIT_SCALE, INIT_SCALE, size=shape)
            model.params[name] = Tensor(draw.astype(config.dtype, copy=False), requires_grad=True)
        return model

    @staticmethod
    def zeros(config: ArnConfig) -> "ArnModel":
        model = ArnModel(config)
        for name, shape in model.param_shapes().items():
            model.params[name] = Tensor(np.zeros(shape, config.dtype), requires_grad=True)
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


def _check_ids(model, ids):
    ids = np.asarray(ids, dtype=np.int64)
    if np.any(ids < 0) or np.any(ids >= model.config.vocab_size):
        raise VocabError("token id out of vocabulary range")
    return ids


def encode_first_token(model: ArnModel, x1) -> GaussianPosterior:
    """q(z | x1) for (B,) first tokens: embedding + dense layer to (B, d_z) mu and log_var."""
    e = gather_rows(model.params["emb"], _check_ids(model, x1))
    out = e @ model.params["enc.w"] + model.params["enc.b"]
    dz = model.config.d_latent
    return GaussianPosterior(out[:, :dz], out[:, dz:])


def decode_first_token(model: ArnModel, z) -> Tensor:
    """p(x1 | z): dense layer from (B, d_z) latents to (B, V) vocabulary logits.

    An array z is cast to the model's dtype.
    """
    z = z if isinstance(z, Tensor) else Tensor(np.asarray(z, model.config.dtype))
    if z.data.ndim != 2 or z.shape[1] != model.config.d_latent:
        raise ShapeError(f"latents must be (B, {model.config.d_latent}), got shape {z.shape}")
    return z @ model.params["dec.w"] + model.params["dec.b"]


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


def generate_batch(model: ArnModel, z: np.ndarray, rng) -> np.ndarray:
    """Sample (B, T) hard token ids given latent draws z (B, d_z).

    Forward only: after the first token, each step is one lstm_cell array
    step on the parameter arrays, so no graph is recorded. Every step's (B, V)
    logits, laws, running sums and comparisons are written into the same three arrays.
    """
    with no_grad():
        logits = decode_first_token(model, z).data
    p = {name: t.data for name, t in model.params.items()}
    bsz = len(logits)
    cum, mask = np.empty(logits.shape, np.float64), np.empty(logits.shape, bool)
    ids = np.empty((bsz, model.config.seq_len), dtype=np.int64)
    ids[:, 0] = sample_rows(kernels.softmax_rows(logits, out=logits), rng, cum, mask)
    h = c = np.zeros((bsz, model.config.d_hidden), model.config.dtype)
    for i in range(1, model.config.seq_len):
        h, c = lstm_cell(p["emb"][ids[:, i - 1]] @ p["gen.wx"] + h @ p["gen.wh"] + p["gen.b"], c)
        np.matmul(h, p["gen.proj_w"], out=logits)
        logits += p["gen.proj_b"]
        ids[:, i] = sample_rows(kernels.softmax_rows(logits, out=logits), rng, cum, mask)
    return ids


def draw_latents(model: ArnModel, rng, count, seed_tokens=None) -> np.ndarray:
    """(count, d_z) latent draws: z ~ N(0, I) without seed tokens, else z ~ q(z | seed_tokens[k])."""
    dz = model.config.d_latent
    if seed_tokens is None:
        return rng.standard_normal((count, dz))
    with no_grad():
        q = encode_first_token(model, np.asarray(seed_tokens))
        return q.mu.data + np.exp(0.5 * q.log_var.data) * rng.standard_normal((count, dz))


def generate_relaxed_batch(model: ArnModel, tau: float, *draws) -> list:
    """Differentiable sampling of one or more batches, run as one generator batch.

    Each draw is a (z, uniforms) pair: (B_i, d_z) latents and the (T, B_i,
    V) array of U(0, 1) draws behind each step's Gumbel noise, first token
    first; tau is the Gumbel-softmax temperature. Returns one (T, B_i, V)
    soft sequence of relaxed one-hot rows per pair, in order. Each pair
    decodes its own first token, and each sequence's backward covers only
    its own rows, so its values and gradients are those of a call with that
    pair alone.
    """
    firsts, noise = [], []
    for z, uniforms in draws:
        shape = (model.config.seq_len, np.shape(z)[0], model.config.vocab_size)
        if np.shape(uniforms) != shape:
            raise ShapeError(f"uniforms must have shape {shape}, got {np.shape(uniforms)}")
        firsts.append(gumbel_softmax(decode_first_token(model, z), tau, uniforms[0]))
        noise.append(gumbel_noise(uniforms[1:]))
    p = model.params
    return gumbel_lstm_sequence(
        firsts, p["emb"], p["gen.wx"], p["gen.wh"], p["gen.b"], p["gen.proj_w"], p["gen.proj_b"],
        np.concatenate(noise, axis=1, dtype=model.config.dtype), tau)


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

