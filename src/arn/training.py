"""Training objectives, Adam optimizer, alternating loop, checkpoint I/O.

Sign conventions: both losses are minimized. The generator loss is the
negated variational lower bound plus lambda_adv times the mean of
log(1 - D(G(z))) (the saturating form as written). The discriminator loss
is the standard binary cross-entropy -log D(real) - log(1 - D(fake)).
"""

import contextlib
import itertools
import json
import math
import mmap
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from . import kernels, networks
from .distributions import kl_gauss_std, reparam_sample
from .errors import ConfigError, NumericsError, TrainingAborted
from .networks import ArnConfig, ArnModel
from .tensor import Tensor

CHECKPOINT_MAGIC = b"ARN1"
CHECKPOINT_VERSION = 2
PAYLOAD_ALIGN = 64  # version 2 pads the manifest with zero bytes to this; version 1 does not

# fixed sub-stream ids so every source of randomness hangs off one seed
_STREAMS = {"init": 0, "noise": 1, "gumbel": 2, "data": 3}


def rng_streams(seed: int) -> dict:
    return {
        name: np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, sid])))
        for name, sid in _STREAMS.items()
    }


# the Gumbel-softmax temperature anneal endpoints
TAU_START, TAU_END = 1.0, 0.2


@dataclass
class TrainConfig:
    batch_size: int = 32
    steps: int = 1000
    lr: float = 1e-3
    lambda_adv: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        # each range test is written so that NaN fails it
        if not self.steps >= 0:
            raise ConfigError(f"steps must be >= 0, got {self.steps}")
        if not 0 < self.lr < math.inf:
            raise ConfigError(f"lr must be finite and > 0, got {self.lr}")
        if not 0 <= self.lambda_adv < math.inf:
            raise ConfigError(f"lambda_adv must be finite and >= 0, got {self.lambda_adv}")

    def tau_at(self, step: int) -> float:
        """Exponential anneal from TAU_START to TAU_END over the run."""
        if self.steps <= 1:
            return TAU_END
        frac = min(step, self.steps - 1) / (self.steps - 1)
        return float(TAU_START * (TAU_END / TAU_START) ** frac)


def elbo_batch(model: ArnModel, ids: np.ndarray, noise: np.ndarray):
    """Per-sample lower-bound terms for a (B, T) batch.

    Returns (total, recon, kl, ar), each a shape-(B,) Tensor, with
    total = ar - kl + recon. noise is a (B, d_z) standard-normal draw for
    the single-sample reparameterized reconstruction estimate.
    """
    q = networks.encode_first_token(model, ids[:, 0])
    z = reparam_sample(q, noise)
    kl = kl_gauss_std(q)
    recon, ar = networks.sequence_log_likelihood_batch(model, ids, z)
    return ar - kl + recon, recon, kl, ar


def discriminator_loss(model: ArnModel, real_ids: np.ndarray, fake: Tensor) -> Tensor:
    """Mean of -log D(real) - log(1 - D(fake)); the (T, B, V) fake rows must carry no graph.

    Real and fake batches are scored together as one 2B batch.
    """
    if len(real_ids) == 0 or fake.shape[1] == 0:
        raise ConfigError("empty batch")
    scores = networks.discriminator_score_batch(model, real_ids, fake)
    s_real, s_fake = scores[:len(real_ids)], scores[len(real_ids):]
    # log D = log_sigmoid(s); log(1 - D) = log_sigmoid(-s)
    return (-s_real.log_sigmoid() - (-s_fake).log_sigmoid()).mean()


def generator_loss(model: ArnModel, real_ids: np.ndarray, noise: np.ndarray, fake, lambda_adv: float):
    """-ELBO + lambda_adv * mean log(1 - D(fake)) on a real batch, and its trace fields.

    noise is elbo_batch's (B, d_z) draw; fake is a relaxed (T, B', V) sample,
    or None for pure maximum likelihood. Returns (loss, {g_loss, recon, kl,
    ar_loglik, adv}). D scores the fakes with its parameters as constants, so
    the backward pass computes no discriminator gradient.
    """
    if len(real_ids) == 0:
        raise ConfigError("empty batch")
    total, recon, kl, ar = elbo_batch(model, real_ids, noise)
    loss = -total.mean()
    adv_mean = 0.0
    if fake is not None:
        constants = {name: Tensor(p.data) for name, p in model.discriminator_params().items()}
        frozen = ArnModel(model.config, {**model.params, **constants})
        adv = (-networks.discriminator_score_batch(frozen, fake)).log_sigmoid()
        adv_mean = float(adv.data.mean())
        loss = loss + lambda_adv * adv.mean()
    return loss, {"g_loss": float(loss.data), "recon": float(recon.data.mean()),
                  "kl": float(kl.data.mean()), "ar_loglik": float(ar.data.mean()), "adv": adv_mean}


@dataclass
class AdamState:
    t: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def optimizer_step(params: dict, state: AdamState, lr: float):
    """Bias-corrected Adam at learning rate lr on every param with a populated grad.

    Raises NumericsError (without touching any parameter) when a gradient is
    non-finite, so callers can reject the step.
    """
    grads = {}
    for name, p in params.items():
        if p.grad is None:
            continue
        if not np.isfinite(p.grad).all():
            raise NumericsError(f"non-finite gradient in {name}")
        grads[name] = p.grad
    state.t += 1
    for name, g in grads.items():
        p = params[name]
        if name not in state.m:
            state.m[name] = np.zeros(p.data.size, p.data.dtype)
            state.v[name] = np.zeros(p.data.size, p.data.dtype)
        kernels.adam_update(p.data.reshape(-1), g.reshape(-1), state.m[name], state.v[name], state.t, lr)


def sample_batch(corpus_ids: np.ndarray, batch_size: int, rng) -> np.ndarray:
    idx = rng.integers(0, corpus_ids.shape[0], size=batch_size)
    return corpus_ids[idx]


def train(model: ArnModel, corpus_ids: np.ndarray, cfg: TrainConfig,
          checkpoint_path=None, trace_path=None):
    """Alternating adversarial training.

    corpus_ids is an (N, T) int array. Returns (model, trace) where trace is
    one dict per step: d_loss, generator_loss's fields and tau. With lambda_adv == 0 the
    adversarial machinery (discriminator updates, relaxed sampling) is
    skipped entirely and training is pure VAE+AR maximum likelihood.
    """
    corpus_ids = np.asarray(corpus_ids, dtype=np.int64)
    if corpus_ids.size == 0:
        raise ConfigError("empty corpus")
    rngs = rng_streams(cfg.seed)
    g_state, d_state = AdamState(), AdamState()
    trace = []
    lr = cfg.lr
    halved = False

    latent = (cfg.batch_size, model.config.d_latent)
    uniform = (model.config.seq_len, cfg.batch_size, model.config.vocab_size)
    trace_file = open(trace_path, "w", encoding="utf-8") if trace_path else None
    try:
        for step in range(cfg.steps):
            tau = cfg.tau_at(step)
            d_loss_val, fake = 0.0, None
            try:
                if cfg.lambda_adv > 0:
                    batch = sample_batch(corpus_ids, cfg.batch_size, rngs["data"])
                    # D's update changes no generator parameter, so one generator pass makes
                    # D's fakes and G's. A seeded run depends on the order of each stream:
                    # z_D, the ELBO noise, z_G; then u_D, u_G.
                    z_d, noise, z_g = (rngs["noise"].standard_normal(latent) for _ in range(3))
                    gumbel = rngs["gumbel"]
                    fake_d, fake = networks.generate_relaxed_batch(
                        model, tau, (z_d, gumbel.random(uniform)), (z_g, gumbel.random(uniform)))
                    d_loss = discriminator_loss(model, batch, Tensor(fake_d.data))
                    if not np.isfinite(d_loss.data):
                        raise NumericsError("non-finite discriminator loss")
                    d_loss.backward()
                    d_params = model.discriminator_params()
                    optimizer_step(d_params, d_state, lr)
                    d_loss_val = float(d_loss.data)
                    # the D graph and D's gradients, before the G phase builds its own
                    del d_loss, fake_d
                    for p in d_params.values():
                        p.grad = None
                else:
                    noise = rngs["noise"].standard_normal(latent)
                batch = sample_batch(corpus_ids, cfg.batch_size, rngs["data"])
                g_loss, fields = generator_loss(model, batch, noise, fake, cfg.lambda_adv)
                if not np.isfinite(g_loss.data):
                    raise NumericsError("non-finite generator loss")
                g_loss.backward()
                optimizer_step(model.generator_params(), g_state, lr)
                del g_loss, fake  # the G graph, before the next step builds its own
            except NumericsError as exc:
                if halved:
                    if checkpoint_path:
                        save_checkpoint(checkpoint_path, model)
                    raise TrainingAborted(f"NaN recurrence at step {step}: {exc}") from exc
                halved = True
                lr *= 0.5
                continue
            record = {"step": step, "d_loss": d_loss_val, **fields, "tau": tau}
            trace.append(record)
            if trace_file:
                trace_file.write(json.dumps(record) + "\n")
    finally:
        if trace_file:
            trace_file.close()
    if checkpoint_path:
        save_checkpoint(checkpoint_path, model)
    return model, trace


# ---------------------------------------------------------------------------
# checkpoint format: magic "ARN1", u16 version, u32 tensor count, then per
# tensor: u16 name length + UTF-8 name, u8 rank, u64 extents, u8 dtype tag
# (0 = f32, 1 = f64); zero bytes up to a multiple of PAYLOAD_ALIGN (version
# 2 only); raw little-endian payloads follow in manifest order.
# ---------------------------------------------------------------------------

_DTYPE_TAGS = {np.dtype("<f4"): 0, np.dtype("<f8"): 1}
_TAG_DTYPES = {tag: dtype for dtype, tag in _DTYPE_TAGS.items()}

_META_PREFIX = "meta."
_META_FIELDS = ("seq_len", "vocab_size", "d_emb", "d_hidden", "d_latent")


def save_checkpoint(path, model: ArnModel):
    named = [(f"{_META_PREFIX}{f}", np.float64(getattr(model.config, f))) for f in _META_FIELDS]
    named += [(name, p.data) for name, p in sorted(model.params.items())]
    # a native little-endian C-contiguous array is written as it is, without a copy
    entries = [(name, np.asarray(a, a.dtype.newbyteorder("<"), order="C")) for name, a in named]
    # write beside the target, then rename over it: a reader sees the old
    # file or the new one, and a failed write leaves the old one in place
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(struct.pack("<4sHI", CHECKPOINT_MAGIC, CHECKPOINT_VERSION, len(entries)))
            for name, arr in entries:
                raw = name.encode("utf-8")
                fh.write(struct.pack(f"<H{len(raw)}sB{arr.ndim}QB", len(raw), raw, arr.ndim,
                                     *arr.shape, _DTYPE_TAGS[arr.dtype]))
            fh.write(bytes(-fh.tell() % PAYLOAD_ALIGN))
            for _, arr in entries:
                fh.write(arr)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def load_checkpoint(path) -> ArnModel:
    """Rebuild a model from a checkpoint; ConfigError if the file is malformed.

    Once the header and the payload sizes it declares add up to the file
    size, the file is mapped copy-on-write and each tensor is a view of the
    mapping: a page is read when first used, and a write never reaches the
    file. A view not aligned to its dtype (a version 1 file) is copied once.
    The model takes the dtype its parameter tensors share. Truncating the
    file in place while the model is alive makes a later read raise SIGBUS.
    """
    with open(path, "rb") as fh:
        if fh.read(4) != CHECKPOINT_MAGIC:
            raise ConfigError(f"{path}: not an ARN checkpoint")

        def unpack(fmt):
            return struct.unpack(fmt, fh.read(struct.calcsize(fmt)))

        manifest = []
        try:
            version, count = unpack("<HI")
            if version not in (1, CHECKPOINT_VERSION):
                raise ConfigError(f"unsupported checkpoint version {version}")
            for _ in range(count):
                (name_len,) = unpack("<H")
                name = unpack(f"{name_len}s")[0].decode("utf-8")
                (rank,) = unpack("<B")
                shape = unpack(f"<{rank}Q")
                (tag,) = unpack("<B")
                if tag not in _TAG_DTYPES:
                    raise ConfigError(f"{path}: unknown dtype tag {tag} for {name!r}")
                # the size check below bounds the extents of non-empty tensors only
                if math.prod(shape) == 0:
                    raise ConfigError(f"{path}: {name!r} has empty shape {shape}")
                manifest.append((name, shape, _TAG_DTYPES[tag]))
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: tensor name is not UTF-8") from exc
        except struct.error as exc:
            raise ConfigError(f"{path}: truncated checkpoint") from exc
        offsets = list(itertools.accumulate(
            (math.prod(shape) * dtype.itemsize for _, shape, dtype in manifest), initial=0))
        head = fh.tell()
        start = head + (-head % PAYLOAD_ALIGN if version == CHECKPOINT_VERSION else 0)
        file_size = os.fstat(fh.fileno()).st_size
        if start + offsets[-1] > file_size:
            raise ConfigError(f"{path}: truncated checkpoint")
        if start + offsets[-1] < file_size:
            raise ConfigError(f"{path}: trailing bytes after the last tensor")
        if any(fh.read(start - head)):
            raise ConfigError(f"{path}: nonzero padding before the payloads")
        try:  # the file may have been cut since the size check
            mapped = mmap.mmap(fh.fileno(), start + offsets[-1], access=mmap.ACCESS_COPY)
        except ValueError as exc:
            raise ConfigError(f"{path}: truncated checkpoint") from exc
    region = np.frombuffer(mapped, np.uint8, offsets[-1], start)
    tensors = {name: region[lo:hi].view(dtype).reshape(shape)
               for (name, shape, dtype), lo, hi in zip(manifest, offsets, offsets[1:])}
    missing = [f for f in _META_FIELDS if _META_PREFIX + f not in tensors]
    if missing:
        raise ConfigError(f"{path}: missing model sizes {missing}")
    meta = {}
    for f in _META_FIELDS:
        value = tensors.pop(_META_PREFIX + f)
        if value.shape != () or not np.isfinite(value) or value != np.floor(value) or value < 1:
            raise ConfigError(f"{path}: model size {f} must be an integer >= 1, got {value}")
        meta[f] = int(value)
    model = ArnModel(ArnConfig(**meta))
    shapes = model.param_shapes()
    if tensors.keys() != shapes.keys():
        raise ConfigError(f"{path}: missing tensors {sorted(shapes.keys() - tensors.keys())}, "
                          f"unexpected tensors {sorted(tensors.keys() - shapes.keys())}")
    dtypes = {data.dtype.name for data in tensors.values()}
    if len(dtypes) > 1:
        raise ConfigError(f"{path}: parameters mix dtypes {sorted(dtypes)}")
    (model.config.dtype,) = dtypes
    for name, data in tensors.items():
        if data.shape != shapes[name]:
            raise ConfigError(f"{path}: {name} has shape {data.shape}, expected {shapes[name]}")
    # NumPy would copy or leave BLAS on every use of a misaligned view, so one is copied once
    model.params = {name: Tensor(data if data.flags.aligned else data.copy(), requires_grad=True)
                    for name, data in tensors.items()}
    return model
