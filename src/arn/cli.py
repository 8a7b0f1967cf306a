"""Command-line surface: train, generate, evaluate, gradcheck, divlab.

Exit codes: 0 success, 2 usage/input error, 3 numeric abort. A JSON config
file may be supplied with --config; explicit flags win over its keys.
"""

import argparse
import json
import math
import os
import sys

import numpy as np

from . import corpus as corpus_mod
from . import divlab, metrics, networks, training
from .errors import (
    ArnError, ConfigError, EmptyInputError, EncodingError, NumericsError, ShapeError,
    TrainingAborted, VocabError,
)
from .networks import ArnConfig, ArnModel
from .tensor import grad_check, no_grad

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3

# generate samples at most this many sequences per generate_batch call, so
# its per-step (rows, V) arrays stay small at any --count
GENERATE_CHUNK = 256


def _merge_config(args, parser, argv):
    """Overlay JSON config-file values under explicitly passed flags.

    Each key becomes the token --key=value (a non-string value as its JSON
    text) right after the subcommand, and argv is parsed again: explicit
    flags come later and win, and each key and value meets its flag's checks.
    """
    if not getattr(args, "config", None):
        return args
    try:
        with open(args.config, encoding="utf-8") as fh:
            file_cfg = json.load(fh)
    except UnicodeDecodeError as exc:
        raise EncodingError(f"{args.config}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{args.config}: {exc}") from exc
    if not isinstance(file_cfg, dict):
        raise ConfigError(f"{args.config}: config must be a JSON object")
    argv = sys.argv[1:] if argv is None else list(argv)
    at = argv.index(args.command) + 1
    flags = [f"--{k.replace('_', '-')}={v if isinstance(v, str) else json.dumps(v)}"
             for k, v in file_cfg.items()]
    return parser.parse_args(argv[:at] + flags + argv[at:])


def _read_token_lines(path):
    """Whitespace-split tokens of every non-empty line of a UTF-8 file."""
    return [toks for toks in map(str.split, corpus_mod.read_lines(path)) if toks]


def _read_raw_ids(path, vocab_size):
    """(N, T) id array from a corpus whose tokens are integer ids in [0, vocab_size)."""
    seqs = _read_token_lines(path)
    if not seqs:
        raise EmptyInputError(f"{path}: empty corpus")
    if len({len(s) for s in seqs}) != 1:
        raise ShapeError(f"{path}: sequences differ in length")
    try:
        ids = np.asarray([[int(t) for t in s] for s in seqs], dtype=np.int64)
    except (ValueError, OverflowError) as exc:
        raise VocabError(f"{path}: token is not an integer id; pass --vocab for words ({exc})") from exc
    if ids.min() < 0 or ids.max() >= vocab_size:
        raise VocabError(f"{path}: token ids must lie in [0, {vocab_size})")
    return ids


def _read_ids(path, vocab, t_len, vocab_size):
    """(N, t_len) ids of a word corpus under vocab; (N, T) ids of a raw-id corpus when vocab is None."""
    if vocab is not None:
        return corpus_mod.load_corpus(path, vocab, t_len)
    return _read_raw_ids(path, vocab_size)


def _check_draw_size(flag, size, shape):
    """Reject a size whose float64 draw of this shape passes NumPy's byte limit.

    NumPy raises ValueError for such an array, where a size that only exceeds
    the machine's memory raises MemoryError, which main reports as usage.
    """
    if math.prod(shape) * 8 > np.iinfo(np.intp).max:
        raise ConfigError(f"{flag} {size} is too large: a float64 array of shape {shape} "
                          f"passes NumPy's limit of {np.iinfo(np.intp).max} bytes")


def _emit(line, out_path):
    """Write one report line to out_path when it is given, then print it."""
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(line + "\n")
    print(line)


def cmd_train(args):
    # checked before step 0, not when the trained model is written
    if not args.out or os.path.isdir(args.out) or not os.path.isdir(os.path.dirname(args.out) or "."):
        raise ConfigError(f"--out {args.out!r} must name a file in an existing directory")
    model_cfg = ArnConfig.preset(args.preset)
    vocab = None
    if args.vocab:
        vocab = corpus_mod.Vocabulary.load(args.vocab)
        model_cfg.vocab_size = len(vocab)
    ids = _read_ids(args.corpus, vocab, model_cfg.seq_len, model_cfg.vocab_size)
    model_cfg.seq_len = ids.shape[1]
    # the largest draw of a step: its (T, B, V) Gumbel uniforms
    _check_draw_size("--batch-size", args.batch_size,
                     (model_cfg.seq_len, args.batch_size, model_cfg.vocab_size))
    train_cfg = training.TrainConfig(
        batch_size=args.batch_size,
        steps=args.steps,
        lr=args.lr,
        lambda_adv=args.lambda_adv,
        seed=args.seed,
    )
    rngs = training.rng_streams(args.seed)
    model = ArnModel.initialized(model_cfg, rngs["init"])
    training.train(model, ids, train_cfg, checkpoint_path=args.out, trace_path=args.trace)
    print(f"checkpoint written to {args.out}")
    return EXIT_OK


def cmd_generate(args):
    if args.count < 0:
        raise ConfigError(f"--count must be >= 0, got {args.count}")
    if args.seed_corpus and args.mode != "decoded-x1":
        raise ConfigError("--seed-corpus needs --mode decoded-x1")
    model = training.load_checkpoint(args.checkpoint)
    vocab = corpus_mod.Vocabulary.load(args.vocab) if args.vocab else None
    if vocab is not None and len(vocab) != model.config.vocab_size:
        raise VocabError(f"{args.vocab}: {len(vocab)} tokens, but the checkpoint was "
                         f"trained on {model.config.vocab_size}")
    _check_draw_size("--count", args.count, (args.count, model.config.d_latent))  # the latents
    rng = training.rng_streams(args.seed)["noise"]
    # all seed tokens, then all latents, then the samples in chunks of rows
    seed_tokens = None
    if args.mode == "decoded-x1":
        if args.seed_corpus:
            ids = _read_ids(args.seed_corpus, vocab, 1, model.config.vocab_size)  # x1 is all it uses
            first_dist = np.bincount(ids[:, 0]) / len(ids)  # over ids 0..max(x1)
        else:
            first_dist = np.full(model.config.vocab_size, 1.0 / model.config.vocab_size)
        seed_tokens = rng.choice(len(first_dist), size=args.count, p=first_dist)
    z = networks.draw_latents(model, rng, args.count, seed_tokens)
    lines = [" ".join(vocab.decode(row) if vocab else [str(i) for i in row])
             for k in range(0, args.count, GENERATE_CHUNK)
             for row in networks.generate_batch(model, z[k:k + GENERATE_CHUNK], rng)]
    out = "\n".join(lines) + ("\n" if lines else "")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)
    return EXIT_OK


def cmd_evaluate(args):
    parts = str(args.orders).split(",")
    if not all(o.strip().isdecimal() and int(o) > 0 for o in parts):
        raise ConfigError(f"--orders must be comma-separated positive integers, got {args.orders!r}")
    orders = tuple(int(o) for o in parts)
    generated = _read_token_lines(args.generated)
    test = _read_token_lines(args.test)
    report = metrics.full_report(generated, test, orders=orders, pad_id=corpus_mod.PAD_TOKEN)
    _emit(report.to_json(), args.out)
    return EXIT_OK


def gradcheck_report(preset: str, seed: int) -> dict:
    """Finite-difference check of every loss at random small parameters."""
    cfg = ArnConfig.preset(preset)
    cfg.dtype = "float64"  # central differences at eps 1e-5 need it, whatever the preset
    rngs = training.rng_streams(seed)
    model = ArnModel.initialized(cfg, rngs["init"])
    ids = rngs["data"].integers(0, cfg.vocab_size, size=(2, cfg.seq_len))
    noise = rngs["noise"].standard_normal((2, cfg.d_latent))
    z_adv = rngs["noise"].standard_normal((2, cfg.d_latent))
    gumbel = rngs["gumbel"].random((cfg.seq_len, 2, cfg.vocab_size))
    # the discriminator probes perturb no generator parameter, so one fake serves them all
    with no_grad():
        (fake,) = networks.generate_relaxed_batch(model, 0.8, (z_adv, gumbel))

    def elbo_loss(m):
        return training.generator_loss(m, ids, noise, None, 1.0)[0]

    def disc_loss(m):
        return training.discriminator_loss(m, ids, fake)

    def gen_adv_loss(m):
        (fake,) = networks.generate_relaxed_batch(m, 0.8, (z_adv, gumbel))
        return training.generator_loss(m, ids, noise, fake, 1.0)[0]

    report = {}
    for loss_name, fn, params in (
        ("elbo", elbo_loss, model.generator_params()),
        ("discriminator", disc_loss, model.discriminator_params()),
        ("generator", gen_adv_loss, model.generator_params()),
    ):
        worst = 0.0
        for name, p in params.items():

            def probe(x, _name=name, _fn=fn):
                trial = ArnModel(model.config, dict(model.params))
                trial.params[_name] = x
                return _fn(trial)

            worst = max(worst, grad_check(probe, p))
        report[loss_name] = worst
    return report


def cmd_gradcheck(args):
    report = gradcheck_report(args.preset, args.seed)
    print(json.dumps(report))
    return EXIT_OK if max(report.values()) <= 1e-4 else EXIT_NUMERIC


def cmd_divlab(args):
    if args.trials < 1:
        raise ConfigError(f"--trials must be >= 1, got {args.trials}")
    if not 2 <= args.outcomes <= 16:
        raise ConfigError(f"--outcomes must lie in 2..16, got {args.outcomes}")
    report = divlab.run_lab(args.trials, args.outcomes, args.seed)
    _emit(json.dumps(report), args.out)
    ok = (
        report["identity_max_gap"] <= 1e-10
        and report["dstar_max_err"] <= 1e-4
        and report["nash_tv"] <= divlab.NASH_TOL
    )
    return EXIT_OK if ok else EXIT_NUMERIC


def build_parser():
    parser = argparse.ArgumentParser(prog="arn", description="Adversarial autoregressive sequence model")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model")
    p_train.add_argument("--corpus", required=True)
    p_train.add_argument("--vocab", default=None)
    p_train.add_argument("--preset", default="desk", choices=["desk", "paper"])
    p_train.add_argument("--steps", type=int, default=1000)
    p_train.add_argument("--batch-size", type=int, default=32)
    p_train.add_argument("--lr", type=float, default=1e-3)
    p_train.add_argument("--lambda-adv", type=float, default=1.0)
    p_train.add_argument("--seed", type=int, default=0)
    p_train.add_argument("--out", required=True)
    p_train.add_argument("--trace", default=None)
    p_train.add_argument("--config", default=None)
    p_train.set_defaults(func=cmd_train)

    p_gen = sub.add_parser("generate", help="sample sequences from a checkpoint")
    p_gen.add_argument("--checkpoint", required=True)
    p_gen.add_argument("--mode", default="noise", choices=["noise", "decoded-x1"])
    p_gen.add_argument("--count", type=int, default=10)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--vocab", default=None)
    p_gen.add_argument("--seed-corpus", default=None)
    p_gen.add_argument("--out", default=None)
    p_gen.add_argument("--config", default=None)
    p_gen.set_defaults(func=cmd_generate)

    p_eval = sub.add_parser("evaluate", help="BLEU/FC/Diversity report")
    p_eval.add_argument("--generated", required=True)
    p_eval.add_argument("--test", required=True)
    p_eval.add_argument("--orders", default="2,3")
    p_eval.add_argument("--out", default=None)
    p_eval.add_argument("--config", default=None)
    p_eval.set_defaults(func=cmd_evaluate)

    p_grad = sub.add_parser("gradcheck", help="finite-difference loss gradients")
    p_grad.add_argument("--preset", default="desk", choices=["desk", "paper"])
    p_grad.add_argument("--seed", type=int, default=0)
    p_grad.add_argument("--config", default=None)
    p_grad.set_defaults(func=cmd_gradcheck)

    p_div = sub.add_parser("divlab", help="divergence-equivalence verification")
    p_div.add_argument("--trials", type=int, default=100)
    p_div.add_argument("--outcomes", type=int, default=8)
    p_div.add_argument("--seed", type=int, default=0)
    p_div.add_argument("--out", default=None)
    p_div.add_argument("--config", default=None)
    p_div.set_defaults(func=cmd_divlab)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args = _merge_config(args, parser, argv)
        return args.func(args)
    except (NumericsError, TrainingAborted) as exc:
        print(f"numeric abort: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ArnError, OSError, MemoryError) as exc:  # MemoryError: a size asked for more than the machine has
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
