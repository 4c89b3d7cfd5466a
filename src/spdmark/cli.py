"""Command-line surface for the watermarking pipeline.

Configuration is a single flat JSON object.  Resolution order: built-in
defaults, then the config file (--config, or the SPDMARK_CONFIG environment
variable), then command-line flags; flags win.  Every random draw flows
from named seeds derived with derive_seed, so any command replayed with the
same config and seeds reproduces its output bit for bit; the "runtime" key
of a report is the one exception and carries wall-clock stats only.  A
run's config.json is a valid --config: it holds every field and their
config_hash, which must still be the hash of those fields when the file is
read back, before flags override them.

Exit codes: 0 success, 2 invalid configuration or usage, 3 verification
returned invalid (for scripting), 4 a pipeline stage failed (the error
report on stderr names the stage).  `main` tags each subcommand's failures
with its name as the stage; run-pipeline names the failing stage of the run.
"""

import argparse
import contextlib
import dataclasses
import functools
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import channel_attacks
from .channel_attacks import (
    MAX_FRAMES,
    ChannelSpec,
    TamperRecord,
    apply_attack,
    channel_extract,
    parse_attack_spec,
)
from .keyspace import (
    MAX_MESSAGE_BITS,
    BaseSecret,
    KeyConfig,
    MessageSequence,
    _canonical,
    _typed,
    derive_frame_messages,
    derive_schedules,
    extraction_document,
    key_document,
    parse_extraction_document,
    parse_key_document,
    parse_schedule_document,
    random_key,
    random_keys,
    schedule_document,
)
from .objective import (
    Corpus,
    bit_accuracy,
    fit_extractor,
    loss_report,
    read_extractor,
    write_extractor,
)
from .spd_core import (
    MAX_SHIFT_TERMS,
    generate_frames,
    generate_video,
    init_dictionary,
    init_toy_decoder,
    random_condition,
    read_video,
    write_video,
)
from .verifier import (
    Verdict,
    diagnose_tampering,
    null_calibration,
    verify,
)

__all__ = [
    "RunConfig",
    "ConfigError",
    "StageError",
    "load_config",
    "config_hash",
    "derive_seed",
    "build_corpus",
    "toy_components",
    "forensics_table",
    "DEFAULT_ATTACK_SUITE",
    "main",
]

DEFAULT_ATTACK_SUITE = (
    {"attack": "drop", "fraction": 0.5},
    {"attack": "insert", "fraction": 0.2, "mode": "noise"},
    {"attack": "swap_random"},
    {"attack": "swap_adjacent", "pair_fraction": 0.3},
    {"attack": "trim", "head_fraction": 0.2, "tail_fraction": 0.2},
)


class ConfigError(Exception):
    pass


class StageError(Exception):
    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"{stage}: {cause}")
        self.stage = stage
        self.cause = cause


@contextlib.contextmanager
def _stage(name: str, seconds: Optional[dict] = None):
    """Tag any failure inside the block with the pipeline stage name, and
    record the block's wall time under that name in `seconds` if given."""
    begin = time.perf_counter()
    try:
        yield
    except (ConfigError, StageError):
        raise
    except Exception as exc:
        raise StageError(name, exc) from exc
    if seconds is not None:
        seconds[name] = time.perf_counter() - begin


@dataclass(frozen=True)
class RunConfig:
    num_layers: int = 14
    bases_per_layer: int = 4
    layer_dim: int = 64
    height: int = 8
    width: int = 8
    rank: int = 32
    alpha: float = 1.0
    init_seed: int = 0
    decoder_seed: int = 0
    latent_scale: float = 0.05
    ridge_lambda: float = 1e-3
    gamma_f: float = 1e-3
    gamma_v: float = 1e-6
    seed: int = 0
    num_frames: int = 25
    flip_probability: float = 0.0
    secret_hex: str = ""
    attack: dict = dataclasses.field(default_factory=lambda: {"attack": "none"})
    attacks: tuple = DEFAULT_ATTACK_SUITE
    trials: int = 1000
    calibration_trials: int = 2000
    train_videos: int = 200
    train_frames: int = 8
    holdout_videos: int = 50
    condition_seed: int = 0

    def __post_init__(self) -> None:
        for field in dataclasses.fields(self):
            value, kind = getattr(self, field.name), field.type
            try:
                typed = _typed(value, kind)
            except TypeError as exc:
                raise ValueError(f"{field.name}: {exc}") from None
            if kind is float:
                # 1 and 1.0 are one config: one hash, one config.json.
                object.__setattr__(self, field.name, typed)
        for name in ("num_layers", "bases_per_layer", "layer_dim", "height", "width",
                     "num_frames", "trials", "calibration_trials", "train_videos",
                     "train_frames", "holdout_videos"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.num_frames > MAX_FRAMES:
            raise ValueError(f"num_frames must be <= {MAX_FRAMES}, the verifier's bound")
        for name in ("rank", "init_seed", "decoder_seed", "seed", "latent_scale",
                     "ridge_lambda", "condition_seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.seed >= 1 << 64:
            # keygen draws the key from the seed's own counter-based stream.
            raise ValueError("seed must be < 2**64")
        for name in ("gamma_f", "gamma_v"):
            if not 0.0 < getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in (0, 1]")
        if not 0.0 <= self.flip_probability <= 1.0:
            raise ValueError("flip_probability must lie in [0, 1]")
        width = self.key_config().message_bits
        if width > MAX_MESSAGE_BITS:
            raise ValueError(
                f"num_layers * log2(bases_per_layer) = {width} "
                f"exceeds {MAX_MESSAGE_BITS}, the length of one SHA-256 digest"
            )
        if self.rank > self.layer_dim:
            raise ValueError("rank must not exceed layer_dim")
        if self.layer_dim * self.rank > MAX_SHIFT_TERMS:
            # Beyond it the decoder's displacement products are not exact.
            raise ValueError(f"layer_dim * rank must be <= {MAX_SHIFT_TERMS}")
        specs = tuple(parse_attack_spec(spec, structural=True)[2] for spec in self.attacks)
        if any("seed" in spec for spec in specs):
            raise ValueError("attacks entries take no seed: the table seeds every trial")
        object.__setattr__(self, "attacks", specs)
        object.__setattr__(self, "attack", parse_attack_spec(self.attack)[2])
        self.secret()

    def key_config(self) -> KeyConfig:
        return KeyConfig(self.num_layers, self.bases_per_layer)

    def secret(self) -> BaseSecret:
        if self.secret_hex:
            return BaseSecret(bytes.fromhex(self.secret_hex))
        seeded = hashlib.sha256(f"spdmark-secret:{self.seed}".encode()).digest()
        return BaseSecret(seeded)


def derive_seed(*parts) -> int:
    """Stable 63-bit seed from a labelled path, e.g. (seed, "attack")."""
    text = "\x1f".join(str(part) for part in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def config_hash(cfg: RunConfig) -> str:
    """The first 16 hex digits of the SHA-256 of every config field as
    canonical JSON: config.json without its "config_hash" key."""
    doc = {field.name: getattr(cfg, field.name) for field in dataclasses.fields(cfg)}
    return hashlib.sha256(_canonical(doc).encode("utf-8")).hexdigest()[:16]


def load_config(path: Optional[str], overrides: dict) -> RunConfig:
    data: dict = {}
    if path is None:
        path = os.environ.get("SPDMARK_CONFIG") or None
    if path:
        try:
            loaded = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, ValueError, RecursionError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError(f"config {path} must hold a JSON object")
        data.update(loaded)
    # A run's config.json states its hash; it must be the hash of the fields
    # the file holds, before any flag overrides them.
    states_hash = "config_hash" in data
    stated = data.pop("config_hash", None)
    from_file = dict(data)
    data.update({k: v for k, v in overrides.items() if v is not None})
    known = {field.name for field in dataclasses.fields(RunConfig)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ConfigError(f"unknown config keys: {unknown}")
    try:
        if states_hash and stated != config_hash(RunConfig(**from_file)):
            raise ConfigError(f"config {path} states config_hash {stated!r}, "
                              "which is not the hash of its fields")
        return RunConfig(**data)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _read_json(path: str) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _emit(doc, out) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


# Model configs whose dictionary, decoder and training corpus stay built in
# one process: the last one, since runs in a process use one config (at the
# defaults, about 4.8 MB for the model, 2.5 MB for the corpus and 0.34 MB for
# its normal equations).
_MODEL_CACHE_SIZE = 1

# The fields each memo is keyed on: exactly the fields its value reads.
_MODEL_FIELDS = ("num_layers", "bases_per_layer", "layer_dim", "rank", "init_seed",
                 "height", "width", "decoder_seed")
_CORPUS_FIELDS = _MODEL_FIELDS + ("alpha", "latent_scale", "condition_seed",
                                  "train_videos", "train_frames")

# The schedule secret of every training and holdout corpus.  A corpus is a
# property of the model, so no per-run field (seed, secret_hex) reaches it.
_CORPUS_SECRET = BaseSecret(hashlib.sha256(b"spdmark-corpus-secret").digest())


def _fields(cfg: RunConfig, names) -> tuple:
    return tuple(getattr(cfg, name) for name in names)


@functools.lru_cache(maxsize=_MODEL_CACHE_SIZE)
def _toy_model(num_layers, bases_per_layer, layer_dim, rank, init_seed, height, width,
               decoder_seed):
    """The dictionary and decoder of one model config, built on first use.
    Both are frozen and their arrays read-only, so every run shares them."""
    dictionary = init_dictionary(
        KeyConfig(num_layers, bases_per_layer),
        layer_dim=layer_dim,
        rank=rank,
        init_seed=init_seed,
    )
    decoder = init_toy_decoder(
        layer_dim=layer_dim,
        height=height,
        width=width,
        num_layers=num_layers,
        seed=decoder_seed,
    )
    return dictionary, decoder


@functools.lru_cache(maxsize=_MODEL_CACHE_SIZE)
def _toy_corpus(*fields):
    """The training corpus of the config whose _CORPUS_FIELDS hold `fields`,
    built on first use.  Its pixels, schedule and normal equations are
    read-only, so every run of the model shares them."""
    cfg = RunConfig(**dict(zip(_CORPUS_FIELDS, fields)))
    dictionary, decoder = _toy_model(*_fields(cfg, _MODEL_FIELDS))
    condition = random_condition(cfg.layer_dim, cfg.condition_seed)
    return build_corpus(cfg, "train", cfg.train_videos, cfg.train_frames,
                        dictionary, decoder, condition)


def toy_components(cfg: RunConfig):
    """Dictionary, decoder, and the model's condition vector.

    The dictionary and decoder come from a per-process memo of the last
    _MODEL_CACHE_SIZE model configs, keyed on exactly the fields they read
    (_MODEL_FIELDS, the parameters of _toy_model), so runs that differ only
    in per-run fields such as seed, alpha, attack or num_frames share one
    model.  The condition vector is drawn from condition_seed per call.
    """
    dictionary, decoder = _toy_model(*_fields(cfg, _MODEL_FIELDS))
    return dictionary, decoder, random_condition(cfg.layer_dim, cfg.condition_seed)


def build_corpus(cfg: RunConfig, role: str, count: int, frames_per_video: int,
                 dictionary, decoder, condition) -> Corpus:
    """Generate `count` watermarked videos, each under its own random key, as
    a Corpus: one read-only (count, frames_per_video, 3, H, W) stack and the
    MessageSequence of their count * frames_per_video messages, video after
    video.

    The keys, latents and schedule secret come from a fixed corpus
    namespace, "corpus" and `role` ("train" or "holdout"), never from the
    run's seed or secret: the corpus reads only the model fields, alpha,
    latent_scale and the condition.  The condition vector is shared across
    the corpus: the displacement a mask adds is linear in the hidden state,
    so a single linear extractor has a fixed signal direction to learn only
    when the condition is fixed.  Sharing it also lets the whole corpus be
    generated in one batch.
    """
    keys = random_keys(
        cfg.key_config(),
        [derive_seed("corpus", role, index, "key") for index in range(count)],
    )
    schedule = derive_schedules(_CORPUS_SECRET, keys, frames_per_video)
    latent_seeds = [derive_seed("corpus", role, index, "latent") for index in range(count)]
    frame_seeds = [
        (seed, t) for seed in latent_seeds for t in range(1, frames_per_video + 1)
    ]
    pixels = generate_frames(
        decoder, dictionary, schedule, frame_seeds, condition, cfg.latent_scale,
        cfg.alpha,
    )
    return Corpus(pixels.reshape(count, frames_per_video, *pixels.shape[1:]), schedule)


def forensics_table(cfg: RunConfig) -> list:
    """Per-attack Monte Carlo table: schedule, attack, channel, verify,
    diagnose, aggregate.

    The bit-flip channel acts after the temporal attack, independently per
    received frame.  Rows carry their seed namespace and the config hash;
    rerunning with the same config reproduces every number.
    """
    key_cfg = cfg.key_config()
    secret = cfg.secret()
    digest = config_hash(cfg)
    rows = []
    for spec in cfg.attacks:
        name = spec["attack"]
        row_seed = derive_seed(cfg.seed, name)
        sums = {"bit_acc": 0.0, "order_acc": 0.0, "f1_drop": 0.0, "f1_insert": 0.0}
        valid_count = 0
        recovered_count = 0
        for trial in range(cfg.trials):
            key = random_key(key_cfg, derive_seed(row_seed, trial, "key"))
            schedule = derive_frame_messages(secret, key, cfg.num_frames)
            attacked, record = apply_attack(schedule, spec, derive_seed(row_seed, trial, "attack"))
            received = channel_extract(
                attacked,
                ChannelSpec(cfg.flip_probability, derive_seed(row_seed, trial, "channel")),
            )
            verdict = verify(schedule, received, cfg.gamma_f, cfg.gamma_v)
            diagnosis = diagnose_tampering(verdict, record)
            sums["bit_acc"] += verdict.bit_acc
            sums["order_acc"] += verdict.order_acc
            sums["f1_drop"] += diagnosis.scores["drop"]["f1"]
            sums["f1_insert"] += diagnosis.scores["insert"]["f1"]
            valid_count += int(verdict.valid)
            mapping = {pi: rho for pi, rho, _ in verdict.valid_set}
            recovered_count += int(mapping == record.permutation)
        rows.append({
            "attack": name,
            "params": {k: v for k, v in spec.items() if k != "attack"},
            "trials": cfg.trials,
            "seed": row_seed,
            "config_hash": digest,
            "bit_acc": sums["bit_acc"] / cfg.trials,
            "order_acc": sums["order_acc"] / cfg.trials,
            "f1_drop": sums["f1_drop"] / cfg.trials,
            "f1_insert": sums["f1_insert"] / cfg.trials,
            "valid_rate": valid_count / cfg.trials,
            "perm_recovered_rate": recovered_count / cfg.trials,
        })
    return rows


# One function per pipeline stage, on in-memory objects.  Each writes its
# artifact to the path it is given and returns what later stages read.  The
# subcommands read their inputs from files and call one stage; run-pipeline
# chains the stages in one process, so each artifact is written in one place.


def _keygen(cfg: RunConfig, out):
    key = random_key(cfg.key_config(), cfg.seed)
    _emit({**key_document(cfg.key_config(), key), "seed": cfg.seed}, out)
    return key


def _schedule(cfg: RunConfig, key_cfg: KeyConfig, key, out) -> MessageSequence:
    schedule = derive_frame_messages(cfg.secret(), key, cfg.num_frames)
    _emit(schedule_document(key_cfg, key, schedule), out)
    return schedule


def _embed(cfg: RunConfig, components, schedule, out, clean_out=None) -> tuple:
    """The watermarked video and, if `clean_out` is given, the unwatermarked
    one from the same latents and dictionary at alpha 0; `components` is
    what toy_components returns."""
    dictionary, decoder, condition = components
    latent_seed = derive_seed(cfg.seed, "latent")
    marked = generate_video(
        decoder, dictionary, schedule, latent_seed, condition, cfg.latent_scale, cfg.alpha
    )
    _write_binary(out, write_video, marked)
    clean = None
    if clean_out:
        clean = generate_video(
            decoder, dictionary, schedule, latent_seed, condition, cfg.latent_scale, 0.0
        )
        _write_binary(clean_out, write_video, clean)
    return marked, clean


def _fit_extractor(cfg: RunConfig, out) -> tuple:
    """The extractor fitted at the run's ridge_lambda on the model's training
    corpus, and that corpus, which the per-process memo builds once with the
    normal equations every fit solves."""
    train = _toy_corpus(*_fields(cfg, _CORPUS_FIELDS))
    extractor = fit_extractor(train, ridge_lambda=cfg.ridge_lambda)
    _write_binary(out, write_extractor, extractor)
    return extractor, train


def _attack(cfg: RunConfig, target, out, record_out=None) -> tuple:
    """The attacked video or extraction, written to `out`, and its tamper
    record, written if given a path."""
    attacked, record = apply_attack(target, cfg.attack, derive_seed(cfg.seed, "attack"))
    if isinstance(attacked, MessageSequence):
        _emit(extraction_document(attacked), out)
    else:
        _write_binary(out, write_video, attacked)
    if record_out:
        _emit(None if record is None else record.to_doc(), record_out)
    return attacked, record


def _extract(cfg: RunConfig, target, extractor, out) -> MessageSequence:
    """The messages read from a video by `extractor`, or from a
    MessageSequence through the configured bit-flip channel."""
    if isinstance(target, MessageSequence):
        extracted = channel_extract(
            target, ChannelSpec(cfg.flip_probability, derive_seed(cfg.seed, "channel"))
        )
    else:
        extracted = MessageSequence([extractor.decode(frame) for frame in target])
    _emit(extraction_document(extracted), out)
    return extracted


def _verify(cfg: RunConfig, schedule, extracted: MessageSequence,
            record: Optional[TamperRecord], out) -> Verdict:
    verdict = verify(schedule, extracted, cfg.gamma_f, cfg.gamma_v)
    _emit(verdict.to_doc(record), out)
    return verdict


def _diagnose(verdict: Verdict, record: Optional[TamperRecord], out) -> None:
    _emit(diagnose_tampering(verdict, record).to_doc(), out)


def _calibrate(cfg: RunConfig) -> dict:
    trials = cfg.calibration_trials
    if trials < 1000:
        raise ConfigError("calibration needs at least 1000 trials")
    if cfg.gamma_v < 10 / trials:
        print(
            f"warning: gamma_v={cfg.gamma_v:g} is below the Monte Carlo resolution "
            f"10/trials={10 / trials:g}; the video-level rate is a "
            "threshold check, not a rate estimate",
            file=sys.stderr,
        )
    return null_calibration(
        cfg.key_config().message_bits, cfg.num_frames, cfg.gamma_f, cfg.gamma_v,
        cfg.calibration_trials, derive_seed(cfg.seed, "calibrate"),
    )


def _read_schedule(path: str) -> MessageSequence:
    return parse_schedule_document(_read_json(path))[2]


def _read_binary(path: str, reader):
    with open(path, "rb") as stream:
        return reader(stream)


def _read_record(path: Optional[str]) -> Optional[TamperRecord]:
    """The tamper record file at `path`, if given; the JSON null written for
    photometric attacks means there is no ground truth."""
    doc = _read_json(path) if path else None
    return None if doc is None else TamperRecord.from_doc(doc)


def _write_binary(path, writer, value) -> None:
    with open(path, "wb") as stream:
        writer(stream, value)


def cmd_keygen(cfg: RunConfig, args) -> int:
    _keygen(cfg, args.out)
    return 0


def cmd_schedule(cfg: RunConfig, args) -> int:
    _schedule(cfg, *parse_key_document(_read_json(args.key)), args.out)
    return 0


def cmd_embed(cfg: RunConfig, args) -> int:
    if not args.out:
        raise ConfigError("embed writes a binary video and needs --out")
    _embed(cfg, toy_components(cfg), _read_schedule(args.schedule), args.out,
           args.clean_out)
    return 0


def cmd_attack(cfg: RunConfig, args) -> int:
    if args.video:
        if not args.out:
            raise ConfigError("attacking a video writes binary output and needs --out")
        target = _read_binary(args.video, read_video)
    elif args.extraction:
        target = parse_extraction_document(_read_json(args.extraction))
    elif args.schedule:
        target = _read_schedule(args.schedule)
    else:
        raise ConfigError("attack needs --video, --extraction, or --schedule")
    _attack(cfg, target, args.out, args.record)
    return 0


def cmd_extract(cfg: RunConfig, args) -> int:
    if args.video:
        if not args.extractor:
            raise ConfigError("extracting from a video needs --extractor")
        extractor = _read_binary(args.extractor, read_extractor)
        target = _read_binary(args.video, read_video)
    elif args.schedule:
        extractor, target = None, _read_schedule(args.schedule)
    else:
        raise ConfigError("extract needs --video with --extractor, or --schedule")
    _extract(cfg, target, extractor, args.out)
    return 0


def cmd_fit_extractor(cfg: RunConfig, args) -> int:
    components = toy_components(cfg)
    out_path = args.out or "extractor.bin"
    extractor, train = _fit_extractor(cfg, out_path)
    held = build_corpus(cfg, "holdout", cfg.holdout_videos, cfg.train_frames, *components)
    report = {
        "extractor": out_path,
        "train_videos": cfg.train_videos,
        "train_frames": cfg.train_frames,
        "holdout_videos": cfg.holdout_videos,
        "train_bit_acc": bit_accuracy(extractor, train),
        "holdout_bit_acc": bit_accuracy(extractor, held),
        "config_hash": config_hash(cfg),
        "seed": cfg.seed,
    }
    _emit(report, None)
    return 0


def cmd_verify(cfg: RunConfig, args) -> int:
    schedule = _read_schedule(args.schedule)
    extracted = parse_extraction_document(_read_json(args.extraction))
    verdict = _verify(cfg, schedule, extracted, _read_record(args.tamper), args.out)
    return 0 if verdict.valid else 3


def cmd_diagnose(cfg: RunConfig, args) -> int:
    _diagnose(Verdict.from_doc(_read_json(args.verdict)), _read_record(args.tamper),
              args.out)
    return 0


def cmd_calibrate(cfg: RunConfig, args) -> int:
    report = _calibrate(cfg)
    report["config_hash"] = config_hash(cfg)
    _emit(report, args.out)
    return 0


# What a toy run writes: config.json and each stage's artifact.
_TOY_ARTIFACTS = ("attacked.spdf", "clean.spdf", "config.json", "diagnosis.json",
                  "extraction.json", "extractor.bin", "key.json", "marked.spdf",
                  "schedule.json", "tamper.json", "verdict.json")


def _toy_pipeline(cfg: RunConfig, out: Path, seconds: dict) -> dict:
    """Every toy stage in order, each writing its artifact into `out` and
    its wall time into `seconds`; returns the report's body."""
    with _stage("keygen", seconds):
        key = _keygen(cfg, out / "key.json")
    with _stage("schedule", seconds):
        schedule = _schedule(cfg, cfg.key_config(), key, out / "schedule.json")
    with _stage("embed", seconds):
        marked, clean = _embed(
            cfg, toy_components(cfg), schedule, out / "marked.spdf", out / "clean.spdf"
        )
    with _stage("fit-extractor", seconds):
        extractor, _ = _fit_extractor(cfg, out / "extractor.bin")
    with _stage("attack", seconds):
        attacked, record = _attack(cfg, marked, out / "attacked.spdf", out / "tamper.json")
    with _stage("extract", seconds):
        extracted = _extract(cfg, attacked, extractor, out / "extraction.json")
    with _stage("verify", seconds):
        verdict = _verify(cfg, schedule, extracted, record, out / "verdict.json")
    with _stage("diagnose", seconds):
        _diagnose(verdict, record, out / "diagnosis.json")
    with _stage("losses", seconds):
        losses = loss_report(clean, marked, extractor, schedule)
    return {
        "valid": verdict.valid,
        "bit_acc": verdict.bit_acc,
        "order_acc": verdict.order_acc,
        "num_valid": len(verdict.valid_set),
        "losses": losses,
        "artifacts": _TOY_ARTIFACTS,
    }


def _channel_pipeline(cfg: RunConfig, seconds: dict) -> dict:
    with _stage("forensics", seconds):
        rows = forensics_table(cfg)
    with _stage("calibrate", seconds):
        calibration = _calibrate(cfg)
    return {
        "flip_probability": cfg.flip_probability,
        "num_frames": cfg.num_frames,
        "rows": rows,
        "calibration": calibration,
    }


def _check_attacks(specs, num_frames: int) -> None:
    """Run each attack spec once on num_frames zero 1 x 1 frames, so that a
    spec the attack itself rejects at this length (a drop or trim of every
    frame, an insert past MAX_FRAMES) exits as a config fault before any
    artifact is written.  The attack is looked up in its own module, so a
    benchmark that wraps this module's apply_attack counts only the run's
    own attack."""
    placeholder = np.zeros((num_frames, 3, 1, 1))
    for spec in specs:
        try:
            channel_attacks.apply_attack(placeholder, spec)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"attack {spec['attack']!r} on {num_frames} frames: {exc}") from exc


def cmd_run_pipeline(cfg: RunConfig, args) -> int:
    if args.mode == "toy" and cfg.num_frames < 2:
        raise ConfigError("run-pipeline --mode toy needs at least 2 frames for its "
                          "temporal consistency loss")
    _check_attacks([cfg.attack] if args.mode == "toy" else cfg.attacks, cfg.num_frames)
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    resolved = dataclasses.asdict(cfg)
    resolved["config_hash"] = config_hash(cfg)
    _emit(resolved, out / "config.json")
    seconds: dict = {}
    started = time.perf_counter()
    if args.mode == "toy":
        body = _toy_pipeline(cfg, out, seconds)
    else:
        body = _channel_pipeline(cfg, seconds)
    runtime = {"stage_seconds": seconds, "total_seconds": time.perf_counter() - started}
    report = {"mode": args.mode, "config_hash": config_hash(cfg), "seed": cfg.seed,
              **body, "runtime": runtime}
    _emit(report, out / "report.json")
    # Only an invalid toy verdict exits 3; channel mode has no single verdict.
    return 0 if body.get("valid", True) else 3


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use; parsing leaves it
    unchanged, so one serves every call in the process."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to a JSON config file")
    common.add_argument("--gamma-f", dest="gamma_f", type=float)
    common.add_argument("--gamma-v", dest="gamma_v", type=float)
    common.add_argument("--seed", type=int)
    common.add_argument("--trials", type=int)
    common.add_argument("--attack", help="attack spec as inline JSON")
    common.add_argument("--out", help="output file (directory for run-pipeline)")

    parser = argparse.ArgumentParser(
        prog="spdmark",
        description="Key-selected low-rank watermarking on a toy video generator, "
        "with attack simulation and calibrated verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("keygen", parents=[common], help="draw a watermark key")
    p.set_defaults(handler=cmd_keygen)

    p = sub.add_parser("schedule", parents=[common], help="derive per-frame messages")
    p.add_argument("--key", required=True, help="key JSON file")
    p.add_argument("--frames", dest="num_frames", type=int)
    p.set_defaults(handler=cmd_schedule)

    p = sub.add_parser("embed", parents=[common], help="generate a watermarked toy video")
    p.add_argument("--schedule", required=True, help="schedule JSON file")
    p.add_argument("--clean-out", dest="clean_out", help="also write the unwatermarked video")
    p.set_defaults(handler=cmd_embed)

    p = sub.add_parser("attack", parents=[common], help="apply an attack to a video or sequence")
    p.add_argument("--video", help="SPDF video input")
    p.add_argument("--extraction", help="extraction JSON input")
    p.add_argument("--schedule", help="schedule JSON input (attacked as a sequence)")
    p.add_argument("--record", help="write the ground-truth tamper record here")
    p.set_defaults(handler=cmd_attack)

    p = sub.add_parser("extract", parents=[common], help="recover per-frame messages")
    p.add_argument("--video", help="SPDF video input (needs --extractor)")
    p.add_argument("--extractor", help="fitted extractor file")
    p.add_argument("--schedule", help="schedule JSON input (channel simulation)")
    p.set_defaults(handler=cmd_extract)

    p = sub.add_parser("fit-extractor", parents=[common],
                       help="fit the linear extractor on a generated corpus")
    p.set_defaults(handler=cmd_fit_extractor)

    p = sub.add_parser("verify", parents=[common], help="verify an extraction against a schedule")
    p.add_argument("--schedule", required=True)
    p.add_argument("--extraction", required=True)
    p.add_argument("--tamper", help="attach a tamper record to the verdict document")
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("diagnose", parents=[common], help="localize temporal edits from a verdict")
    p.add_argument("--verdict", required=True)
    p.add_argument("--tamper", help="ground-truth tamper record for scoring")
    p.set_defaults(handler=cmd_diagnose)

    p = sub.add_parser("calibrate", parents=[common],
                       help="measure null-hypothesis behaviour of the verifier")
    p.add_argument("--frames", dest="num_frames", type=int)
    p.set_defaults(handler=cmd_calibrate)

    p = sub.add_parser("run-pipeline", parents=[common],
                       help="schedule, embed, attack, extract, verify, diagnose, report")
    p.add_argument("--mode", choices=("toy", "channel"), default="toy")
    p.add_argument("--frames", dest="num_frames", type=int)
    p.set_defaults(handler=cmd_run_pipeline)

    return parser


def _overrides(args) -> dict:
    keys = ("gamma_f", "gamma_v", "seed", "trials", "num_frames")
    overrides = {key: getattr(args, key, None) for key in keys}
    if args.command == "calibrate":
        # calibrate's --trials is its own trial count, not the forensics one.
        overrides["calibration_trials"] = overrides.pop("trials")
    if getattr(args, "attack", None) is not None:
        try:
            overrides["attack"] = json.loads(args.attack)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"--attack is not valid JSON: {exc}") from exc
    return overrides


def main(argv: Optional[list] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        cfg = load_config(args.config, _overrides(args))
        with _stage(args.command):
            return args.handler(cfg, args)
    except ConfigError as exc:
        print(json.dumps({"error": {"stage": "config", "message": str(exc)}}),
              file=sys.stderr)
        return 2
    except StageError as exc:
        print(json.dumps({"error": {"stage": exc.stage, "message": str(exc.cause)}}),
              file=sys.stderr)
        return 4
    except Exception as exc:
        print(json.dumps({"error": {"stage": "internal", "message": str(exc)}}),
              file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
