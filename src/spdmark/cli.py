"""Command-line surface for the watermarking pipeline.

Configuration is a single flat JSON object.  Resolution order: built-in
defaults, then the config file (--config, or the SPDMARK_CONFIG environment
variable), then command-line flags; flags win.  Every random draw flows
from named seeds derived with derive_seed, so any command replayed with the
same config and seeds reproduces its output bit for bit; the "runtime" key
of a report is the one exception and carries wall-clock stats only.

Exit codes: 0 success, 2 invalid configuration or usage, 3 verification
returned invalid (for scripting), 4 a pipeline stage failed (the error
report on stderr names the stage).
"""

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import sys
import time
import typing
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .channel_attacks import (
    ChannelSpec,
    TamperRecord,
    apply_attack,
    channel_extract,
)
from .keyspace import (
    BaseSecret,
    KeyConfig,
    MessageSequence,
    derive_frame_messages,
    extraction_document,
    key_document,
    parse_extraction_document,
    parse_key_document,
    parse_schedule_document,
    random_key,
    schedule_document,
)
from .objective import (
    LossWeights,
    bit_accuracy,
    fit_extractor,
    loss_report,
    read_extractor,
    write_extractor,
)
from .spd_core import (
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
    "extraction_document",
    "parse_extraction_document",
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


def _check_type(name: str, kind, value) -> None:
    """Require `value` to have the field type `kind`: a bool is not a
    number, a float must be finite, and a list stands for a tuple."""
    if typing.get_origin(kind) is typing.Union:  # Optional[...]
        if value is None:
            return
        kind = typing.get_args(kind)[0]
    if kind is float:
        try:
            ok = not isinstance(value, bool) and math.isfinite(value)
        except (TypeError, OverflowError):
            ok = False
    elif kind is int:
        ok = isinstance(value, int) and not isinstance(value, bool)
    elif kind is tuple:
        ok = isinstance(value, (list, tuple))
    else:
        ok = isinstance(value, kind)
    if not ok:
        what = "a finite number" if kind is float else f"of type {kind.__name__}"
        raise ValueError(f"{name} must be {what}, not {value!r}")


@dataclass(frozen=True)
class RunConfig:
    num_layers: int = 14
    bases_per_layer: int = 4
    message_bits: int = 28
    layer_dim: int = 64
    height: int = 8
    width: int = 8
    rank: int = 32
    alpha: float = 1.0
    init_seed: int = 0
    init_scale: float = 0.3
    decoder_seed: int = 0
    latent_scale: float = 0.05
    lambda_ps: float = 1.0
    lambda_tc: float = 1.0
    ridge_lambda: float = 1e-3
    gamma_f: float = 1e-3
    gamma_v: float = 1e-6
    seed: int = 0
    num_frames: int = 25
    flip_probability: float = 0.0
    secret_hex: str = ""
    attack: Optional[dict] = None
    attacks: Optional[tuple] = None
    trials: int = 1000
    calibration_trials: int = 2000
    train_videos: int = 200
    train_frames: int = 8
    holdout_videos: int = 50
    condition_seed: Optional[int] = None
    out_dir: str = "."

    def __post_init__(self) -> None:
        for field in dataclasses.fields(self):
            _check_type(field.name, field.type, getattr(self, field.name))
        for name in ("num_layers", "bases_per_layer", "layer_dim", "height", "width",
                     "num_frames", "trials", "calibration_trials", "train_videos",
                     "train_frames", "holdout_videos"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("rank", "init_seed", "decoder_seed", "seed", "init_scale",
                     "latent_scale", "lambda_ps", "lambda_tc", "ridge_lambda"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.condition_seed is not None and self.condition_seed < 0:
            raise ValueError("condition_seed must be >= 0")
        for name in ("gamma_f", "gamma_v"):
            if not 0.0 < getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in (0, 1]")
        if not 0.0 <= self.flip_probability <= 1.0:
            raise ValueError("flip_probability must lie in [0, 1]")
        self.key_config()
        if self.message_bits > 256:
            raise ValueError("message_bits must be <= 256, the length of one SHA-256 digest")
        if self.rank > self.layer_dim:
            raise ValueError("rank must not exceed layer_dim")
        for spec in list(self.attacks or ()) + ([self.attack] if self.attack else []):
            if not isinstance(spec, dict) or "attack" not in spec:
                raise ValueError('each attack spec must be an object with an "attack" name')
        self.secret()
        if self.attacks is not None:
            object.__setattr__(self, "attacks", tuple(self.attacks))

    def key_config(self) -> KeyConfig:
        return KeyConfig(
            num_layers=self.num_layers,
            bases_per_layer=self.bases_per_layer,
            message_bits=self.message_bits,
        )

    def secret(self) -> BaseSecret:
        if self.secret_hex:
            return BaseSecret(bytes.fromhex(self.secret_hex))
        seeded = hashlib.sha256(f"spdmark-secret:{self.seed}".encode()).digest()
        return BaseSecret(seeded)

    def resolved_condition_seed(self) -> int:
        if self.condition_seed is not None:
            return self.condition_seed
        return derive_seed(self.seed, "condition")


def derive_seed(*parts) -> int:
    """Stable 63-bit seed from a labelled path, e.g. (seed, "train", i)."""
    text = "\x1f".join(str(part) for part in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def config_hash(cfg: RunConfig) -> str:
    """Hash of every semantic config field; artifact placement is excluded."""
    doc = dataclasses.asdict(cfg)
    doc.pop("out_dir")
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


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
    data.update({k: v for k, v in overrides.items() if v is not None})
    known = {field.name for field in dataclasses.fields(RunConfig)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ConfigError(f"unknown config keys: {unknown}")
    try:
        return RunConfig(**data)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _read_json(path: str) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _emit(doc: dict, out: Optional[str]) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _channel(cfg: RunConfig, seed: int) -> ChannelSpec:
    kind = "bitflip" if cfg.flip_probability > 0 else "ideal"
    return ChannelSpec(kind, cfg.flip_probability, seed)


def toy_components(cfg: RunConfig, alpha: Optional[float] = None):
    """Dictionary, decoder, and the corpus-wide condition vector."""
    key_cfg = cfg.key_config()
    dictionary = init_dictionary(
        key_cfg,
        layer_dim=cfg.layer_dim,
        rank=cfg.rank,
        alpha=cfg.alpha if alpha is None else alpha,
        init_seed=cfg.init_seed,
        init_scale=cfg.init_scale,
    )
    decoder = init_toy_decoder(
        layer_dim=cfg.layer_dim,
        height=cfg.height,
        width=cfg.width,
        num_layers=cfg.num_layers,
        seed=cfg.decoder_seed,
    )
    condition = random_condition(cfg.layer_dim, cfg.resolved_condition_seed())
    return dictionary, decoder, condition


def build_corpus(cfg: RunConfig, role: str, count: int, frames_per_video: int,
                 dictionary, decoder, condition):
    """Generate `count` watermarked videos, each under its own random key.

    The condition vector is shared across the corpus: the displacement a
    mask adds is linear in the hidden state, so a single linear extractor
    has a fixed signal direction to learn only when the condition is fixed.
    Sharing it also lets the whole corpus be generated in one batch.
    """
    key_cfg = cfg.key_config()
    secret = cfg.secret()
    schedules = [
        derive_frame_messages(
            secret, random_key(key_cfg, derive_seed(cfg.seed, role, index, "key")),
            frames_per_video,
        )
        for index in range(count)
    ]
    frame_seeds = [
        (derive_seed(cfg.seed, role, index, "latent"), t)
        for index in range(count)
        for t in range(1, frames_per_video + 1)
    ]
    pixels = generate_frames(
        decoder, dictionary, np.concatenate(schedules),
        frame_seeds, condition, cfg.latent_scale,
    )
    videos = list(pixels.reshape(count, frames_per_video, *pixels.shape[1:]))
    return videos, schedules


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
    for spec in cfg.attacks if cfg.attacks is not None else DEFAULT_ATTACK_SUITE:
        spec = dict(spec)
        name = spec["attack"]
        row_seed = derive_seed(cfg.seed, name)
        sums = {"bit_acc": 0.0, "order_acc": 0.0, "f1_drop": 0.0, "f1_insert": 0.0}
        valid_count = 0
        recovered_count = 0
        for trial in range(cfg.trials):
            key = random_key(key_cfg, derive_seed(row_seed, trial, "key"))
            schedule = derive_frame_messages(secret, key, cfg.num_frames)
            attacked, record = apply_attack(
                schedule,
                {**spec, "seed": derive_seed(row_seed, trial, "attack")},
            )
            if record is None:
                raise ValueError(
                    f"attack {name!r} produces no tamper record; the forensics "
                    "table needs structural attacks"
                )
            received = channel_extract(
                attacked, _channel(cfg, derive_seed(row_seed, trial, "channel"))
            )
            verdict = verify(schedule, received, cfg.gamma_f, cfg.gamma_v)
            diagnosis = diagnose_tampering(
                verdict, cfg.num_frames, len(received), record
            )
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


# One function per toy pipeline stage, on in-memory objects.  The
# subcommands read their inputs from files, run the stage and write its
# artifact; run-pipeline --mode toy runs the same stages in order and writes
# through the same writers.


def _keygen(cfg: RunConfig):
    return random_key(cfg.key_config(), cfg.seed)


def _schedule(cfg: RunConfig, key) -> MessageSequence:
    return derive_frame_messages(cfg.secret(), key, cfg.num_frames)


def _embed(cfg: RunConfig, components, schedule, with_clean: bool) -> tuple:
    """The watermarked video and, if asked, the unwatermarked one (alpha 0)
    from the same latents; `components` is what toy_components returns."""
    dictionary, decoder, condition = components
    latent_seed = derive_seed(cfg.seed, "latent")
    marked = generate_video(
        decoder, dictionary, schedule, latent_seed, condition, cfg.latent_scale
    )
    clean = None
    if with_clean:
        clean = generate_video(
            decoder, dataclasses.replace(dictionary, alpha=0.0), schedule, latent_seed,
            condition, cfg.latent_scale,
        )
    return marked, clean


def _fit_extractor(cfg: RunConfig, components) -> tuple:
    """The extractor fitted on the training corpus, and that corpus."""
    train = build_corpus(cfg, "train", cfg.train_videos, cfg.train_frames, *components)
    return fit_extractor(*train, ridge_lambda=cfg.ridge_lambda), train


def _attack(cfg: RunConfig, target) -> tuple:
    spec = dict(cfg.attack or {"attack": "none"})
    spec.setdefault("seed", derive_seed(cfg.seed, "attack"))
    return apply_attack(target, spec)


def _extract(extractor, video) -> MessageSequence:
    return MessageSequence([extractor.decode(frame) for frame in video])


def _verify(cfg: RunConfig, schedule, extracted: MessageSequence) -> Verdict:
    return verify(schedule, extracted, cfg.gamma_f, cfg.gamma_v)


def _diagnose(verdict: Verdict, record: Optional[TamperRecord]):
    """Localize edits; a missing record (photometric attacks) scores nothing."""
    return diagnose_tampering(
        verdict, verdict.num_expected, verdict.num_extracted, record
    )


def _read_schedule(path: str) -> MessageSequence:
    return parse_schedule_document(_read_json(path))[2]


def _read_binary(path: str, reader):
    with open(path, "rb") as stream:
        return reader(stream)


def _read_record(path: str) -> Optional[TamperRecord]:
    """A tamper record file; the JSON null written for photometric attacks
    means there is no ground truth."""
    doc = _read_json(path)
    return None if doc is None else TamperRecord.from_doc(doc)


def _write_binary(path, writer, reader, value):
    """Write `value` to `path` with `writer` and return it as `reader` reads
    those bytes back, so later stages see the stored (float32) precision
    whether or not they run in the same process."""
    buffer = io.BytesIO()
    writer(buffer, value)
    Path(path).write_bytes(buffer.getvalue())
    buffer.seek(0)
    return reader(buffer)


def _key_file(cfg: RunConfig, key) -> dict:
    return {**key_document(cfg.key_config(), key), "seed": cfg.seed}


def _record_doc(record: Optional[TamperRecord]) -> Optional[dict]:
    return None if record is None else record.to_doc()


def cmd_keygen(cfg: RunConfig, args) -> int:
    bits = args.bits if args.bits is not None else cfg.message_bits
    if bits != cfg.message_bits:
        raise ConfigError(
            f"--bits {bits} does not match the configured layout "
            f"({cfg.num_layers} layers x log2({cfg.bases_per_layer}) bits)"
        )
    with _stage("keygen"):
        _emit(_key_file(cfg, _keygen(cfg)), args.out)
    return 0


def cmd_schedule(cfg: RunConfig, args) -> int:
    with _stage("schedule"):
        key_cfg, key = parse_key_document(_read_json(args.key))
        _emit(schedule_document(key_cfg, key, _schedule(cfg, key)), args.out)
    return 0


def cmd_embed(cfg: RunConfig, args) -> int:
    if not args.out:
        raise ConfigError("embed writes a binary video and needs --out")
    with _stage("embed"):
        marked, clean = _embed(
            cfg, toy_components(cfg), _read_schedule(args.schedule), bool(args.clean_out)
        )
        _write_binary(args.out, write_video, read_video, marked)
        if clean is not None:
            _write_binary(args.clean_out, write_video, read_video, clean)
    return 0


def cmd_attack(cfg: RunConfig, args) -> int:
    with _stage("attack"):
        if args.video:
            target = _read_binary(args.video, read_video)
        elif args.extraction:
            target = parse_extraction_document(_read_json(args.extraction))
        elif args.schedule:
            target = _read_schedule(args.schedule)
        else:
            raise ConfigError("attack needs --video, --extraction, or --schedule")
        attacked, record = _attack(cfg, target)
        if isinstance(attacked, MessageSequence):
            _emit(extraction_document(attacked), args.out)
        else:
            if not args.out:
                raise ConfigError("attacking a video writes binary output and needs --out")
            _write_binary(args.out, write_video, read_video, attacked)
        if args.record:
            _emit(_record_doc(record), args.record)
    return 0


def cmd_extract(cfg: RunConfig, args) -> int:
    with _stage("extract"):
        if args.video:
            if not args.extractor:
                raise ConfigError("extracting from a video needs --extractor")
            sequence = _extract(
                _read_binary(args.extractor, read_extractor),
                _read_binary(args.video, read_video),
            )
        elif args.schedule:
            sequence = channel_extract(
                _read_schedule(args.schedule),
                _channel(cfg, derive_seed(cfg.seed, "channel")),
            )
        else:
            raise ConfigError("extract needs --video with --extractor, or --schedule")
        _emit(extraction_document(sequence), args.out)
    return 0


def cmd_fit_extractor(cfg: RunConfig, args) -> int:
    with _stage("fit-extractor"):
        components = toy_components(cfg)
        extractor, train = _fit_extractor(cfg, components)
        out_path = args.out or str(Path(cfg.out_dir) / "extractor.bin")
        _write_binary(out_path, write_extractor, read_extractor, extractor)
        held = build_corpus(
            cfg, "holdout", cfg.holdout_videos, cfg.train_frames, *components
        )
        report = {
            "extractor": out_path,
            "train_videos": cfg.train_videos,
            "train_frames": cfg.train_frames,
            "holdout_videos": cfg.holdout_videos,
            "train_bit_acc": bit_accuracy(extractor, *train),
            "holdout_bit_acc": bit_accuracy(extractor, *held),
            "config_hash": config_hash(cfg),
            "seed": cfg.seed,
        }
        _emit(report, None)
    return 0


def cmd_verify(cfg: RunConfig, args) -> int:
    with _stage("verify"):
        verdict = _verify(
            cfg,
            _read_schedule(args.schedule),
            parse_extraction_document(_read_json(args.extraction)),
        )
        tamper = _read_json(args.tamper) if args.tamper else None
        _emit(verdict.to_doc(tamper), args.out)
    return 0 if verdict.valid else 3


def cmd_diagnose(cfg: RunConfig, args) -> int:
    with _stage("diagnose"):
        verdict = Verdict.from_doc(_read_json(args.verdict))
        record = _read_record(args.tamper) if args.tamper else None
        _emit(_diagnose(verdict, record).to_doc(), args.out)
    return 0


def cmd_calibrate(cfg: RunConfig, args) -> int:
    # --trials addresses this command's own trial count.
    trials = args.trials if args.trials is not None else cfg.calibration_trials
    if trials < 1000:
        raise ConfigError("calibration needs at least 1000 trials")
    if cfg.gamma_v < 10 / trials:
        print(
            f"warning: gamma_v={cfg.gamma_v:g} is below the Monte Carlo resolution "
            f"10/trials={10 / trials:g}; the video-level rate is a "
            "threshold check, not a rate estimate",
            file=sys.stderr,
        )
    with _stage("calibrate"):
        report = null_calibration(
            cfg.message_bits,
            cfg.num_frames,
            cfg.gamma_f,
            cfg.gamma_v,
            trials,
            derive_seed(cfg.seed, "calibrate"),
        )
        report["config_hash"] = config_hash(cfg)
        _emit(report, args.out)
    return 0


def _toy_pipeline(cfg: RunConfig, out: Path) -> int:
    started = time.perf_counter()
    seconds: dict = {}
    with _stage("keygen", seconds):
        key = _keygen(cfg)
        _emit(_key_file(cfg, key), str(out / "key.json"))
    with _stage("schedule", seconds):
        schedule = _schedule(cfg, key)
        _emit(schedule_document(cfg.key_config(), key, schedule), str(out / "schedule.json"))
    with _stage("embed", seconds):
        components = toy_components(cfg)
        marked, clean = _embed(cfg, components, schedule, with_clean=True)
        stored_marked = _write_binary(out / "marked.spdf", write_video, read_video, marked)
        _write_binary(out / "clean.spdf", write_video, read_video, clean)
    with _stage("fit-extractor", seconds):
        extractor, _ = _fit_extractor(cfg, components)
        stored_extractor = _write_binary(
            out / "extractor.bin", write_extractor, read_extractor, extractor
        )
    with _stage("attack", seconds):
        attacked, record = _attack(cfg, stored_marked)
        attacked = _write_binary(out / "attacked.spdf", write_video, read_video, attacked)
        _emit(_record_doc(record), str(out / "tamper.json"))
    with _stage("extract", seconds):
        extracted = _extract(stored_extractor, attacked)
        _emit(extraction_document(extracted), str(out / "extraction.json"))
    with _stage("verify", seconds):
        verdict = _verify(cfg, schedule, extracted)
        _emit(verdict.to_doc(_record_doc(record)), str(out / "verdict.json"))
    with _stage("diagnose", seconds):
        _emit(_diagnose(verdict, record).to_doc(), str(out / "diagnosis.json"))
    # The losses compare the videos and extractor as generated and fitted,
    # before they are stored at float32.
    with _stage("losses", seconds):
        losses = loss_report(
            clean, marked, extractor, schedule, LossWeights(cfg.lambda_ps, cfg.lambda_tc)
        )
    report = {
        "mode": "toy",
        "config_hash": config_hash(cfg),
        "seed": cfg.seed,
        "valid": verdict.valid,
        "bit_acc": verdict.bit_acc,
        "order_acc": verdict.order_acc,
        "num_valid": len(verdict.valid_set),
        "losses": losses,
        "artifacts": sorted(p.name for p in out.iterdir()),
        "runtime": {
            "stage_seconds": seconds,
            "total_seconds": time.perf_counter() - started,
        },
    }
    _emit(report, str(out / "report.json"))
    return 0 if verdict.valid else 3


def _channel_pipeline(cfg: RunConfig, out: Path) -> int:
    started = time.perf_counter()
    with _stage("forensics"):
        rows = forensics_table(cfg)
    with _stage("calibrate"):
        calibration = null_calibration(
            cfg.message_bits, cfg.num_frames, cfg.gamma_f, cfg.gamma_v,
            cfg.calibration_trials, derive_seed(cfg.seed, "calibrate"),
        )
    report = {
        "mode": "channel",
        "config_hash": config_hash(cfg),
        "seed": cfg.seed,
        "flip_probability": cfg.flip_probability,
        "num_frames": cfg.num_frames,
        "rows": rows,
        "calibration": calibration,
        "runtime": {"total_seconds": time.perf_counter() - started},
    }
    _emit(report, str(out / "report.json"))
    return 0


def cmd_run_pipeline(cfg: RunConfig, args) -> int:
    out = Path(args.out or cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    resolved = dataclasses.asdict(cfg)
    resolved["config_hash"] = config_hash(cfg)
    _emit(resolved, str(out / "config.json"))
    if args.mode == "toy":
        return _toy_pipeline(cfg, out)
    return _channel_pipeline(cfg, out)


def build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--bits", type=int, help="expected key width (validation only)")
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
    p.add_argument("--calibration-trials", dest="calibration_trials", type=int)
    p.set_defaults(handler=cmd_calibrate)

    p = sub.add_parser("run-pipeline", parents=[common],
                       help="schedule, embed, attack, extract, verify, diagnose, report")
    p.add_argument("--mode", choices=("toy", "channel"), default="toy")
    p.add_argument("--frames", dest="num_frames", type=int)
    p.set_defaults(handler=cmd_run_pipeline)

    return parser


def _overrides(args) -> dict:
    keys = ("gamma_f", "gamma_v", "seed", "trials", "num_frames", "calibration_trials")
    overrides = {key: getattr(args, key, None) for key in keys}
    if getattr(args, "attack", None):
        try:
            overrides["attack"] = json.loads(args.attack)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"--attack is not valid JSON: {exc}") from exc
    return overrides


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        cfg = load_config(args.config, _overrides(args))
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
