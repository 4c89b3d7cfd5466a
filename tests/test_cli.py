"""End-to-end tests of the command-line surface.

Commands run in-process through main(argv); files go to tmp_path.  Reports
must reproduce bit for bit across reruns except under their "runtime" key.
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spdmark.cli
from reference_generate import generate_video as reference_generate
from spdmark.cli import (
    DEFAULT_ATTACK_SUITE,
    ConfigError,
    RunConfig,
    build_corpus,
    config_hash,
    derive_seed,
    forensics_table,
    load_config,
    main,
    toy_components,
)
from spdmark.channel_attacks import MAX_FRAMES, apply_attack
from spdmark.keyspace import (
    KeyConfig,
    MessageSequence,
    bits_to_hex,
    extraction_document,
    parse_extraction_document,
    parse_schedule_document,
    random_key,
)
from spdmark.objective import Corpus, read_extractor
from spdmark.spd_core import init_dictionary, init_toy_decoder, read_video
from spdmark.verifier import verify


def run(*argv) -> int:
    return main(list(argv))


def read_json(path: Path) -> dict:
    return json.loads(path.read_text())


def write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc))


def strip_runtime(report: dict) -> dict:
    return {k: v for k, v in report.items() if k != "runtime"}


def assert_own_config_hash(path: Path) -> None:
    """The config.json at `path` hashes to its own config_hash: the first 16
    hex digits of the SHA-256 of its canonical JSON without that key."""
    doc = read_json(path)
    digest = doc.pop("config_hash")
    assert "message_bits" not in doc and "out_dir" not in doc
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(canonical.encode()).hexdigest()[:16] == digest


class TestConfig:
    def test_defaults_are_consistent(self):
        cfg = RunConfig()
        assert cfg.key_config().message_bits == 28
        assert cfg.rank <= cfg.layer_dim

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        write_json(path, {"bogus": 1})
        with pytest.raises(ConfigError):
            load_config(str(path), {})

    def test_flags_override_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        write_json(path, {"gamma_f": 0.5, "seed": 9})
        cfg = load_config(str(path), {"gamma_f": 1e-3, "seed": None})
        assert cfg.gamma_f == 1e-3
        assert cfg.seed == 9

    def test_env_var_fallback(self, tmp_path, monkeypatch):
        path = tmp_path / "cfg.json"
        write_json(path, {"seed": 33})
        monkeypatch.setenv("SPDMARK_CONFIG", str(path))
        cfg = load_config(None, {})
        assert cfg.seed == 33

    def test_message_width_follows_the_layout(self):
        assert load_config(None, {"num_layers": 7}).key_config().message_bits == 14

    def test_inconsistent_layout_rejected(self):
        # The width is num_layers * log2(bases_per_layer), not a setting.
        with pytest.raises(ConfigError, match=r"unknown config keys: \['message_bits'\]"):
            load_config(None, {"message_bits": 28})
        with pytest.raises(ConfigError, match=r"log2\(bases_per_layer\) = 300 exceeds 256"):
            load_config(None, {"num_layers": 300, "bases_per_layer": 2})
        assert load_config(None, {"num_layers": 128}).key_config().message_bits == 256
        with pytest.raises(ConfigError):
            load_config(None, {"rank": 100, "layer_dim": 64})
        # layer_dim * rank above MAX_SHIFT_TERMS: products would not be exact.
        with pytest.raises(ConfigError):
            load_config(None, {"layer_dim": 128, "rank": 64})
        assert load_config(None, {"layer_dim": 64, "rank": 64}).rank == 64

    def test_spelled_out_defaults_are_the_default_config(self):
        """attack and attacks hold the specs a run uses, so spelling out
        the none spec and the default suite changes neither the config nor
        its hash."""
        spelled = RunConfig(attack={"attack": "none"}, attacks=list(DEFAULT_ATTACK_SUITE))
        assert spelled == RunConfig()
        assert config_hash(spelled) == config_hash(RunConfig())
        assert config_hash(RunConfig(trials=3)) == config_hash(
            RunConfig(trials=3, attacks=DEFAULT_ATTACK_SUITE))

    def test_hash_covers_semantics_not_paths(self):
        # --out alone names the output location, so every field is hashed.
        base = RunConfig()
        for fields in ({"seed": 1}, {"alpha": 0.5}, {"num_layers": 7},
                       {"condition_seed": 1}, {"secret_hex": "00" * 16}):
            assert config_hash(base) != config_hash(RunConfig(**fields))

    @pytest.mark.parametrize("fields", [
        {},
        {"attack": {"attack": "drop", "fraction": 0.25, "seed": 4}},
        {"attacks": [{"attack": "insert", "fraction": 0.2, "mode": "noise"},
                     {"attack": "swap_random"}],
         "attack": {"attack": "pixel_noise", "sigma": 0.01},
         "secret_hex": "00" * 16, "condition_seed": 9},
    ])
    def test_hash_equals_the_asdict_document(self, fields):
        cfg = RunConfig(**fields)
        doc = dataclasses.asdict(cfg)
        canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        assert config_hash(cfg) == hashlib.sha256(canonical.encode()).hexdigest()[:16]

    def test_float_fields_hash_as_floats(self, tmp_path):
        assert config_hash(RunConfig()) == "4457339ccd38c55e"
        assert config_hash(RunConfig(alpha=1)) == config_hash(RunConfig(alpha=1.0))
        ints = {field.name: 1 for field in dataclasses.fields(RunConfig)
                if field.type is float}
        cfg = RunConfig(**ints)
        assert all(type(getattr(cfg, name)) is float for name in ints)
        assert config_hash(cfg) == config_hash(RunConfig(**dict.fromkeys(ints, 1.0)))
        out = tmp_path / "run"
        assert run("run-pipeline", "--config", str(fast_toy_config(tmp_path, alpha=1)),
                   "--out", str(out)) == 0
        assert '"alpha": 1.0,' in (out / "config.json").read_text()
        written = read_json(out / "config.json")
        assert written["config_hash"] == config_hash(load_config(
            str(fast_toy_config(tmp_path, alpha=1.0)), {}
        ))

    def test_float_attack_parameters_hash_as_floats(self):
        """A float attack parameter given as an int is stored as a float, in
        `attack` and in `attacks` alike; parameters the spec leaves out stay
        out."""
        for wrap in (lambda spec: {"attack": spec}, lambda spec: {"attacks": [spec]}):
            hashes = {config_hash(RunConfig(**wrap({"attack": "swap_adjacent",
                                                    "pair_fraction": value})))
                      for value in (1, 1.0)}
            assert len(hashes) == 1
        cfg = RunConfig(attack={"attack": "insert", "fraction": 1, "seed": 2})
        assert cfg.attack == {"attack": "insert", "fraction": 1.0, "seed": 2}
        assert type(cfg.attack["fraction"]) is float

    def test_derive_seed_stable_and_labelled(self):
        assert derive_seed(0, "train", 3) == derive_seed(0, "train", 3)
        assert derive_seed(0, "train", 3) != derive_seed(0, "holdout", 3)
        assert 0 <= derive_seed(0) < 2**63


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=10,
)
# Values near the edges of the field ranges.
edge_values = st.sampled_from(
    [0, 1, -1, 2, 3, 8, 28, 64, 2**70, 10**400, 0.0, 0.5, 1.0, 1.5, -0.5, 1e-300,
     2.5, True, False, "", "00", "nan", "00" * 16, [], {}, [{"attack": "drop"}]]
)
CONFIG_FIELDS = [field.name for field in dataclasses.fields(RunConfig)]
OVERRIDES = ("gamma_f", "gamma_v", "seed", "trials", "num_frames", "calibration_trials")


@st.composite
def config_documents(draw):
    """An arbitrary JSON value, or the default config with one field set to
    an arbitrary or edge value."""
    if draw(st.booleans()):
        return draw(json_values)
    doc = dataclasses.asdict(RunConfig())
    doc[draw(st.sampled_from(CONFIG_FIELDS))] = draw(json_values | edge_values)
    return doc


def calibrate_exit(path: str, *flags) -> tuple:
    """main's exit code and its error report for `spdmark calibrate`."""
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
        code = run("calibrate", "--config", path, *flags)
    return code, stderr.getvalue()


class TestConfigFuzz:
    """Every configuration fault is a ConfigError, and main exits 2 on it."""

    @given(config_documents())
    @settings(max_examples=300, deadline=None)
    def test_config_file_loads_or_raises_config_error(self, doc):
        with tempfile.TemporaryDirectory() as tmp:
            path = str(Path(tmp) / "cfg.json")
            Path(path).write_text(json.dumps(doc))
            try:
                cfg = load_config(path, {})
            except ConfigError:
                code, err = calibrate_exit(path)
                assert code == 2, err
                assert json.loads(err)["error"]["stage"] == "config"
            else:
                assert isinstance(cfg, RunConfig)

    @given(st.sampled_from(OVERRIDES), st.integers() | st.floats() | edge_values)
    @settings(max_examples=200, deadline=None)
    def test_overrides_pass_the_same_checks(self, name, value):
        try:
            cfg = load_config(None, {name: value})
        except ConfigError:
            with pytest.raises(ValueError):
                RunConfig(**{name: value})
        else:
            assert getattr(cfg, name) == value

    @pytest.mark.parametrize(
        "text",
        ["[]", '"str"', '{"num_frames": 1e400}', '{"calibration_trials": 1e400}',
         '{"num_frames": 2.5}', '{"num_frames": true}', '{"gamma_f": "nan"}',
         '{"gamma_v": 0}', '{"seed": -1}', '{"secret_hex": "00"}', "[" * 100_000,
         '{"seed": 18446744073709551616}', '{"layer_dim": 128, "rank": 64}',
         '{"attack": null}', '{"attacks": null}', '{"condition_seed": null}'],
    )
    def test_probed_config_faults_exit_2(self, text, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        code, err = calibrate_exit(str(path))
        assert code == 2, err
        assert json.loads(err)["error"]["stage"] == "config"

    @pytest.mark.parametrize(
        "flags",
        [("--gamma-f", "nan"), ("--gamma-v", "0"), ("--seed", "-1"), ("--frames", "0"),
         ("--seed", str(2**64))],
    )
    def test_flag_faults_exit_2(self, flags, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{}")
        code, err = calibrate_exit(str(path), "--trials", "1000", *flags)
        assert code == 2, err
        assert json.loads(err)["error"]["stage"] == "config"


class TestExitCodes:
    def test_unknown_command_is_usage_error(self, capsys):
        assert run("frobnicate") == 2
        capsys.readouterr()

    def test_invalid_config_file(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        write_json(path, {"no_such_option": True})
        assert run("keygen", "--config", str(path)) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["stage"] == "config"

    def test_stage_failure_is_internal_error(self, tmp_path, capsys):
        bad = tmp_path / "schedule.json"
        bad.write_text("{ not json")
        assert run("embed", "--schedule", str(bad), "--out", str(tmp_path / "v.spdf")) == 4
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["stage"] == "embed"

    @pytest.mark.parametrize(
        "argv",
        [("keygen",), ("schedule", "--key", "k.json"),
         ("embed", "--schedule", "s.json", "--out", "v.spdf"),
         ("attack", "--schedule", "s.json"), ("extract", "--schedule", "s.json"),
         ("fit-extractor", "--out", "e.bin"),
         ("verify", "--schedule", "s.json", "--extraction", "x.json"),
         ("diagnose", "--verdict", "v.json"),
         ("calibrate", "--trials", "1000", "--frames", "10", "--gamma-v", "0.05")],
        ids=lambda argv: argv[0],
    )
    def test_unexpected_failure_names_the_subcommand(self, argv, capsys, monkeypatch):
        """main runs each subcommand as one stage: a failure it did not
        foresee, here in reading or writing a file, exits 4 under the
        subcommand's name."""

        def fail(*args, **kwargs):
            raise RuntimeError("injected fault")

        for name in ("_read_json", "_read_binary", "_emit", "_write_binary"):
            monkeypatch.setattr(spdmark.cli, name, fail)
        assert run(*argv) == 4
        err = json.loads(capsys.readouterr().err)["error"]
        assert err == {"stage": argv[0], "message": "injected fault"}

    def test_run_pipeline_into_a_regular_file_exits_4(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        assert run("run-pipeline", "--out", str(taken)) == 4
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["stage"] == "run-pipeline"
        assert str(taken) in err["message"]

    def test_toy_run_of_one_frame_refused_before_any_stage(self, tmp_path, capsys):
        # The temporal consistency loss needs two frames; channel mode has
        # no such stage and takes one.
        out = tmp_path / "run"
        assert run("run-pipeline", "--mode", "toy", "--frames", "1", "--out", str(out)) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["stage"] == "config"
        assert not out.exists()
        assert run("run-pipeline", "--mode", "channel", "--frames", "1", "--trials", "2",
                   "--out", str(out)) == 0
        capsys.readouterr()

    def test_keygen_bits_mismatch(self, capsys):
        # The key width follows the layout; keygen has no --bits flag.
        assert run("keygen", "--bits", "30") == 2
        assert "unrecognized arguments: --bits 30" in capsys.readouterr().err

    @pytest.mark.parametrize("name,value", [
        ("message_bits", 28), ("out_dir", "elsewhere"), ("init_scale", 0.3),
        ("lambda_ps", 1.0), ("lambda_tc", 1.0),
    ])
    def test_removed_settings_are_unknown_keys(self, tmp_path, capsys, name, value):
        path = tmp_path / "cfg.json"
        write_json(path, {name: value})
        out = tmp_path / "run"
        assert run("run-pipeline", "--config", str(path), "--out", str(out)) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error == {"stage": "config", "message": f"unknown config keys: [{name!r}]"}
        assert not out.exists()

    def test_schedule_rejects_a_key_of_the_wrong_width(self, tmp_path, capsys):
        key = tmp_path / "key.json"
        assert run("keygen", "--out", str(key)) == 0
        doc = read_json(key)
        doc["config"]["M"] = 27
        write_json(key, doc)
        assert run("schedule", "--key", str(key)) == 4
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["stage"] == "schedule"
        assert "got 27" in error["message"]

    def test_calibrate_rejects_small_trial_count(self, capsys):
        assert run("calibrate", "--trials", "500") == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "spec",
        ['{"attack": "melt"}', '{"attack": "drop"}', '{"attack": "trim", "head_fraction": 0.1}',
         '{"attack": "drop", "fraction": 0.5, "fracton": 1}',
         '{"attack": "insert", "fraction": [0.5]}', '{"attack": ["drop"]}',
         '{"attack": "drop", "fraction": 0.5, "seed": -1}',
         '{"attack": "drop", "fraction": 0.5, "seed": 2.7}',
         '{"attack": "drop", "fraction": 0.5, "seed": true}',
         '{"attack": "drop", "fraction": 0.5, "seed": "7"}',
         '{"attack": "drop", "fraction": "0.5"}',
         '{"attack": "trim", "head_fraction": 0.2, "tail_fraction": 0.1, "seed": 3}',
         '{"attack": "none", "seed": 3}', '{}'],
    )
    def test_attack_spec_faults_exit_2(self, spec, tmp_path, capsys):
        """Attack specs are checked when the config loads, against the
        table apply_attack dispatches from, before any stage runs."""
        assert run("run-pipeline", "--attack", spec, "--out", str(tmp_path / "run")) == 2
        assert json.loads(capsys.readouterr().err)["error"]["stage"] == "config"
        assert not (tmp_path / "run").exists()
        path = tmp_path / "cfg.json"
        write_json(path, {"attacks": [{"attack": "swap_random"}, json.loads(spec)]})
        assert run("run-pipeline", "--mode", "channel", "--config", str(path),
                   "--out", str(tmp_path / "channel")) == 2
        assert json.loads(capsys.readouterr().err)["error"]["stage"] == "config"

    def test_empty_attack_exits_2(self, tmp_path, capsys):
        """An empty --attack is a spec that is not JSON, not a missing one."""
        for argv in (["run-pipeline", "--out", str(tmp_path / "run")], ["calibrate"]):
            assert run(*argv, "--attack", "") == 2
            error = json.loads(capsys.readouterr().err)["error"]
            assert error["stage"] == "config" and "not valid JSON" in error["message"]
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "spec",
        [{"attack": "drop", "fraction": 1.5},
         {"attack": "trim", "head_fraction": 0.6, "tail_fraction": 0.5},
         {"attack": "insert", "fraction": 200}],
        ids=["drop", "trim", "insert"],
    )
    def test_attack_that_cannot_run_exits_2_before_any_output(self, spec, tmp_path, capsys):
        """A spec that loads but that its attack rejects at num_frames fails
        as configuration, before run-pipeline writes anything or fits the
        extractor: as the toy attack, and as an attacks entry."""
        toy = tmp_path / "toy"
        assert run("run-pipeline", "--attack", json.dumps(spec), "--out", str(toy)) == 2
        assert json.loads(capsys.readouterr().err)["error"]["stage"] == "config"
        assert not toy.exists()
        path, channel = tmp_path / "cfg.json", tmp_path / "channel"
        write_json(path, {"attacks": [{"attack": "swap_random"}, spec]})
        assert run("run-pipeline", "--mode", "channel", "--config", str(path), "--trials", "2",
                   "--out", str(channel)) == 2
        assert json.loads(capsys.readouterr().err)["error"]["stage"] == "config"
        assert not channel.exists()

    @pytest.mark.parametrize(
        "spec",
        [{"attack": "pixel_noise", "sigma": 0.01}, {"attack": "rescale", "factor": 0.5}],
        ids=["pixel_noise", "rescale"],
    )
    def test_photometric_attack_in_attacks_exits_2(self, spec, tmp_path, capsys):
        """The forensics table scores tamper records, which photometric
        attacks do not leave; the singular toy attack takes them."""
        path = tmp_path / "cfg.json"
        write_json(path, {"attacks": [{"attack": "swap_random"}, spec]})
        assert run("run-pipeline", "--mode", "channel", "--config", str(path),
                   "--out", str(tmp_path / "channel")) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["stage"] == "config"
        assert repr(spec["attack"]) in error["message"]
        assert "photometric" in error["message"]
        assert not (tmp_path / "channel").exists()
        assert RunConfig(attack=spec).attack == spec

    def test_seeded_attacks_entry_exits_2(self, tmp_path, capsys):
        """The forensics table seeds every trial itself, so a seed in an
        attacks entry would show in its row's params yet go unused; the
        singular toy attack keeps its seed."""
        spec = {"attack": "drop", "fraction": 0.5, "seed": 3}
        path = tmp_path / "cfg.json"
        write_json(path, {"attacks": [{"attack": "swap_random"}, spec]})
        assert run("run-pipeline", "--mode", "channel", "--config", str(path),
                   "--out", str(tmp_path / "channel")) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["stage"] == "config"
        assert "seeds every trial" in error["message"]
        assert not (tmp_path / "channel").exists()
        assert RunConfig(attack=spec).attack == spec


class TestKeygen:
    def test_deterministic_output(self, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert run("keygen", "--seed", "5", "--out", str(first)) == 0
        assert run("keygen", "--seed", "5", "--out", str(second)) == 0
        assert first.read_bytes() == second.read_bytes()
        doc = read_json(first)
        assert doc["config"] == {"L": 14, "P": 4, "M": 28}
        # 28 bits pack into 4 bytes, low bits of the last byte zero-padded.
        assert len(doc["key_hex"]) == 8

    def test_distinct_over_many_seeds(self):
        cfg = KeyConfig(14, 4)
        keys = {bits_to_hex(random_key(cfg, seed).bits) for seed in range(10_000)}
        assert len(keys) == 10_000


@pytest.fixture
def schedule_files(tmp_path):
    key = tmp_path / "key.json"
    schedule = tmp_path / "schedule.json"
    assert run("keygen", "--seed", "11", "--out", str(key)) == 0
    assert run("schedule", "--key", str(key), "--frames", "10",
               "--seed", "11", "--out", str(schedule)) == 0
    return tmp_path, key, schedule


class TestScheduleVerifyFlow:
    def test_ideal_channel_round_trip(self, schedule_files):
        tmp_path, _, schedule = schedule_files
        extraction = tmp_path / "extraction.json"
        verdict = tmp_path / "verdict.json"
        assert run("extract", "--schedule", str(schedule), "--seed", "11",
                   "--out", str(extraction)) == 0
        assert run("verify", "--schedule", str(schedule),
                   "--extraction", str(extraction), "--out", str(verdict)) == 0
        doc = read_json(verdict)
        assert doc["valid"] is True
        assert doc["bit_acc"] == 1.0
        assert doc["order_acc"] == 1.0
        assert doc["tau_f"] == 23

    def test_unrelated_extraction_fails_verification(self, schedule_files, tmp_path):
        _, key, schedule = schedule_files
        other_key = tmp_path / "other_key.json"
        other_schedule = tmp_path / "other_schedule.json"
        extraction = tmp_path / "extraction.json"
        assert run("keygen", "--seed", "999", "--out", str(other_key)) == 0
        # A different secret (different seed) gives unrelated messages.
        assert run("schedule", "--key", str(other_key), "--frames", "10",
                   "--seed", "999", "--out", str(other_schedule)) == 0
        assert run("extract", "--schedule", str(other_schedule), "--seed", "999",
                   "--out", str(extraction)) == 0
        assert run("verify", "--schedule", str(schedule),
                   "--extraction", str(extraction)) == 3

    def test_bitflip_channel_flag(self, schedule_files, tmp_path):
        _, _, schedule = schedule_files
        extraction = tmp_path / "noisy.json"
        cfg = tmp_path / "cfg.json"
        write_json(cfg, {"flip_probability": 0.1, "seed": 11})
        assert run("extract", "--config", str(cfg), "--schedule", str(schedule),
                   "--out", str(extraction)) == 0
        first = read_json(extraction)
        assert run("extract", "--config", str(cfg), "--schedule", str(schedule),
                   "--out", str(extraction)) == 0
        assert read_json(extraction) == first
        clean = tmp_path / "clean.json"
        assert run("extract", "--schedule", str(schedule), "--seed", "11",
                   "--out", str(clean)) == 0
        assert read_json(clean) != first


class TestAttackDiagnoseFlow:
    def test_drop_attack_localized_exactly(self, schedule_files, tmp_path):
        _, _, schedule = schedule_files
        attacked = tmp_path / "attacked.json"
        record = tmp_path / "record.json"
        verdict = tmp_path / "verdict.json"
        diagnosis = tmp_path / "diagnosis.json"
        assert run("attack", "--schedule", str(schedule),
                   "--attack", '{"attack": "drop", "fraction": 0.5, "seed": 3}',
                   "--out", str(attacked), "--record", str(record)) == 0
        assert run("verify", "--schedule", str(schedule), "--extraction", str(attacked),
                   "--tamper", str(record), "--out", str(verdict)) == 0
        assert run("diagnose", "--verdict", str(verdict), "--tamper", str(record),
                   "--out", str(diagnosis)) == 0
        record_doc = read_json(record)
        diag = read_json(diagnosis)
        assert sorted(diag["predicted_dropped"]) == sorted(record_doc["dropped"])
        assert diag["scores"]["drop"]["f1"] == 1.0
        assert diag["scores"]["insert"]["f1"] == 1.0

    def test_attack_on_an_extraction(self, schedule_files, tmp_path):
        # attack --extraction attacks the parsed sequence as apply_attack
        # does, under the seed the attack stage derives; verify and diagnose
        # take what it writes.
        _, _, schedule = schedule_files
        cfg = tmp_path / "noisy.json"
        write_json(cfg, {"seed": 11, "flip_probability": 0.05})
        spec = {"attack": "drop", "fraction": 0.3}
        extraction, attacked, record, verdict, diagnosis = (
            tmp_path / name for name in ("extraction.json", "attacked.json", "record.json",
                                         "verdict.json", "diagnosis.json")
        )
        assert run("extract", "--config", str(cfg), "--schedule", str(schedule),
                   "--out", str(extraction)) == 0
        received = parse_extraction_document(read_json(extraction))
        # The channel flipped bits, so attacking the schedule would differ.
        assert received != parse_schedule_document(read_json(schedule))[2]
        assert run("attack", "--config", str(cfg), "--extraction", str(extraction),
                   "--attack", json.dumps(spec), "--out", str(attacked),
                   "--record", str(record)) == 0
        want, want_record = apply_attack(received, spec, derive_seed(11, "attack"))
        assert read_json(attacked) == extraction_document(want)
        assert read_json(record) == want_record.to_doc()
        code = run("verify", "--config", str(cfg), "--schedule", str(schedule),
                   "--extraction", str(attacked), "--tamper", str(record),
                   "--out", str(verdict))
        assert code == (0 if read_json(verdict)["valid"] else 3)
        assert read_json(verdict)["tamper"] == want_record.to_doc()
        assert run("diagnose", "--verdict", str(verdict), "--tamper", str(record),
                   "--out", str(diagnosis)) == 0
        assert read_json(diagnosis)["scores"] is not None

    def test_embed_makes_both_videos_in_one_generation(self, schedule_files, tmp_path,
                                                        monkeypatch):
        _, _, schedule = schedule_files
        strengths = []
        generate = spdmark.cli.generate_video
        monkeypatch.setattr(spdmark.cli, "generate_video",
                            lambda *args: strengths.append(args[-1]) or generate(*args))
        assert run("embed", "--schedule", str(schedule), "--out",
                   str(tmp_path / "alone.spdf")) == 0
        assert not (tmp_path / "clean.spdf").exists()
        assert run("embed", "--schedule", str(schedule), "--out", str(tmp_path / "marked.spdf"),
                   "--clean-out", str(tmp_path / "clean.spdf")) == 0
        assert strengths == [(RunConfig().alpha, 0.0)] * 2
        assert (tmp_path / "alone.spdf").read_bytes() == (tmp_path / "marked.spdf").read_bytes()
        with open(tmp_path / "clean.spdf", "rb") as stream:
            clean = read_video(stream)
        with open(tmp_path / "marked.spdf", "rb") as stream:
            marked = read_video(stream)
        assert clean.shape == marked.shape and (clean != marked).any()

    def test_photometric_attack_record_is_null(self, schedule_files, tmp_path):
        _, _, schedule = schedule_files
        marked = tmp_path / "marked.spdf"
        attacked = tmp_path / "attacked.spdf"
        record = tmp_path / "record.json"
        extraction = tmp_path / "extraction.json"
        verdict = tmp_path / "verdict.json"
        diagnosis = tmp_path / "diagnosis.json"
        assert run("embed", "--schedule", str(schedule), "--seed", "11",
                   "--out", str(marked)) == 0
        assert run("attack", "--video", str(marked), "--attack", '{"attack": "pixel_noise"}',
                   "--out", str(attacked), "--record", str(record)) == 0
        assert read_json(record) is None
        assert run("extract", "--schedule", str(schedule), "--seed", "11",
                   "--out", str(extraction)) == 0
        assert run("verify", "--schedule", str(schedule), "--extraction", str(extraction),
                   "--tamper", str(record), "--out", str(verdict)) == 0
        assert read_json(verdict)["tamper"] is None
        assert run("diagnose", "--verdict", str(verdict), "--tamper", str(record),
                   "--out", str(diagnosis)) == 0
        assert read_json(diagnosis)["scores"] is None

    def test_attack_without_input_is_config_error(self, capsys):
        assert run("attack", "--attack", '{"attack": "none"}') == 2
        capsys.readouterr()

    def test_attack_on_a_video_without_out_exits_2_before_reading_it(self, tmp_path,
                                                                      capsys):
        corrupt = tmp_path / "corrupt.spdf"
        corrupt.write_bytes(b"not a video")
        assert run("attack", "--video", str(corrupt)) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err == {"stage": "config",
                       "message": "attacking a video writes binary output and needs --out"}

    def test_malformed_attack_json_rejected(self, schedule_files, capsys):
        _, _, schedule = schedule_files
        assert run("attack", "--schedule", str(schedule), "--attack", "{oops") == 2
        capsys.readouterr()

    def test_empty_verdict_names_the_missing_key(self, tmp_path, capsys):
        empty = tmp_path / "x.json"
        write_json(empty, {})
        assert run("diagnose", "--verdict", str(empty)) == 4
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["stage"] == "diagnose"
        assert "missing key 'frames'" in err["message"]

    def test_verdict_claiming_a_huge_length_exits_4_at_once(self, tmp_path, capsys):
        # One frame, consistent in every recomputed field, that claims 10**12
        # extracted frames: diagnosing it would walk all of them.
        one = MessageSequence([[1, 0] * 14])
        doc = verify(one, one).to_doc()
        doc["num_extracted"] = 10**12
        verdict = tmp_path / "verdict.json"
        verdict.write_text(json.dumps(doc))
        assert verdict.stat().st_size < 400
        started = time.perf_counter()
        assert run("diagnose", "--verdict", str(verdict)) == 4
        assert time.perf_counter() - started < 1.0
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["stage"] == "diagnose"
        assert f"[1, {MAX_FRAMES}]" in err["message"]

    def test_empty_tamper_record_names_the_missing_key(self, schedule_files, capsys):
        tmp_path, _, schedule = schedule_files
        extraction = tmp_path / "extraction.json"
        verdict = tmp_path / "verdict.json"
        empty = tmp_path / "x.json"
        write_json(empty, {})
        assert run("extract", "--schedule", str(schedule), "--seed", "11",
                   "--out", str(extraction)) == 0
        assert run("verify", "--schedule", str(schedule), "--extraction", str(extraction),
                   "--out", str(verdict)) == 0
        assert run("diagnose", "--verdict", str(verdict), "--tamper", str(empty)) == 4
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["stage"] == "diagnose"
        assert "missing key 'source_length'" in err["message"]

    def test_malformed_tamper_record_exits_4_at_verify(self, schedule_files, capsys):
        tmp_path, _, schedule = schedule_files
        extraction = tmp_path / "extraction.json"
        bogus = tmp_path / "bogus.json"
        verdict = tmp_path / "verdict.json"
        write_json(bogus, {"anything": [1, 2, 3]})
        assert run("extract", "--schedule", str(schedule), "--seed", "11",
                   "--out", str(extraction)) == 0
        assert run("verify", "--schedule", str(schedule), "--extraction", str(extraction),
                   "--tamper", str(bogus), "--out", str(verdict)) == 4
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["stage"] == "verify"
        assert "missing key 'source_length'" in err["message"]
        assert not verdict.exists()

    def test_record_of_other_lengths_exits_4_at_verify(self, schedule_files, capsys):
        # A drop record against the unattacked extraction: 10 frames expected
        # and 10 extracted, where the record says 5 survive.
        tmp_path, _, schedule = schedule_files
        attacked = tmp_path / "attacked.json"
        record = tmp_path / "record.json"
        extraction = tmp_path / "extraction.json"
        assert run("attack", "--schedule", str(schedule),
                   "--attack", '{"attack": "drop", "fraction": 0.5, "seed": 3}',
                   "--out", str(attacked), "--record", str(record)) == 0
        assert run("extract", "--schedule", str(schedule), "--seed", "11",
                   "--out", str(extraction)) == 0
        assert run("verify", "--schedule", str(schedule), "--extraction", str(extraction),
                   "--tamper", str(record)) == 4
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["stage"] == "verify"
        assert "(T, T_r) = (10, 10)" in err["message"]

    @pytest.mark.parametrize("artifact, edit", [
        ("record", lambda doc: doc["dropped"].append(doc["dropped"][0])),
        ("record", lambda doc: doc["permutation"].reverse()),
        ("record", lambda doc: doc.update(extra=None)),
        ("verdict", lambda doc: doc.update(valid=1)),
        ("verdict", lambda doc: doc.update(tau_f=23.0)),
    ], ids=["drop-twice", "reversed-permutation", "extra-key", "valid-int", "tau_f-float"])
    def test_artifact_not_as_written_exits_4(self, artifact, edit, schedule_files, capsys):
        """A record or verdict reads back only as the pipeline writes it,
        even where Python's == would take the edited value for the same."""
        tmp_path, _, schedule = schedule_files
        files = {name: tmp_path / f"{name}.json" for name in ("attacked", "record", "verdict")}
        assert run("attack", "--schedule", str(schedule),
                   "--attack", '{"attack": "drop", "fraction": 0.5, "seed": 3}',
                   "--out", str(files["attacked"]), "--record", str(files["record"])) == 0
        assert run("verify", "--schedule", str(schedule), "--extraction", str(files["attacked"]),
                   "--tamper", str(files["record"]), "--out", str(files["verdict"])) == 0
        diagnose = ("diagnose", "--verdict", str(files["verdict"]), "--tamper", str(files["record"]))
        assert run(*diagnose) == 0
        capsys.readouterr()
        doc = read_json(files[artifact])
        edit(doc)
        write_json(files[artifact], doc)
        assert run(*diagnose) == 4
        assert json.loads(capsys.readouterr().err)["error"]["stage"] == "diagnose"

    @pytest.mark.parametrize("tamper", [{"anything": [1, 2, 3]}, [1, 2, 3], "drop", 7])
    def test_verdict_whose_tamper_field_is_not_a_record_exits_4(
        self, tamper, schedule_files, capsys
    ):
        tmp_path, _, schedule = schedule_files
        extraction = tmp_path / "extraction.json"
        verdict = tmp_path / "verdict.json"
        assert run("extract", "--schedule", str(schedule), "--seed", "11",
                   "--out", str(extraction)) == 0
        assert run("verify", "--schedule", str(schedule), "--extraction", str(extraction),
                   "--out", str(verdict)) == 0
        write_json(verdict, {**read_json(verdict), "tamper": tamper})
        assert run("diagnose", "--verdict", str(verdict)) == 4
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["stage"] == "diagnose"
        assert "tamper record" in err["message"]


def fast_toy_config(tmp_path, **extra) -> Path:
    doc = {
        "seed": 11,
        "num_frames": 12,
        "train_videos": 40,
        "train_frames": 6,
        "holdout_videos": 8,
        "calibration_trials": 1000,
    }
    doc.update(extra)
    path = tmp_path / "toy_cfg.json"
    write_json(path, doc)
    return path


def toy_chain(tmp_path, embed_cfg, fit_cfg, *fit_flags) -> tuple:
    """keygen, schedule, embed and verify under `embed_cfg`; fit-extractor
    and extract under `fit_cfg` and `fit_flags`.  Returns verify's exit code
    and the share of extracted bits that equal the scheduled ones."""

    def path(name):
        return str(tmp_path / name)

    embed = ["--config", str(embed_cfg)]
    fit = ["--config", str(fit_cfg), *fit_flags]
    assert run("keygen", *embed, "--out", path("key.json")) == 0
    assert run("schedule", *embed, "--key", path("key.json"), "--out", path("schedule.json")) == 0
    assert run("embed", *embed, "--schedule", path("schedule.json"),
               "--out", path("marked.spdf")) == 0
    assert run("fit-extractor", *fit, "--out", path("extractor.bin")) == 0
    assert run("extract", *fit, "--video", path("marked.spdf"),
               "--extractor", path("extractor.bin"), "--out", path("extraction.json")) == 0
    code = run("verify", *embed, "--schedule", path("schedule.json"),
               "--extraction", path("extraction.json"), "--out", path("verdict.json"))
    scheduled = parse_schedule_document(read_json(tmp_path / "schedule.json"))[2]
    extracted = parse_extraction_document(read_json(tmp_path / "extraction.json"))
    return code, float((scheduled.messages == extracted.messages).mean())


class TestToyVideoFlow:
    def test_embed_extract_verify(self, tmp_path):
        cfg = fast_toy_config(tmp_path)
        key = tmp_path / "key.json"
        schedule = tmp_path / "schedule.json"
        marked = tmp_path / "marked.spdf"
        extractor = tmp_path / "extractor.bin"
        extraction = tmp_path / "extraction.json"
        assert run("keygen", "--config", str(cfg), "--out", str(key)) == 0
        assert run("schedule", "--config", str(cfg), "--key", str(key),
                   "--out", str(schedule)) == 0
        assert run("embed", "--config", str(cfg), "--schedule", str(schedule),
                   "--out", str(marked)) == 0
        assert marked.stat().st_size > 0
        assert run("fit-extractor", "--config", str(cfg), "--out", str(extractor)) == 0
        assert run("extract", "--config", str(cfg), "--video", str(marked),
                   "--extractor", str(extractor), "--out", str(extraction)) == 0
        assert run("verify", "--config", str(cfg), "--schedule", str(schedule),
                   "--extraction", str(extraction)) == 0

    def test_chain_stages_may_use_different_seeds(self, tmp_path, capsys):
        """The extractor is fitted on the model's corpus, so one fitted at
        the default seed reads a video embedded at seed 11."""
        cfg = fast_toy_config(tmp_path)
        assert read_json(cfg)["seed"] == 11
        code, agreement = toy_chain(tmp_path, cfg, cfg, "--seed", "0")
        capsys.readouterr()
        assert code == 0
        assert agreement >= 0.9

    def test_other_condition_reads_chance(self, tmp_path, capsys):
        """condition_seed is a model field that every stage must share: an
        extractor fitted under another condition reads about chance, and
        the chain exits 3 as on an unwatermarked video."""
        cfg = fast_toy_config(tmp_path)
        other = tmp_path / "other_condition.json"
        write_json(other, {**read_json(cfg), "condition_seed": 1})
        code, agreement = toy_chain(tmp_path, cfg, other)
        capsys.readouterr()
        assert code == 3
        assert 0.35 <= agreement <= 0.65

    def test_run_applies_its_attack_once_through_cli(self, tmp_path, monkeypatch, capsys):
        """run-pipeline checks its attack on a placeholder through
        channel_attacks, so cli.apply_attack, which a trace wraps, sees the
        run's one attack."""
        calls = []
        monkeypatch.setattr(spdmark.cli, "apply_attack",
                            lambda target, spec, seed: calls.append(spec) or apply_attack(
                                target, spec, seed))
        assert run("run-pipeline", "--config", str(fast_toy_config(tmp_path)), "--attack",
                   '{"attack": "swap_random"}', "--out", str(tmp_path / "run")) in (0, 3)
        assert calls == [{"attack": "swap_random"}]
        capsys.readouterr()

    def test_run_pipeline_toy_mode(self, tmp_path, capsys):
        cfg = fast_toy_config(tmp_path)
        out_dir = tmp_path / "run"
        assert run("run-pipeline", "--config", str(cfg), "--out", str(out_dir)) == 0
        capsys.readouterr()
        for name in ("config.json", "key.json", "schedule.json", "clean.spdf",
                     "marked.spdf", "extractor.bin", "attacked.spdf",
                     "extraction.json", "verdict.json", "diagnosis.json",
                     "report.json"):
            assert (out_dir / name).exists(), name
        report = read_json(out_dir / "report.json")
        assert report["valid"] is True
        assert report["bit_acc"] >= 0.9
        assert set(report["losses"]) == {"ps", "tc", "rec", "total"}
        assert report["config_hash"] == read_json(out_dir / "config.json")["config_hash"]
        assert_own_config_hash(out_dir / "config.json")
        written = read_json(out_dir / "config.json")
        assert written["attack"] == {"attack": "none"}
        assert written["attacks"] == [dict(spec) for spec in DEFAULT_ATTACK_SUITE]
        assert not {"init_scale", "lambda_ps", "lambda_tc"} & set(written)

    def test_layout_sets_the_key_width(self, tmp_path, capsys):
        cfg = fast_toy_config(tmp_path, num_layers=7, bases_per_layer=8)
        out_dir = tmp_path / "run"
        assert run("run-pipeline", "--config", str(cfg), "--out", str(out_dir)) == 0
        capsys.readouterr()
        assert read_json(out_dir / "key.json")["config"] == {"L": 7, "P": 8, "M": 21}
        assert_own_config_hash(out_dir / "config.json")

    def test_toy_reports_reproduce(self, tmp_path, capsys):
        cfg = fast_toy_config(tmp_path)
        first = tmp_path / "one"
        second = tmp_path / "two"
        assert run("run-pipeline", "--config", str(cfg), "--out", str(first)) == 0
        assert run("run-pipeline", "--config", str(cfg), "--out", str(second)) == 0
        capsys.readouterr()
        names = sorted(path.name for path in first.iterdir())
        assert names == sorted(path.name for path in second.iterdir())
        for name in names:
            if name == "report.json":
                a = strip_runtime(read_json(first / name))
                b = strip_runtime(read_json(second / name))
                assert a == b
            else:
                assert (first / name).read_bytes() == (second / name).read_bytes(), name

    def test_rerun_into_a_used_directory_reports_the_same_artifacts(self, tmp_path,
                                                                    capsys):
        """artifacts lists exactly the files a run writes, whatever the
        directory held before."""
        cfg = str(fast_toy_config(tmp_path))
        fresh, used = tmp_path / "fresh", tmp_path / "used"
        assert run("run-pipeline", "--config", cfg, "--out", str(used)) == 0
        (used / "notes.txt").write_text("not an artifact")
        assert run("run-pipeline", "--config", cfg, "--out", str(used)) == 0
        assert run("run-pipeline", "--config", cfg, "--out", str(fresh)) == 0
        capsys.readouterr()
        report = read_json(used / "report.json")
        assert strip_runtime(report) == strip_runtime(read_json(fresh / "report.json"))
        assert len(report["artifacts"]) == 11
        written = sorted(path.name for path in fresh.iterdir())
        assert sorted(report["artifacts"] + ["report.json"]) == written

    @pytest.mark.parametrize(
        "attack",
        [{"attack": "drop", "fraction": 0.3}, {"attack": "pixel_noise"}],
        ids=["drop", "pixel_noise"],
    )
    def test_subcommand_chain_matches_pipeline(self, tmp_path, capsys, attack):
        cfg = str(fast_toy_config(tmp_path, attack=attack))
        chain = tmp_path / "chain"
        chain.mkdir()

        def path(name):
            return str(chain / name)

        codes = [
            run("keygen", "--config", cfg, "--out", path("key.json")),
            run("schedule", "--config", cfg, "--key", path("key.json"),
                "--out", path("schedule.json")),
            run("embed", "--config", cfg, "--schedule", path("schedule.json"),
                "--out", path("marked.spdf"), "--clean-out", path("clean.spdf")),
            run("fit-extractor", "--config", cfg, "--out", path("extractor.bin")),
            run("attack", "--config", cfg, "--video", path("marked.spdf"),
                "--out", path("attacked.spdf"), "--record", path("tamper.json")),
            run("extract", "--config", cfg, "--video", path("attacked.spdf"),
                "--extractor", path("extractor.bin"), "--out", path("extraction.json")),
            run("verify", "--config", cfg, "--schedule", path("schedule.json"),
                "--extraction", path("extraction.json"), "--tamper", path("tamper.json"),
                "--out", path("verdict.json")),
            run("diagnose", "--config", cfg, "--verdict", path("verdict.json"),
                "--tamper", path("tamper.json"), "--out", path("diagnosis.json")),
        ]
        pipeline = tmp_path / "run"
        code = run("run-pipeline", "--config", cfg, "--out", str(pipeline))
        capsys.readouterr()
        shared = sorted(p.name for p in chain.iterdir())
        assert len(shared) == 10
        for name in shared:
            assert (chain / name).read_bytes() == (pipeline / name).read_bytes(), name
        # Whether the attacked video still verifies depends on the seed;
        # verify and run-pipeline exit 0 on a valid verdict and 3 otherwise.
        want = 0 if read_json(pipeline / "verdict.json")["valid"] else 3
        assert code == want
        assert codes == [0] * 6 + [want, 0]

    @pytest.mark.parametrize(
        "attack",
        [{"attack": "drop", "fraction": 0.3}, {"attack": "pixel_noise"}],
        ids=["drop", "pixel_noise"],
    )
    def test_binary_artifacts_read_back_as_produced(self, tmp_path, capsys, monkeypatch,
                                                    attack):
        # Each binary artifact reads back bit for bit as the array its stage
        # produced, and later stages take those arrays, not a read-back copy.
        written, extracted_with = {}, []
        write_binary, extract = spdmark.cli._write_binary, spdmark.cli._extract

        def record_write(path, writer, value):
            written[Path(path).name] = value
            write_binary(path, writer, value)

        def record_extract(cfg, target, extractor, out):
            extracted_with.extend((extractor, target))
            return extract(cfg, target, extractor, out)

        monkeypatch.setattr(spdmark.cli, "_write_binary", record_write)
        monkeypatch.setattr(spdmark.cli, "_extract", record_extract)
        out = tmp_path / "run"
        cfg = str(fast_toy_config(tmp_path, attack=attack))
        assert run("run-pipeline", "--config", cfg, "--out", str(out)) in (0, 3)
        capsys.readouterr()
        assert sorted(written) == [
            "attacked.spdf", "clean.spdf", "extractor.bin", "marked.spdf"
        ]
        for name in ("attacked.spdf", "clean.spdf", "marked.spdf"):
            with open(out / name, "rb") as stream:
                video = read_video(stream)
            assert video.shape == written[name].shape, name
            assert video.tobytes() == written[name].tobytes(), name
        with open(out / "extractor.bin", "rb") as stream:
            extractor = read_extractor(stream)
        produced = written["extractor.bin"]
        assert extractor.weight.tobytes() == produced.weight.tobytes()
        assert extractor.bias.tobytes() == produced.bias.tobytes()
        assert extractor.ridge_lambda == produced.ridge_lambda
        assert extracted_with[0] is produced
        assert extracted_with[1] is written["attacked.spdf"]

    def test_default_toy_run_leaves_scipy_unimported(self, tmp_path):
        # A default toy run never solves an assignment, so it never pays
        # for importing scipy.
        src = str(Path(spdmark.cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        child = subprocess.run(
            [sys.executable, "-c", "import sys; from spdmark.cli import main; "
             "code = main(sys.argv[1:]); print('scipy' in sys.modules); sys.exit(code)",
             "run-pipeline", "--mode", "toy", "--out", str(tmp_path)],
            env=env, check=True, capture_output=True, text=True,
        )
        assert child.stdout.splitlines()[-1] == "False"

    def test_toy_path_runs_without_scipy_linalg(self, tmp_path, capsys, monkeypatch):
        # The toy path does its dense linear algebra in numpy's OpenBLAS; a
        # call into scipy's separately bundled one starts a second thread
        # pool that contends with numpy's.
        import scipy.linalg

        def refuse(*args, **kwargs):
            raise AssertionError("scipy.linalg called on the toy path")

        for name in ("solve", "cho_factor", "cho_solve", "cholesky", "lstsq",
                     "lu_factor", "solve_triangular"):
            monkeypatch.setattr(scipy.linalg, name, refuse)
        cfg = str(fast_toy_config(tmp_path))
        assert run("run-pipeline", "--config", cfg, "--out", str(tmp_path / "run")) == 0
        assert run("fit-extractor", "--config", cfg,
                   "--out", str(tmp_path / "extractor.bin")) == 0
        capsys.readouterr()


class TestCorpus:
    def test_one_batch_equals_per_video_generation(self):
        cfg = RunConfig(seed=3, train_videos=12, train_frames=5)
        dictionary, decoder, condition = toy_components(cfg)
        corpus = build_corpus(
            cfg, "train", cfg.train_videos, cfg.train_frames, dictionary, decoder, condition
        )
        videos, schedule = corpus.videos, corpus.schedule
        assert videos.shape == (12, 5, 3, 8, 8)
        assert not videos.flags.writeable
        assert isinstance(schedule, MessageSequence)
        assert len(schedule) == 60
        runs = schedule.messages.reshape(12, 5, -1)
        for index, (video, bits) in enumerate(zip(videos, runs)):
            want = reference_generate(
                decoder, dictionary, MessageSequence(bits),
                derive_seed("corpus", "train", index, "latent"), condition, cfg.latent_scale,
            )
            assert video.tobytes() == want.tobytes()

    def test_pipeline_builds_components_once(self, tmp_path, capsys, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return toy_components(*args, **kwargs)

        monkeypatch.setattr(spdmark.cli, "toy_components", counted)
        cfg = fast_toy_config(tmp_path)
        assert run("run-pipeline", "--config", str(cfg), "--out", str(tmp_path / "run")) == 0
        capsys.readouterr()
        assert len(calls) == 1


def assert_same_artifacts(left: Path, right: Path) -> None:
    """The two run directories hold the same files with the same bytes, but
    for report.json's runtime block."""
    names = sorted(path.name for path in left.iterdir())
    assert names == sorted(path.name for path in right.iterdir())
    for name in names:
        if name == "report.json":
            assert strip_runtime(read_json(left / name)) == strip_runtime(read_json(right / name))
        else:
            assert (left / name).read_bytes() == (right / name).read_bytes(), (left, name)


def model_bytes(dictionary, decoder) -> tuple:
    """Everything a dictionary and a decoder hold, as bytes and values."""
    factors = [dictionary.factor_a.tobytes(), dictionary.factor_b.tobytes()]
    scalars = (dictionary.layer_dim, dictionary.rank, decoder.frame_shape)
    arrays = (decoder.weights, decoder.offsets, decoder.projection,
              decoder.projection_offset)
    return scalars, factors, [array.tobytes() for array in arrays]


def model_arrays(dictionary, decoder) -> list:
    arrays = [decoder.weights, decoder.offsets, decoder.projection,
              decoder.projection_offset, decoder._weight_images,
              decoder._projection_image]
    arrays += [dictionary.factor_a, dictionary.factor_b, *dictionary._factor_images]
    return arrays


# A corpus small enough to build once per test case.
SMALL_CORPUS = {"train_videos": 6, "train_frames": 3}

# One changed value for each field the training corpus reads.
CORPUS_FIELD_CHANGES = [
    {"num_layers": 7},
    {"bases_per_layer": 2},
    {"layer_dim": 32},
    {"rank": 16},
    {"init_seed": 1},
    {"height": 4},
    {"width": 4},
    {"decoder_seed": 1},
    {"alpha": 0.5},
    {"latent_scale": 0.1},
    {"condition_seed": 7},
    {"train_videos": 5},
    {"train_frames": 2},
]


def memo_corpus(cfg):
    """The training corpus the per-process memo holds for `cfg`."""
    cli = spdmark.cli
    return cli._toy_corpus(*cli._fields(cfg, cli._CORPUS_FIELDS))


def fresh_corpus(cfg, role="train"):
    return build_corpus(cfg, role, cfg.train_videos, cfg.train_frames, *toy_components(cfg))


def corpus_bytes(corpus) -> tuple:
    return corpus.videos.shape, corpus.videos.tobytes(), corpus.schedule.messages.tobytes()


class TestModelMemo:
    def test_per_run_fields_share_one_model(self):
        base = toy_components(RunConfig(seed=3))
        other = toy_components(RunConfig(
            seed=5, attack={"attack": "drop", "fraction": 0.5}, num_frames=10,
            condition_seed=7, alpha=0.5,
        ))
        assert other[0] is base[0]
        assert other[1] is base[1]
        assert other[2].tobytes() != base[2].tobytes()

    @pytest.mark.parametrize("fields", [
        {"num_layers": 7},
        {"bases_per_layer": 2},
        {"layer_dim": 32},
        {"rank": 16},
        {"init_seed": 1},
        {"height": 4},
        {"width": 4},
        {"decoder_seed": 1},
    ], ids=lambda fields: next(iter(fields)))
    def test_each_model_field_gives_a_fresh_model(self, fields):
        base = toy_components(RunConfig(seed=3))
        cfg = RunConfig(seed=3, **fields)
        dictionary, decoder, _ = toy_components(cfg)
        assert dictionary is not base[0] and decoder is not base[1]
        fresh_dictionary = init_dictionary(
            cfg.key_config(), layer_dim=cfg.layer_dim, rank=cfg.rank,
            init_seed=cfg.init_seed,
        )
        fresh_decoder = init_toy_decoder(
            layer_dim=cfg.layer_dim, height=cfg.height, width=cfg.width,
            num_layers=cfg.num_layers, seed=cfg.decoder_seed,
        )
        assert model_bytes(dictionary, decoder) == model_bytes(fresh_dictionary, fresh_decoder)
        assert model_bytes(dictionary, decoder) != model_bytes(*base[:2])

    def test_memo_is_bounded(self):
        size = spdmark.cli._MODEL_CACHE_SIZE
        first = toy_components(RunConfig(init_seed=1000))
        for init_seed in range(1001, 1001 + size):
            toy_components(RunConfig(init_seed=init_seed))
        assert spdmark.cli._toy_model.cache_info().currsize == size
        assert toy_components(RunConfig(init_seed=1000))[0] is not first[0]

    def test_shared_model_is_read_only(self):
        dictionary, decoder, _ = toy_components(RunConfig())
        for array in model_arrays(dictionary, decoder):
            with pytest.raises(ValueError):
                array[(0,) * array.ndim] = 0.0

    def test_corpus_key_is_every_field_the_corpus_reads(self):
        names = [next(iter(fields)) for fields in CORPUS_FIELD_CHANGES]
        assert names == list(spdmark.cli._CORPUS_FIELDS)
        assert names[:8] == list(spdmark.cli._MODEL_FIELDS)

    @pytest.mark.parametrize("fields", CORPUS_FIELD_CHANGES,
                             ids=lambda fields: next(iter(fields)))
    def test_each_corpus_field_gives_a_fresh_corpus(self, fields):
        base = memo_corpus(RunConfig(**SMALL_CORPUS))
        cfg = RunConfig(**{**SMALL_CORPUS, **fields})
        corpus = memo_corpus(cfg)
        assert corpus.videos is not base.videos and corpus.schedule is not base.schedule
        assert corpus_bytes(corpus) == corpus_bytes(fresh_corpus(cfg))
        assert corpus_bytes(corpus) != corpus_bytes(base)

    @pytest.mark.parametrize("fields", [
        {"seed": 5},
        {"secret_hex": "ab" * 16},
        {"ridge_lambda": 0.01},
        {"attack": {"attack": "drop", "fraction": 0.5}},
        {"num_frames": 10},
        {"gamma_f": 0.01},
    ], ids=lambda fields: next(iter(fields)))
    def test_per_run_fields_share_one_corpus(self, fields):
        base = memo_corpus(RunConfig(**SMALL_CORPUS))
        assert memo_corpus(RunConfig(**SMALL_CORPUS, **fields)) is base

    def test_corpus_memo_holds_one_entry(self):
        memo_corpus(RunConfig(**SMALL_CORPUS))
        memo_corpus(RunConfig(**SMALL_CORPUS, condition_seed=7))
        info = spdmark.cli._toy_corpus.cache_info()
        assert (info.maxsize, info.currsize) == (1, 1)

    def test_shared_corpus_is_read_only(self):
        corpus = memo_corpus(RunConfig(**SMALL_CORPUS))
        for array in (corpus.videos, corpus.schedule.messages):
            with pytest.raises(ValueError):
                array[(0,) * array.ndim] = 0

    @pytest.mark.parametrize("role", ["train", "holdout"])
    def test_corpus_does_not_depend_on_the_run_seed_or_secret(self, role):
        base = RunConfig(**SMALL_CORPUS)
        want = corpus_bytes(fresh_corpus(base, role))
        for fields in ({"seed": 5}, {"secret_hex": "ab" * 16}):
            assert corpus_bytes(fresh_corpus(RunConfig(**SMALL_CORPUS, **fields), role)) == want
        # The role alone keeps the training and holdout corpora apart.
        other = "holdout" if role == "train" else "train"
        assert corpus_bytes(fresh_corpus(base, other)) != want

    def test_alpha_run_reuses_the_model_of_a_default_run(self, tmp_path, capsys):
        cfg = str(fast_toy_config(tmp_path))
        strong = tmp_path / "strong.json"
        write_json(strong, {**read_json(Path(cfg)), "alpha": 0.5})
        memos = (spdmark.cli._toy_model, spdmark.cli._toy_corpus)

        def clear_and_run(runs):
            for memo in memos:
                memo.cache_clear()
            for config, name in runs:
                code = run("run-pipeline", "--config", config, "--out", str(tmp_path / name))
                assert code in (0, 3)
            return [(memo.cache_info().hits, memo.cache_info().misses) for memo in memos]

        # One model, hit by the alpha run's embed and by each corpus build;
        # alpha is a corpus field, so each run builds its own corpus.
        assert clear_and_run([(cfg, "default"), (str(strong), "shared")]) == [(3, 1), (0, 2)]
        assert clear_and_run([(str(strong), "fresh")]) == [(1, 1), (0, 1)]
        capsys.readouterr()
        assert_same_artifacts(tmp_path / "shared", tmp_path / "fresh")

    def test_runs_of_one_corpus_share_its_normal_equations(self, tmp_path, capsys,
                                                           monkeypatch):
        # A run at another ridge_lambda solves the normal equations the first
        # run computed, and leaves them for the runs after it.
        cfg = fast_toy_config(tmp_path)
        ridge = tmp_path / "ridge.json"
        write_json(ridge, {**read_json(cfg), "ridge_lambda": 0.01})
        spdmark.cli._toy_corpus.cache_clear()
        designs = []
        design = Corpus._design
        monkeypatch.setattr(
            Corpus, "_design", lambda corpus: designs.append(corpus) or design(corpus)
        )
        for config, name in ((cfg, "first"), (ridge, "ridge"), (cfg, "again")):
            code = run("run-pipeline", "--config", str(config), "--out", str(tmp_path / name))
            assert code in (0, 3)
        capsys.readouterr()
        assert len(designs) == 1
        assert_same_artifacts(tmp_path / "first", tmp_path / "again")
        extractors = [(tmp_path / name / "extractor.bin").read_bytes()
                      for name in ("first", "ridge")]
        assert extractors[0] != extractors[1]

    def test_runs_of_one_corpus_share_its_last_fit(self, tmp_path, capsys, monkeypatch):
        # Each run fits once, and a run at the last run's ridge_lambda gets
        # the corpus's kept extractor without solving again.
        cfg = fast_toy_config(tmp_path)
        ridge = tmp_path / "ridge.json"
        write_json(ridge, {**read_json(cfg), "ridge_lambda": 0.01})
        spdmark.cli._toy_corpus.cache_clear()
        fits, solves = [], []
        fit, solve = spdmark.cli.fit_extractor, np.linalg.solve
        monkeypatch.setattr(spdmark.cli, "fit_extractor",
                            lambda *args, **kwargs: fits.append(1) or fit(*args, **kwargs))
        monkeypatch.setattr(np.linalg, "solve", lambda *args: solves.append(1) or solve(*args))
        runs = ((cfg, "first"), (cfg, "second"), (ridge, "ridge"), (cfg, "again"))
        for config, name in runs:
            code = run("run-pipeline", "--config", str(config), "--out", str(tmp_path / name))
            assert code in (0, 3)
        capsys.readouterr()
        assert (len(fits), len(solves)) == (4, 3)
        for name in ("second", "again"):
            assert_same_artifacts(tmp_path / "first", tmp_path / name)

    def test_runs_do_not_depend_on_earlier_runs(self, tmp_path, capsys):
        cfg = str(fast_toy_config(tmp_path))
        other = tmp_path / "other.json"
        write_json(other, {**read_json(Path(cfg)), "init_seed": 1, "alpha": 0.5})
        runs = [("3", cfg, "first"), ("3", str(other), "other"), ("5", cfg, "five"),
                ("3", cfg, "again")]
        for seed, config, name in runs:
            code = run("run-pipeline", "--config", config, "--seed", seed,
                       "--out", str(tmp_path / name))
            assert code in (0, 3)
        src = str(Path(spdmark.cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        subprocess.run(
            [sys.executable, "-c", "import sys; from spdmark.cli import main; "
             "sys.exit(main(sys.argv[1:]))", "run-pipeline", "--config", cfg,
             "--seed", "5", "--out", str(tmp_path / "fresh")],
            env=env, check=True, capture_output=True,
        )
        capsys.readouterr()
        for left, right in (("first", "again"), ("five", "fresh")):
            assert_same_artifacts(tmp_path / left, tmp_path / right)


class TestConfigReplay:
    """A run's config.json is a valid --config, and replays the run."""

    @pytest.mark.parametrize("mode,extra", [
        ("toy", {"attack": {"attack": "swap_random"}}),
        ("channel", {"trials": 3, "flip_probability": 0.02}),
    ])
    def test_config_json_replays_the_run(self, tmp_path, capsys, mode, extra):
        cfg = str(fast_toy_config(tmp_path, **extra))
        first, replay = tmp_path / "first", tmp_path / "replay"
        assert run("run-pipeline", "--mode", mode, "--config", cfg, "--out", str(first)) == 0
        assert run("run-pipeline", "--mode", mode, "--config", str(first / "config.json"),
                   "--out", str(replay)) == 0
        capsys.readouterr()
        assert_same_artifacts(first, replay)

    def test_edited_config_json_exits_2(self, tmp_path, capsys):
        first = tmp_path / "first"
        assert run("run-pipeline", "--config", str(fast_toy_config(tmp_path)),
                   "--out", str(first)) == 0
        doc = read_json(first / "config.json")
        edited, out = tmp_path / "edited.json", tmp_path / "run"
        write_json(edited, {**doc, "seed": doc["seed"] + 1})
        capsys.readouterr()
        assert run("run-pipeline", "--config", str(edited), "--out", str(out)) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["stage"] == "config"
        assert doc["config_hash"] in error["message"]
        assert not out.exists()
        # Unknown keys are named before the hash is checked.
        write_json(edited, {**doc, "seed": doc["seed"] + 1, "init_scale": 0.3})
        assert run("run-pipeline", "--config", str(edited), "--out", str(out)) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error == {"stage": "config", "message": "unknown config keys: ['init_scale']"}

    def test_flags_override_a_replayed_config(self, tmp_path, capsys):
        """The stated hash is that of the file's fields; a flag still
        overrides one of them."""
        default, replay, fresh = tmp_path / "default", tmp_path / "replay", tmp_path / "fresh"
        assert run("run-pipeline", "--out", str(default)) == 0
        assert run("run-pipeline", "--config", str(default / "config.json"), "--seed", "4",
                   "--out", str(replay)) == 0
        assert run("run-pipeline", "--seed", "4", "--out", str(fresh)) == 0
        capsys.readouterr()
        assert_same_artifacts(replay, fresh)


class TestChannelPipeline:
    def test_no_attack_ideal_channel_is_perfect(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        write_json(cfg, {"seed": 4, "num_frames": 10, "trials": 5,
                         "calibration_trials": 1000,
                         "attacks": [{"attack": "none"}]})
        out_dir = tmp_path / "run"
        assert run("run-pipeline", "--config", str(cfg), "--mode", "channel",
                   "--out", str(out_dir)) == 0
        capsys.readouterr()
        report = read_json(out_dir / "report.json")
        (row,) = report["rows"]
        assert row["attack"] == "none"
        assert row["bit_acc"] == 1.0
        assert row["order_acc"] == 1.0
        assert row["valid_rate"] == 1.0
        assert row["perm_recovered_rate"] == 1.0
        assert report["calibration"]["tau_f"] == 23
        assert report["config_hash"] == read_json(out_dir / "config.json")["config_hash"]
        assert_own_config_hash(out_dir / "config.json")

    def test_runtime_times_each_stage(self, tmp_path, capsys):
        """Channel mode reports the toy mode's runtime header: each stage's
        wall time and the total."""
        out_dir = tmp_path / "run"
        assert run("run-pipeline", "--mode", "channel", "--trials", "3",
                   "--out", str(out_dir)) == 0
        capsys.readouterr()
        runtime = read_json(out_dir / "report.json")["runtime"]
        assert sorted(runtime) == ["stage_seconds", "total_seconds"]
        assert sorted(runtime["stage_seconds"]) == ["calibrate", "forensics"]
        assert sum(runtime["stage_seconds"].values()) <= runtime["total_seconds"]

    def test_channel_reports_reproduce(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        write_json(cfg, {"seed": 4, "num_frames": 10, "trials": 4,
                         "flip_probability": 0.02, "calibration_trials": 1000,
                         "attacks": [{"attack": "drop", "fraction": 0.4},
                                      {"attack": "swap_random"}]})
        first = tmp_path / "one"
        second = tmp_path / "two"
        assert run("run-pipeline", "--config", str(cfg), "--mode", "channel",
                   "--out", str(first)) == 0
        assert run("run-pipeline", "--config", str(cfg), "--mode", "channel",
                   "--out", str(second)) == 0
        capsys.readouterr()
        a = strip_runtime(read_json(first / "report.json"))
        b = strip_runtime(read_json(second / "report.json"))
        assert a == b


class TestForensicsTable:
    def test_ideal_channel_rows(self):
        cfg = RunConfig(
            seed=1,
            num_frames=10,
            trials=3,
            attacks=({"attack": "drop", "fraction": 0.3}, {"attack": "swap_random"}),
        )
        drop_row, swap_row = forensics_table(cfg)
        assert drop_row["attack"] == "drop"
        assert drop_row["f1_drop"] == 1.0
        assert drop_row["bit_acc"] == 1.0
        assert drop_row["valid_rate"] == 1.0
        assert drop_row["perm_recovered_rate"] == 1.0
        assert swap_row["order_acc"] < 1.0
        assert swap_row["bit_acc"] == 1.0
        assert swap_row["perm_recovered_rate"] == 1.0
        assert drop_row["config_hash"] == config_hash(cfg)

    def test_default_suite_names(self):
        names = [spec["attack"] for spec in DEFAULT_ATTACK_SUITE]
        assert names == ["drop", "insert", "swap_random", "swap_adjacent", "trim"]


class TestCalibrateCommand:
    def test_reports_design_thresholds(self, tmp_path, capsys):
        out = tmp_path / "calibration.json"
        code = run("calibrate", "--trials", "1000", "--frames", "10",
                   "--seed", "2", "--out", str(out))
        captured = capsys.readouterr()
        assert code == 0
        assert "warning" in captured.err
        doc = read_json(out)
        assert doc["tau_f"] == 23
        assert doc["trials"] == 1000
        assert doc["identity_valid_count"] == 0
        assert 0.0 <= doc["matched_pass_rate"] <= 1.0

    def test_channel_mode_calibration_needs_1000_trials(self, tmp_path, capsys):
        """run-pipeline --mode channel runs the calibrate stage of
        `spdmark calibrate`, with its trial policy."""
        cfg = tmp_path / "cfg.json"
        write_json(cfg, {"seed": 4, "num_frames": 10, "trials": 1, "calibration_trials": 10,
                         "attacks": [{"attack": "none"}]})
        assert run("run-pipeline", "--config", str(cfg), "--mode", "channel",
                   "--out", str(tmp_path / "channel")) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err == {"stage": "config", "message": "calibration needs at least 1000 trials"}
        assert not (tmp_path / "channel" / "report.json").exists()

    def test_trials_flag_sets_calibration_trials(self, tmp_path, capsys):
        """calibrate --trials N writes the report, config_hash included, of a
        config that sets calibration_trials to N."""
        by_flag = tmp_path / "flag.json"
        assert run("calibrate", "--trials", "1000", "--frames", "10", "--seed", "2",
                   "--out", str(by_flag)) == 0
        cfg = tmp_path / "cfg.json"
        write_json(cfg, {"calibration_trials": 1000, "num_frames": 10, "seed": 2})
        by_config = tmp_path / "config.json"
        assert run("calibrate", "--config", str(cfg), "--out", str(by_config)) == 0
        capsys.readouterr()
        assert by_flag.read_bytes() == by_config.read_bytes()
        assert run("calibrate", "--calibration-trials", "1000") == 2
        capsys.readouterr()

    def test_frames_beyond_the_verifier_bound_exit_2_at_once(self, capsys):
        begin = time.perf_counter()
        assert run("calibrate", "--frames", str(MAX_FRAMES + 1)) == 2
        assert time.perf_counter() - begin < 1.0
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["stage"] == "config"
        assert load_config(None, {"num_frames": MAX_FRAMES}).num_frames == MAX_FRAMES

    def test_no_warning_when_resolvable(self, tmp_path, capsys):
        out = tmp_path / "calibration.json"
        code = run("calibrate", "--trials", "1000", "--frames", "10", "--seed", "2",
                   "--gamma-v", "0.05", "--out", str(out))
        captured = capsys.readouterr()
        assert code == 0
        assert "warning" not in captured.err

    def test_unreachable_frame_threshold_writes_strict_json(self, tmp_path, capsys):
        """gamma_f below 2^-M gives p_f = 0; the reports must still be written,
        as JSON with no NaN or Infinity."""

        def strict(path: Path) -> dict:
            def reject(name):
                raise ValueError(f"non-standard JSON constant {name}")

            return json.loads(path.read_text(), parse_constant=reject)

        out = tmp_path / "calibration.json"
        assert run("calibrate", "--trials", "1000", "--frames", "10",
                   "--gamma-f", "1e-9", "--out", str(out)) == 0
        doc = strict(out)
        assert (doc["tau_f"], doc["p_f"]) == (29, 0.0)
        assert doc["identity_pass_z"] is None
        assert doc["matched_pass_inflation"] is None
        cfg = tmp_path / "cfg.json"
        write_json(cfg, {"seed": 4, "num_frames": 10, "trials": 2,
                         "calibration_trials": 1000, "gamma_f": 1e-9,
                         "attacks": [{"attack": "none"}]})
        assert run("run-pipeline", "--config", str(cfg), "--mode", "channel",
                   "--out", str(tmp_path / "channel")) == 0
        capsys.readouterr()
        report = strict(tmp_path / "channel" / "report.json")
        assert report["calibration"]["matched_pass_inflation"] is None
        assert report["rows"][0]["valid_rate"] == 0.0
