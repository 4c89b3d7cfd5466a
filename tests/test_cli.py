"""End-to-end tests of the command-line surface.

Commands run in-process through main(argv); files go to tmp_path.  Reports
must reproduce bit for bit across reruns except under their "runtime" key.
"""

import contextlib
import dataclasses
import io
import json
import tempfile
from pathlib import Path

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
from spdmark.keyspace import KeyConfig, bits_to_hex, random_key


def run(*argv) -> int:
    return main(list(argv))


def read_json(path: Path) -> dict:
    return json.loads(path.read_text())


def write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc))


def strip_runtime(report: dict) -> dict:
    return {k: v for k, v in report.items() if k != "runtime"}


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

    def test_inconsistent_layout_rejected(self):
        with pytest.raises(ConfigError):
            load_config(None, {"message_bits": 27})
        with pytest.raises(ConfigError):
            load_config(None, {"rank": 100, "layer_dim": 64})

    def test_hash_covers_semantics_not_paths(self):
        base = RunConfig()
        assert config_hash(base) == config_hash(RunConfig(out_dir="/elsewhere"))
        assert config_hash(base) != config_hash(RunConfig(seed=1))

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
         '{"gamma_v": 0}', '{"seed": -1}', '{"secret_hex": "00"}', "[" * 100_000],
    )
    def test_probed_config_faults_exit_2(self, text, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        code, err = calibrate_exit(str(path), "--trials", "1000")
        assert code == 2, err
        assert json.loads(err)["error"]["stage"] == "config"

    @pytest.mark.parametrize(
        "flags", [("--gamma-f", "nan"), ("--gamma-v", "0"), ("--seed", "-1"), ("--frames", "0")]
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

    def test_keygen_bits_mismatch(self, capsys):
        assert run("keygen", "--bits", "30") == 2
        capsys.readouterr()

    def test_calibrate_rejects_small_trial_count(self, capsys):
        assert run("calibrate", "--trials", "500") == 2
        capsys.readouterr()


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
        cfg = KeyConfig.from_layout(14, 4)
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
        assert run("run-pipeline", "--config", cfg, "--out", str(pipeline)) == 0
        capsys.readouterr()
        assert codes == [0] * 8
        shared = sorted(p.name for p in chain.iterdir())
        assert len(shared) == 10
        for name in shared:
            assert (chain / name).read_bytes() == (pipeline / name).read_bytes(), name


class TestCorpus:
    def test_one_batch_equals_per_video_generation(self):
        cfg = RunConfig(seed=3, train_videos=12, train_frames=5)
        dictionary, decoder, condition = toy_components(cfg)
        videos, schedules = build_corpus(
            cfg, "train", cfg.train_videos, cfg.train_frames, dictionary, decoder, condition
        )
        assert len(videos) == len(schedules) == 12
        for index, (video, schedule) in enumerate(zip(videos, schedules)):
            want = reference_generate(
                decoder, dictionary, schedule, derive_seed(cfg.seed, "train", index, "latent"),
                condition, cfg.latent_scale,
            )
            assert video.shape == (5, 3, 8, 8)
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

    def test_no_warning_when_resolvable(self, tmp_path, capsys):
        out = tmp_path / "calibration.json"
        code = run("calibrate", "--trials", "1000", "--frames", "10", "--seed", "2",
                   "--gamma-v", "0.05", "--out", str(out))
        captured = capsys.readouterr()
        assert code == 0
        assert "warning" not in captured.err
