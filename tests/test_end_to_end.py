"""End-to-end checks that need a fresh process.

Each command runs as `python -m spdmark.cli` in a child process started by
tests/fresh_process.py, so no model, corpus or fit memoised by an earlier
run, and no BLAS setting of this process, reaches it.  A BLAS thread count
or kernel is set in the child's environment before it starts, since
OpenBLAS reads it only then.  Artifacts compare as bytes, and reports are
read as strict JSON.
"""

import json
import platform
import shlex
from pathlib import Path

import pytest

from fresh_process import run_cli, run_script
from strict_json import read_strict_json

README = Path(__file__).resolve().parents[1] / "README.md"

PRESCOTT = pytest.param(
    {"OPENBLAS_CORETYPE": "Prescott"},
    ["extractor.bin", "report.json"],
    marks=pytest.mark.skipif(
        platform.machine().lower() not in ("x86_64", "amd64"),
        reason="OPENBLAS_CORETYPE names x86-64 kernels",
    ),
)


def assert_same_files(left: Path, right: Path, skip=("report.json",)) -> None:
    """The two run directories hold the same files, and each one not named
    in `skip` has the same bytes in both."""
    names = sorted(path.name for path in left.iterdir())
    assert names == sorted(path.name for path in right.iterdir())
    for name in names:
        if name not in skip:
            assert (left / name).read_bytes() == (right / name).read_bytes(), (left, right, name)


def toy_run(out: Path, *flags, env=None) -> Path:
    run_cli(["run-pipeline", "--mode", "toy", *flags, "--out", out], env=env)
    return out


@pytest.fixture(scope="module")
def seed_5_run(tmp_path_factory) -> Path:
    """A fresh process's toy run at the defaults and seed 5."""
    return toy_run(tmp_path_factory.mktemp("seed-5") / "run", "--seed", "5")


@pytest.mark.parametrize("env, skip", [
    # report.json holds wall-clock runtimes.
    ({}, ["report.json"]),
    # The ridge fit's last bits follow the BLAS thread count, and
    # extractor.bin and report.json's losses carry them; every other
    # artifact must not depend on it.
    ({"OPENBLAS_NUM_THREADS": "1"}, ["extractor.bin", "report.json"]),
    # Another BLAS kernel: the decoder's products are exact, so the videos
    # must not change; the ridge fit still may.
    PRESCOTT,
], ids=["rerun", "threads-1", "prescott"])
def test_toy_rerun_is_byte_identical(seed_5_run, tmp_path, env, skip):
    assert_same_files(seed_5_run, toy_run(tmp_path / "rerun", "--seed", "5", env=env), skip)


def test_toy_runs_in_one_process_match_fresh_processes(seed_5_run, tmp_path):
    """The dictionary, decoder and training corpus are built once per
    process and shared by later runs of the same model config, so six runs
    in one process must each write what a fresh process writes.

    A seed-5 run after a seed-3 run matches a fresh seed-5 process.  Alpha
    is a per-run field of the model, so the third run, at alpha 0.5,
    reuses the dictionary and decoder, builds its own corpus, and matches a
    fresh alpha-0.5 process.  The fifth, at ridge_lambda 0.01, shares the
    fourth's default corpus but fits another extractor, and matches a fresh
    process too.  The sixth, at the defaults again, solves the normal
    equations the fifth solved, and writes what the fourth wrote."""
    alpha, ridge = tmp_path / "alpha.json", tmp_path / "ridge.json"
    alpha.write_text('{"alpha": 0.5}\n')
    ridge.write_text('{"ridge_lambda": 0.01}\n')
    fresh_alpha = toy_run(tmp_path / "fresh-alpha", "--seed", "5", "--config", alpha)
    fresh_ridge = toy_run(tmp_path / "fresh-ridge", "--config", ridge)
    runs = [["--seed", "3"], ["--seed", "5"], ["--seed", "5", "--config", str(alpha)], [],
            ["--config", str(ridge)], []]
    run_script(
        "import json, sys; from spdmark.cli import main; "
        "runs, out = json.loads(sys.argv[1]), sys.argv[2]; "
        "sys.exit(max([main(['run-pipeline', '--mode', 'toy', *run, '--out', f'{out}-{i}']) "
        "for i, run in enumerate(runs)]))",
        [json.dumps(runs), tmp_path / "inproc"],
    )
    inproc = [tmp_path / f"inproc-{i}" for i in range(len(runs))]
    assert_same_files(seed_5_run, inproc[1])
    assert_same_files(fresh_alpha, inproc[2])
    assert_same_files(fresh_ridge, inproc[4])
    assert_same_files(inproc[3], inproc[5])
    # A run makes its marked and clean videos in one forward pass; the clean
    # half must not depend on the marked half's strength, so the seed-5 runs
    # at the default alpha and at alpha 0.5 write one clean video.
    assert (inproc[1] / "clean.spdf").read_bytes() == (inproc[2] / "clean.spdf").read_bytes()
    # The ridge run's extractor is its own, not the default run's.
    extractors = [(inproc[i] / "extractor.bin").read_bytes() for i in (3, 4)]
    assert extractors[0] != extractors[1]


def test_diagnose_reads_back_in_a_fresh_process(tmp_path):
    """The verdict, tamper field included, reads back in a fresh process to
    the diagnosis the pipeline wrote."""
    run = toy_run(tmp_path / "run")
    readback = tmp_path / "readback.json"
    run_cli(["diagnose", "--verdict", run / "verdict.json", "--tamper", run / "tamper.json",
             "--out", readback])
    assert readback.read_bytes() == (run / "diagnosis.json").read_bytes()


def readme_chain() -> list:
    """The subcommand chain as README.md gives it: each line from one that
    starts `spdmark keygen ` to the next that starts `spdmark diagnose `."""
    chain, inside = [], False
    for line in README.read_text(encoding="utf-8").splitlines():
        if inside or line.startswith("spdmark keygen "):
            chain.append(line)
            inside = not (inside and line.startswith("spdmark diagnose "))
    return chain


def test_readme_chain_matches_run_pipeline(tmp_path):
    """Each stage of the README's chain runs in a fresh process and exits 0,
    and each of its ten files equals run-pipeline's under the same seed and
    attack."""
    commands = [shlex.split(line) for line in readme_chain()]
    assert len(commands) == 8
    assert all(argv[0] == "spdmark" for argv in commands)
    chain = tmp_path / "chain"
    chain.mkdir()
    for argv in commands:
        run_cli(argv[1:], cwd=chain)
    pipeline = toy_run(tmp_path / "pipeline", "--seed", "11",
                       "--attack", '{"attack": "swap_random"}')
    names = sorted(path.name for path in chain.iterdir())
    assert len(names) == 10
    for name in names:
        assert (chain / name).read_bytes() == (pipeline / name).read_bytes(), name
    # The extractor is fitted on the model's corpus, which no run seed
    # reaches: fitted at another seed it is the same file, and it verifies
    # the seed-11 video.
    run_cli(["fit-extractor", "--seed", "12", "--out", "extractor-12.bin"], cwd=chain)
    assert (chain / "extractor.bin").read_bytes() == (chain / "extractor-12.bin").read_bytes()
    run_cli(["extract", "--seed", "12", "--video", "attacked.spdf",
             "--extractor", "extractor-12.bin", "--out", "extraction-12.json"], cwd=chain)
    run_cli(["verify", "--seed", "11", "--schedule", "schedule.json",
             "--extraction", "extraction-12.json", "--tamper", "tamper.json",
             "--out", "verdict-12.json"], cwd=chain)


def test_channel_run_does_not_depend_on_blas_threads(tmp_path):
    """Forensics rows and calibration must not depend on the thread count;
    only the report's runtime block holds wall-clock time.  The reports
    compare as JSON text, where 1, 1.0 and true differ."""
    runs = [tmp_path / "channel", tmp_path / "channel-1"]
    for out, env in zip(runs, ({}, {"OPENBLAS_NUM_THREADS": "1"})):
        run_cli(["run-pipeline", "--mode", "channel", "--trials", "20", "--out", out], env=env)
    reports = [read_strict_json(out / "report.json") for out in runs]
    for report in reports:
        report.pop("runtime")
    assert json.dumps(reports[0], sort_keys=True) == json.dumps(reports[1], sort_keys=True)
    assert (runs[0] / "config.json").read_bytes() == (runs[1] / "config.json").read_bytes()


def test_calibration_does_not_depend_on_blas_threads(tmp_path):
    """The report has no runtime block, and the similarity product in BLAS
    is exact, so the thread count must not show in it.  It is strict JSON,
    and p_f is the exact tail 122438 / 2^28 rounded once."""
    reports = [tmp_path / "calibration.json", tmp_path / "calibration-1.json"]
    for out, env in zip(reports, ({}, {"OPENBLAS_NUM_THREADS": "1"})):
        run_cli(["calibrate", "--trials", "1000", "--out", out], env=env)
    assert reports[0].read_bytes() == reports[1].read_bytes()
    assert read_strict_json(reports[0])["p_f"] == 122438 / 2**28
