"""The benchmark's workloads: inputs, one operation, output checks, digest.

Each workload is a closed loop with one client.  Operation i draws its seed
from `spdmark.cli.derive_seed(workload_seed, workload, i)`; the program only
ever receives the generated inputs.  `finish` runs outside the operation's
timed interval: it checks the output (raising `CheckFailure`) and returns
the bytes that go into the run's determinism digest.
"""

import json
import shutil
import tempfile
from pathlib import Path

import numpy as np

from oracles import CheckFailure, ExactThresholds, check_assignment, expect, matched_bits

# Forensics and calibrate outputs are checked against the oracles on every
# CHECK_EVERY-th operation, as the checks cost about one more operation;
# toy outputs are checked on every operation.
CHECK_EVERY = 10


def canonical(doc) -> bytes:
    """JSON bytes of `doc` without its non-reproducible "runtime" keys."""

    def strip(value):
        if isinstance(value, dict):
            return {k: strip(v) for k, v in value.items() if k != "runtime"}
        if isinstance(value, (list, tuple)):
            return [strip(v) for v in value]
        return value

    return json.dumps(strip(doc), sort_keys=True, separators=(",", ":")).encode()


class Toy:
    """`spdmark run-pipeline --mode toy` at the default config, cycling the
    default attack suite."""

    name = "toy"

    def __init__(self, sm, seed: int, workdir: Path):
        self.cli = sm.cli
        self.seed = seed
        self.workdir = workdir
        self.suite = [json.dumps(spec, sort_keys=True) for spec in sm.cli.DEFAULT_ATTACK_SUITE]

    def run(self, i):
        out = tempfile.mkdtemp(prefix=f"op{i}-", dir=self.workdir)
        argv = [
            "run-pipeline", "--mode", "toy",
            "--seed", str(self.cli.derive_seed(self.seed, self.name, i)),
            "--attack", self.suite[i % len(self.suite)],
            "--out", out,
        ]
        return self.cli.main(argv), Path(out)

    def finish(self, i, output) -> bytes:
        code, out = output
        try:
            expect(code == 0, f"run-pipeline exited with code {code}")
            report = json.loads((out / "report.json").read_text(encoding="utf-8"))
            expect(report.get("valid") is True, "report.json is not valid: true")
            parts = []
            for path in sorted(out.iterdir()):
                data = path.read_bytes()
                if path.name == "report.json":
                    data = canonical(report)
                parts.append(path.name.encode() + b"\0" + data)
            return b"\0".join(parts)
        finally:
            shutil.rmtree(out, ignore_errors=True)


class Forensics:
    """`forensics_table` with one trial per attack of the default suite,
    T=25, under 2% bit noise."""

    name = "forensics"

    def __init__(self, sm, seed: int, workdir: Path):
        self.sm = sm
        self.seed = seed
        self.thresholds = ExactThresholds(28, 1e-3, 1e-6)

    def config(self, i):
        return self.sm.cli.RunConfig(
            seed=self.sm.cli.derive_seed(self.seed, self.name, i),
            trials=1, num_frames=25, flip_probability=0.02,
        )

    def run(self, i):
        return self.sm.cli.forensics_table(self.config(i))

    def finish(self, i, rows) -> bytes:
        digest = canonical(rows)
        if i % CHECK_EVERY == 0:
            self._check(i, rows, digest)
        return digest

    def _check(self, i, rows, digest) -> None:
        """Replay the operation with `cli.verify` observed, then check each
        verdict against the oracles and against the row it produced."""
        cli = self.sm.cli
        observed = []
        verify = cli.verify

        def observe(expected, extracted, *args, **kwargs):
            verdict = verify(expected, extracted, *args, **kwargs)
            observed.append((expected, extracted, verdict))
            return verdict

        cli.verify = observe
        try:
            replay = cli.forensics_table(self.config(i))
        finally:
            cli.verify = verify
        expect(canonical(replay) == digest, "replaying the operation changed its output")
        expect(len(observed) == len(rows), f"{len(observed)} verdicts for {len(rows)} rows")
        for row, (expected, extracted, verdict) in zip(rows, observed):
            counts = matched_bits(
                [message.bits for message in expected], extracted.messages
            )
            pairs = [(frame.pi, frame.rho) for frame in verdict.frames]
            for frame in verdict.frames:
                expect(
                    frame.matched_bits == counts[frame.pi - 1, frame.rho - 1],
                    f"{row['attack']}: matched bits differ at {frame.pi},{frame.rho}",
                )
            check_assignment(counts, pairs, sum(f.matched_bits for f in verdict.frames))
            t = verdict.thresholds
            self.thresholds.check(t.tau_f, t.p_f, t.tau_v, len(pairs))
            passed = sum(int(counts[pi - 1, rho - 1]) >= self.thresholds.tau_f for pi, rho in pairs)
            expect(
                verdict.valid == (passed >= self.thresholds.tau_v(len(pairs))),
                f"{row['attack']}: verdict disagrees with exact thresholds",
            )
            expect(row["valid_rate"] == float(verdict.valid), f"{row['attack']}: valid_rate")
            expect(row["bit_acc"] == verdict.bit_acc, f"{row['attack']}: bit_acc")


class Calibrate:
    """`null_calibration` with one trial at M=28, T=100."""

    name = "calibrate"
    message_bits = 28
    num_frames = 100

    def __init__(self, sm, seed: int, workdir: Path):
        self.verifier = sm.verifier
        self.derive_seed = sm.cli.derive_seed
        self.seed = seed
        self.thresholds = ExactThresholds(self.message_bits, 1e-3, 1e-6)

    def run(self, i):
        return self.verifier.null_calibration(
            self.message_bits, self.num_frames, 1e-3, 1e-6, trials=1,
            seed=self.derive_seed(self.seed, self.name, i),
        )

    def finish(self, i, report) -> bytes:
        if i % CHECK_EVERY == 0:
            self._check(i, report)
        return canonical(report)

    def _check(self, i, report) -> None:
        """Rebuild the trial's messages from its documented per-trial seed,
        count matched bits independently and check the reported rates."""
        rng = np.random.default_rng([self.derive_seed(self.seed, self.name, i), 0])
        shape = (self.num_frames, self.message_bits)
        expected = rng.integers(0, 2, shape, dtype=np.uint8)
        extracted = rng.integers(0, 2, shape, dtype=np.uint8)
        counts = matched_bits(expected, extracted)
        sim = self.verifier.SimilarityMatrix(counts, self.message_bits)
        assignment = self.verifier.hungarian_match(sim)
        check_assignment(counts, assignment.pairs, assignment.total_matched)
        self.thresholds.check(report["tau_f"], report["p_f"], report["tau_v"], self.num_frames)
        tau_f = self.thresholds.tau_f
        identity = int((np.diagonal(counts) >= tau_f).sum())
        matched = sum(int(counts[pi - 1, rho - 1]) >= tau_f for pi, rho in assignment.pairs)
        expect(report["identity_pass_rate"] == identity / self.num_frames, "identity_pass_rate")
        expect(report["matched_pass_rate"] == matched / self.num_frames, "matched_pass_rate")
        expect(
            report["matched_valid_count"] == int(matched >= self.thresholds.tau_v(self.num_frames)),
            "matched_valid_count",
        )


WORKLOADS = {cls.name: cls for cls in (Toy, Forensics, Calibrate)}

__all__ = ["WORKLOADS", "CheckFailure", "canonical"]
