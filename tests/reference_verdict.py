"""Test-only oracle: the verdict as `verify` assembled it before.

`_verdict_from_matrix` is the old assembly kept verbatim, except that it
returns the verdict document the old `Verdict.to_doc()` wrote, because the
old `Verdict` stored a `valid_set` field that no longer exists.
`spdmark.verifier` now builds every verdict through one routine, and the
differential tests require it to write the same documents.  Nothing under
`src/` imports this module.
"""

from spdmark.verifier import (
    FrameEntry,
    SimilarityMatrix,
    _binomial_tail,
    frame_threshold,
    hungarian_match,
    order_accuracy,
    video_threshold,
)


def _verdict_from_matrix(sim: SimilarityMatrix, gamma_f: float, gamma_v: float) -> dict:
    tau_f, p_f = frame_threshold(sim.message_bits, gamma_f)
    assignment = hungarian_match(sim)
    tau_v = video_threshold(len(assignment.pairs), p_f, gamma_v)
    frames = []
    valid_set = []
    for pi, rho in assignment.pairs:
        matched = int(sim.matched_bits[pi - 1, rho - 1])
        passed = matched >= tau_f
        frames.append(FrameEntry(pi, rho, matched, passed))
        if passed:
            valid_set.append((pi, rho, matched))
    num_valid = len(valid_set)
    bit_acc = (
        sum(matched for _, _, matched in valid_set) / (num_valid * sim.message_bits)
        if num_valid
        else 0.0
    )
    return {
        "valid": num_valid >= tau_v,
        "tau_f": tau_f,
        "p_f": p_f,
        "tau_v": tau_v,
        "gamma_f": gamma_f,
        "gamma_v": gamma_v,
        "num_valid": num_valid,
        "bit_acc": bit_acc,
        "order_acc": order_accuracy([(pi, rho) for pi, rho, _ in valid_set]),
        "video_p_value": _binomial_tail(len(assignment.pairs), num_valid, p_f),
        "num_expected": sim.shape[0],
        "num_extracted": sim.shape[1],
        "message_bits": sim.message_bits,
        "frames": [
            {"pi": f.pi, "rho": f.rho, "matched_bits": f.matched_bits, "valid": f.valid}
            for f in frames
        ],
        "tamper": None,
    }
