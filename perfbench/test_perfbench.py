"""Quick tests of the benchmark's tracer and oracles.

Tier-1 pytest collects this file with the main suite, so it must stay fast
and must never run a workload.
"""

import time
import types
from fractions import Fraction

import numpy as np
import pytest

from oracles import (
    CheckFailure,
    ExactThresholds,
    check_assignment,
    exact_frame_threshold,
    exact_tail,
    exact_video_threshold,
    matched_bits,
)
from tracer import ID, PARENT, TraceGuardError, Tracer


def test_exact_tail_small_cases():
    assert exact_tail(3, 0, Fraction(1, 2)) == 1
    assert exact_tail(3, 2, Fraction(1, 2)) == Fraction(4, 8)
    assert exact_tail(3, 4, Fraction(1, 2)) == 0
    assert exact_tail(2, 1, Fraction(1, 3)) == 1 - Fraction(4, 9)


def test_exact_thresholds_at_the_default_config():
    tau_f, p_f = exact_frame_threshold(28, 1e-3)
    assert tau_f == 23
    assert p_f == Fraction(122438, 2**28)
    assert exact_video_threshold(25, p_f, 1e-6) == 3


def test_threshold_check_rejects_a_wrong_tau():
    thresholds = ExactThresholds(28, 1e-3, 1e-6)
    p_f = float(thresholds.p_f)
    thresholds.check(23, p_f, 3, 25)
    with pytest.raises(CheckFailure):
        thresholds.check(22, p_f, 3, 25)
    with pytest.raises(CheckFailure):
        thresholds.check(23, p_f, 4, 25)


def test_matched_bits_counts_agreements():
    expected = np.array([[1, 0, 1], [0, 0, 0]], dtype=np.uint8)
    extracted = np.array([[1, 0, 1], [1, 1, 1], [0, 0, 1]], dtype=np.uint8)
    want = (expected[:, None, :] == extracted[None, :, :]).sum(axis=2)
    np.testing.assert_array_equal(matched_bits(expected, extracted), want)


def test_check_assignment_accepts_only_an_optimum():
    counts = np.array([[3, 1], [2, 3], [0, 2]])
    check_assignment(counts, [(1, 1), (2, 2)], 6)
    with pytest.raises(CheckFailure):
        check_assignment(counts, [(1, 2), (2, 1)], 3)
    with pytest.raises(CheckFailure):
        check_assignment(counts, [(1, 1), (3, 1)], 3)


def _nested_module():
    """outer() calls inner() through the module attribute, as spdmark's
    callers do, so wrapping the attribute catches the inner call."""
    module = types.SimpleNamespace()

    def outer():
        module.inner()
        time.sleep(0.002)

    module.inner = lambda: time.sleep(0.002)
    module.outer = outer
    return module


def test_tracer_self_time_and_parents():
    module = _nested_module()
    tracer = Tracer()
    tracer.wrap(module, "outer", "outer")
    tracer.wrap(module, "inner", "inner")
    module.outer()  # outside an operation: no span
    assert tracer.spans == []
    with tracer.operation(0):
        module.outer()
    summary = tracer.summary()
    assert summary["outer"]["calls"] == 1 and summary["inner"]["calls"] == 1
    op, outer, inner = tracer.spans
    assert outer[PARENT] == op[ID] and inner[PARENT] == outer[ID]
    assert summary["outer"]["self_s"] == pytest.approx(
        summary["outer"]["busy_s"] - summary["inner"]["busy_s"]
    )
    assert summary["op"]["self_s"] < summary["outer"]["self_s"]
    tracer.uninstall()
    with tracer.operation(1):
        module.outer()
    assert len(tracer.spans) == 4  # only the new op span


def test_tracer_guard_on_missing_attribute():
    with pytest.raises(TraceGuardError):
        Tracer().wrap(types.SimpleNamespace(), "gone", "layer.gone")
