"""Tests for the benchmark's statistics helpers and its trace coverage check.

Run from the root of the repository:

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import functools
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import stats  # noqa: E402


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    samples = [float(v) for v in range(100)]
    tail = stats.tail(samples[::-1])
    assert tail.value == 89.0
    assert sum(v > tail.value for v in samples) == 10
    assert tail.percentile == 90.0
    assert tail.samples == 100


def test_tail_of_eleven_items_is_their_minimum():
    tail = stats.tail([5.0, 3.0, 9.0, 1.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0, 11.0])
    assert tail.value == 1.0
    assert tail.percentile == pytest.approx(100 / 11)
    assert tail.samples == 11


def test_tail_is_omitted_below_eleven_items():
    assert stats.tail([1.0] * 10) is None
    assert stats.tail([]) is None


def test_fail_frac_counts_raised_and_wrong_items():
    assert stats.fail_frac(["ok", "raised", "wrong", "ok"]) == 0.5
    assert stats.fail_frac(["ok"] * 3) == 0.0
    with pytest.raises(ValueError):
        stats.fail_frac([])


def test_self_time_subtracts_direct_children_only():
    # a [0, 10] holds b [1, 4] and d [5, 6]; b holds c [2, 3]
    parents = [-1, 0, 1, 0]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 6.0]
    assert list(stats.self_times(parents, starts, ends)) == [6.0, 2.0, 1.0, 1.0]


def test_self_times_sum_to_the_root_durations():
    parents = [-1, 0, 0, -1, 3]
    starts = [0.0, 0.5, 2.0, 4.0, 4.25]
    ends = [3.0, 1.5, 2.5, 5.0, 4.75]
    assert sum(stats.self_times(parents, starts, ends)) == pytest.approx(4.0)


def test_trace_coverage_check_finds_an_indirect_binding():
    pytest.importorskip("latticetheta")
    import tracer

    import latticetheta.kernels as kernels

    t = tracer.Tracer()
    kernels._bench_alias = functools.partial(kernels.theta2d, 1)
    try:
        assert "latticetheta.kernels._bench_alias" in t.coverage_leaks()
        with pytest.raises(tracer.CoverageError):
            t.install()
        assert kernels.theta2d is t.originals[tracer.LABELS.index("kernels.theta2d")]
    finally:
        del kernels._bench_alias
    t.install()
    try:
        assert t.coverage_leaks() == []
        assert kernels.theta2d is not t.originals[tracer.LABELS.index("kernels.theta2d")]
    finally:
        t.uninstall()
    assert kernels.theta2d is t.originals[tracer.LABELS.index("kernels.theta2d")]
