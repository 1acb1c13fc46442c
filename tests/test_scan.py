"""Scan engine: correctness, operand ordering, span, and work bounds."""

import functools
import itertools
import math

import numpy as np
import pytest

from pintoc import EmptySequenceError, ScanDirection, scan, scan_depth_probe, scan_plan


def fold_all(elems, op, direction):
    """Every partial left fold, one at a time: the sequential reference."""
    if direction is ScanDirection.FORWARD:
        return list(itertools.accumulate(elems, op))
    return [functools.reduce(op, elems[t:]) for t in range(len(elems))]


def test_prefix_sum_integers():
    assert scan(np.array([1, 2, 3, 4]), np.add).tolist() == [1, 3, 6, 10]


def test_reverse_string_concat_order():
    out = scan(np.array(["a", "b", "c"], dtype=object), np.add, ScanDirection.REVERSE)
    assert out.tolist() == ["abc", "bc", "c"]


@pytest.mark.parametrize("direction", list(ScanDirection))
@pytest.mark.parametrize("n", [1, 2, 3, 5, 17, 32, 33, 64, 100])
def test_parallel_matches_sequential_noncommutative(direction, n):
    # string concat is associative and non-commutative: any operand swap
    # or reordering would change the exact result
    elems = [f"<{i}>" for i in range(n)]
    out = scan(np.array(elems, dtype=object), np.add, direction)
    assert out.tolist() == fold_all(elems, lambda a, b: a + b, direction)


def test_matrix_chain_parallel_vs_sequential(rng):
    mats = [np.eye(2) + 0.3 * rng.normal(size=(2, 2)) for _ in range(64)]
    out = scan(np.stack(mats), np.matmul, ScanDirection.FORWARD)
    for a, b in zip(fold_all(mats, np.matmul, ScanDirection.FORWARD), out):
        assert np.allclose(a, b, atol=1e-10)


def test_reverse_equals_forward_of_reversed(rng):
    mats = [np.eye(3) + 0.2 * rng.normal(size=(3, 3)) for _ in range(33)]
    rev = scan(np.stack(mats), np.matmul, ScanDirection.REVERSE)
    flipped = itertools.accumulate(reversed(mats), lambda a, b: b @ a)
    for a, b in zip(rev, reversed(list(flipped))):
        assert np.allclose(a, b, atol=1e-10)


def test_empty_input_raises():
    with pytest.raises(EmptySequenceError):
        scan(np.array([]), np.add)


def test_depth_probe_trivial_cases():
    assert scan_depth_probe(1) == 0
    assert scan_depth_probe(2) == 1
    assert scan_depth_probe(1000) <= 20


def test_depth_probe_log_bound_full_range():
    for n in range(1, 1025):
        bound = 2 * math.ceil(math.log2(n)) if n > 1 else 0
        assert scan_depth_probe(n) <= bound, n


def test_work_is_linear():
    for n in range(2, 1025):
        ops = sum(len(dst) for _, dst in scan_plan(n))
        assert ops <= 4 * n


def test_combine_calls_follow_the_plan():
    # the engine runs one batched combine per level of the plan, so its
    # chain of dependent combine calls is as long as the plan is deep
    for n in range(1, 1025):
        batches = []

        def counted(a, b):
            batches.append(len(a))
            return a + b

        elems = np.arange(1, n + 1)
        out = scan(elems, counted)
        bound = 2 * math.ceil(math.log2(n)) if n > 1 else 0
        assert len(batches) == len(scan_plan(n)) <= bound, n
        assert sum(batches) <= 4 * n, n
        assert out.tolist() == list(itertools.accumulate(elems.tolist())), n


def test_exact_equality_integer_operator():
    # with an exact operator the engine must match the left fold exactly
    rng = np.random.default_rng(7)
    for n in [2, 5, 31, 64]:
        elems = rng.integers(-50, 50, size=n)
        out = scan(elems, np.add, ScanDirection.FORWARD)
        assert out.tolist() == fold_all(elems.tolist(), lambda a, b: a + b,
                                        ScanDirection.FORWARD)


def test_float_agreement_well_conditioned(rng):
    for n in [33, 50, 64]:
        mats = [np.eye(2) + 0.25 * rng.normal(size=(2, 2)) for _ in range(n)]
        out = scan(np.stack(mats), np.matmul, ScanDirection.REVERSE)
        for a, b in zip(fold_all(mats, np.matmul, ScanDirection.REVERSE), out):
            denom = max(1.0, float(np.abs(a).max()))
            assert np.abs(a - b).max() / denom < 1e-9
