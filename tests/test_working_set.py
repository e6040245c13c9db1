"""Working-set guards: how many node-length float arrays an operation
holds at its peak beyond those it returns, traced by tracemalloc (numpy
reports its array buffers to it)."""

import tracemalloc

import pytest

from multreg import (DETERMINISTIC, MeasureSpace, PowerDecay, build_problem,
                     effective_illposedness, lavrentiev, parse_config)
from multreg.analysis import sweep_deltas

N = 2**16
#: Python objects made along the way, in arrays of N doubles (26 kB)
SLACK = 0.05


def _transient_arrays(call) -> float:
    """Peak traced memory of ``call()`` above what its result still holds,
    in arrays of N doubles."""
    tracemalloc.start()
    try:
        result = call()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del result
    return (peak - held) / (8 * N)


@pytest.fixture(scope="module")
def pure_power():
    return parse_config({
        "problem": {"kind": "pure_power", "kappa": 1.5}, "scheme": "lavrentiev",
        "index_function": {"family": "power", "nu": 0.5},
        "noise": {"mode": "deterministic", "deltas": [1e-2, 1e-3, 1e-4, 1e-5, 1e-6]},
        "discretization": {"n_nodes": N}})


def test_effective_illposedness_working_set():
    # b's values with the sort's negated copy and order, then with the
    # one terms buffer and the domain side's bin index
    b, space = PowerDecay(0.5), MeasureSpace.halfline(50.0, N)
    assert _transient_arrays(lambda: effective_illposedness(b, space)) <= 6 + SLACK


def test_deterministic_sweep_working_set(pure_power):
    # b's values, the filter and the one buffer of each delta
    problem = build_problem(pure_power)
    assert _transient_arrays(lambda: sweep_deltas(
        problem, lavrentiev(), problem.phi, pure_power.deltas, DETERMINISTIC,
        1.0)) <= 3 + SLACK


def test_build_problem_working_set(pure_power):
    # a uniform grid stores no weights array, and the solution is formed
    # from the b values that clip the source element
    assert _transient_arrays(lambda: build_problem(pure_power)) <= 5 + SLACK
