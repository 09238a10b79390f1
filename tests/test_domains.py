"""The domain contract of the public surface: each call returns a finite result or raises ValueError.

Every callable in the ``__all__`` of bounds, numerics, combinatorics, channels
and oracle that takes a probability (``p``, ``p_d``, ``p_e``, ``p_i``), a
noise scale (``sigma``), a block length (``n``) or a seed is called with those
parameters at the edges of their domains, and every other parameter at a
valid value; so is the one row of ``bounds._BOUNDS`` that no public callable
names.  New surface is covered without a new test, once its other
parameters have a value in ``VALID``.

Pre-registered budget: ``MAX_EXAMPLES`` drawn points per callable, derandomized,
and the module's run under about 10 s.
"""

import dataclasses
import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from synchan import bounds, channels, combinatorics, numerics, oracle
from synchan.bounds import ChannelParams
from synchan.channels import RngState
from synchan.oracle import OracleResourceError

DOMAIN_PARAMETERS = ("p", "p_d", "p_e", "p_i", "sigma", "n", "seed")
MAX_EXAMPLES = 40

# a valid value of each parameter the callables take that has no default, or one not to use; every
# call gets a fresh RngState
VALID = {
    "p": 0.3,
    "p_d": 0.1,
    "p_e": 0.05,
    "p_i": 0.1,
    "sigma": 0.8,
    "n": 5,
    "bits": (0, 1, 1, 0, 1),
    "l": 2,
    "j": 2,
    "lo": 1,
    "hi": 2,
    "method": "deletion",
    "params": ChannelParams.deletion(0.1),
    "samples": 100_000,  # the smallest the Monte-Carlo check takes
    "seed": 0,
}

# the ends of [0, 1] and the floats next to them, the non-finite floats, a flag, a NumPy
# integer, a non-integer and a string
EDGES = [0, 1, 5e-324, 1 - 2**-53, 1 + 2**-52, -0.0, math.nan, math.inf, -math.inf, True]
EDGES += [np.int64(1), 2.5, "0"]

# The callables that read the pattern gain build arrays of length n (the binomial pmf, the log-factorials),
# so from n = 10^8 on they run out of memory, until the pattern gain has a closed form (ROADMAP,
# item 2); every callable is called at n = 10^4.  Those whose cost does not grow with n, and the
# oracles, which refuse an n beyond their enumeration budget first, are also called at n = 2^62,
# at 2^1000, the largest block length the closed forms take, and at 10^400, beyond float range.
LARGE_N = 10**4
HUGE_N = [2**62, 2**1000, 10**400]
FLAT_IN_N = {
    "bounds.deletion_bound_small_p",
    "bounds.deletion_small_p_coefficients",
    "bounds.random_insertion_bound",
    "bounds.evaluate_bound('random_insertion_exact')",
    "bounds.random_insertion_bound_small_p",
    "bounds.insertion_small_p_coefficients",
    "combinatorics.expected_run_count",
    "combinatorics.single_insertion_log_weight",
    "combinatorics.single_insertion_log_weight_exact",
    "oracle.deletion_output_multiplicities",
    "oracle.insertion_output_multiplicities",
    "oracle.exact_deletion_substitution_entropies",
    "oracle.exact_insertion_entropies",
}

# a result record holds what it is given
RECORDS = {"oracle.EntropyReport"}


def _surface() -> dict:
    """Each public callable of the five modules that takes a domain parameter, by module-qualified name."""
    found = {}
    for module in (bounds, numerics, combinatorics, channels, oracle):
        for attr in module.__all__:
            fn = getattr(module, attr)
            name = f"{module.__name__.rsplit('.', 1)[1]}.{attr}"
            if name in RECORDS or isinstance(fn, type) and issubclass(fn, Exception):
                continue
            if callable(fn) and set(inspect.signature(fn).parameters) & set(DOMAIN_PARAMETERS):
                found[name] = fn
    return found


SURFACE = _surface()
# the one row of bounds._BOUNDS that no public callable names, the exact-weight insertion
# bound, at its probability through evaluate_bound
SURFACE["bounds.evaluate_bound('random_insertion_exact')"] = lambda p_i, n: bounds.evaluate_bound(
    "random_insertion_exact", ChannelParams.insertion(p_i), n
)


def _edges(name: str, parameter: str) -> list:
    if parameter == "seed":
        return EDGES + [-1, 2**128]  # a seed is any integer >= 0
    if parameter != "n":
        return EDGES
    return EDGES + [LARGE_N] + (HUGE_N if name in FLAT_IN_N else [])


def _finite(value) -> bool:
    """Whether every number in ``value``, a result of the public surface, is finite."""
    if value is None or isinstance(value, (bool, np.bool_, int, np.integer, str, RngState)):
        return True
    if isinstance(value, (float, np.floating)):
        return math.isfinite(value)
    if isinstance(value, np.ndarray):
        return value.dtype.kind in "biu" or bool(np.isfinite(value).all())
    if dataclasses.is_dataclass(value):
        return all(_finite(getattr(value, field.name)) for field in dataclasses.fields(value))
    if isinstance(value, dict):
        return all(_finite(key) and _finite(item) for key, item in value.items())
    if isinstance(value, (tuple, list)):
        return all(map(_finite, value))
    raise TypeError(f"no finiteness rule for {type(value).__name__}")


def _check(name: str, point: dict) -> None:
    """Call ``name`` at ``point`` and the valid values; a finite result or a ValueError passes."""
    fn = SURFACE[name]
    parameters = inspect.signature(fn).parameters
    arguments = {parameter: VALID[parameter] for parameter in parameters if parameter in VALID} | point
    if "rng" in parameters:
        arguments["rng"] = RngState(0)
    try:
        result = fn(**arguments)
    except ValueError:
        return
    except OracleResourceError:
        # an oracle's declared enumeration budget, checked before any enumeration
        assert name.startswith("oracle.") and arguments["n"] >= LARGE_N, (name, point)
        return
    assert _finite(result), (name, point)


def test_every_module_is_reached():
    modules = {"bounds", "channels", "combinatorics", "numerics", "oracle"}
    assert {name.split(".")[0] for name in SURFACE} == modules
    assert FLAT_IN_N <= set(SURFACE)


@pytest.mark.parametrize("name", sorted(SURFACE))
def test_each_edge_alone(name):
    for parameter in DOMAIN_PARAMETERS:
        if parameter in inspect.signature(SURFACE[name]).parameters:
            for edge in _edges(name, parameter):
                _check(name, {parameter: edge})


@pytest.mark.parametrize("name", sorted(SURFACE))
@settings(max_examples=MAX_EXAMPLES, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_edges_together(name, data):
    parameters = inspect.signature(SURFACE[name]).parameters
    point = {
        parameter: data.draw(st.sampled_from([VALID[parameter], *_edges(name, parameter)]), label=parameter)
        for parameter in DOMAIN_PARAMETERS
        if parameter in parameters
    }
    _check(name, point)
