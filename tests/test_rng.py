import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stickperc.rng import combine_keys, derive_seed, mix_to_unit

UINT64 = st.integers(0, 2**64 - 1)


@pytest.mark.parametrize(
    "args, expected",
    [
        # splitmix64's first output from state 0
        ((0,), 0xE220A8397B1DCDAF),
        ((0, 1, 2), 11994755310158905061),
        ((20260810, 0x5EED), 12555643451475330938),
        # the master and every part are taken mod 2^64
        ((2**64 + 5, 3), 1051328968802242488),
        ((-1, -2), 14264321109705712831),
    ],
)
def test_derive_seed_pinned(args, expected):
    assert derive_seed(*args) == expected


@settings(max_examples=200, deadline=None)
@given(UINT64, UINT64, UINT64)
def test_derive_seed_is_order_sensitive(seed, a, b):
    if a != b:
        assert derive_seed(seed, a, b) != derive_seed(seed, b, a)


@pytest.mark.parametrize("value", [0, 7, -3, -(2**63), 2**63, 2**64 - 1])
def test_combine_keys_int_part_equals_one_element_array(value):
    # an int part and the same number as an array are folded alike, also a
    # negative int (its two's complement) and one that only fits in uint64
    array = np.array([value])
    assert combine_keys(value).item() == combine_keys(array)[0]
    assert combine_keys(11, value, 4).item() == combine_keys(11, array, 4)[0]


def test_mix_to_unit_is_a_53_bit_fraction():
    keys = np.concatenate(
        [
            np.array([0, 1, 2**63, 2**64 - 1], dtype=np.uint64),
            np.random.default_rng(1).integers(0, 2**64 - 1, size=100_000, dtype=np.uint64, endpoint=True),
        ]
    )
    u = mix_to_unit(keys)
    assert u.dtype == np.float64
    assert np.all((u >= 0.0) & (u < 1.0))
    scaled = u * 2.0**53
    assert np.array_equal(scaled, np.floor(scaled))
