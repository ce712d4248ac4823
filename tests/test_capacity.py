from itertools import product

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from mcap.capacity import CapacityBox

caps_lists = st.lists(st.integers(0, 4), min_size=1, max_size=4)


@given(caps_lists)
@settings(max_examples=40)
def test_size_counts_every_vector(caps):
    box = CapacityBox.from_caps(caps)
    vectors = list(product(*(range(c + 1) for c in caps)))
    assert box.size == len(vectors)
    assert sorted(box.encode(v) for v in vectors) == list(range(box.size))


@given(caps_lists, st.data())
@settings(max_examples=60)
def test_iter_range_matches_product_enumeration(caps, data):
    box = CapacityBox.from_caps(caps)
    lower = [data.draw(st.integers(0, c)) for c in caps]
    got = list(box.iter_range(lower))
    expected = sorted(
        product(*(range(lo, c + 1) for lo, c in zip(lower, caps)))
    )
    assert sorted(v for _, v in got) == expected
    assert all(box.encode(v) == idx for idx, v in got)


def test_encode_rejects_out_of_range():
    box = CapacityBox.from_caps((2, 3))
    with pytest.raises(ValueError):
        box.encode((3, 0))


def test_strides_are_mixed_radix():
    box = CapacityBox.from_caps((2, 3, 1))
    assert box.strides == (1, 3, 12)
    assert box.size == 24
    assert box.encode((2, 3, 1)) == box.size - 1
