"""``to_plain``: numpy values to JSON-safe built-ins.

An integer, bool or all-finite float array converts in one ``tolist()``
call; the property test holds it to the per-element conversion it
replaced, value and ``json.dumps`` bytes, NaN / +-inf / -0.0 included.
"""

import json
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.obs.export import to_plain


def reference_to_plain(value):
    """The per-element conversion: every array element on its own."""
    if isinstance(value, np.ndarray):
        return reference_to_plain(value.tolist())
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        value = value.item()
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {str(k): reference_to_plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [reference_to_plain(v) for v in value]
    return value


def test_zero_d_arrays_become_scalars():
    assert to_plain(np.array(2.5)) == 2.5
    assert to_plain(np.array(float("nan"))) is None
    assert to_plain(np.array(-np.inf, dtype=np.float32)) is None
    assert to_plain(np.array(7, dtype=np.int16)) == 7
    assert to_plain(np.array(True)) is True


def test_non_finite_floats_become_none():
    got = to_plain(np.array([[1.5, np.nan], [np.inf, -0.0]]))
    assert got == [[1.5, None], [None, -0.0]]
    assert math.copysign(1.0, got[1][1]) == -1.0


_DTYPES = st.sampled_from(
    [np.int8, np.int64, np.uint8, np.uint64, np.bool_, np.float32, np.float64]
)
_FLOATS = st.floats(allow_nan=True, allow_infinity=True, width=32)

_arrays = _DTYPES.flatmap(
    lambda dtype: hnp.arrays(
        dtype,
        hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
        elements=_FLOATS if np.dtype(dtype).kind == "f" else None,
    )
)
_leaves = st.one_of(
    _arrays,
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-(2**40), 2**40),
    _arrays.filter(lambda a: a.ndim == 0).map(lambda a: a[()]),
)
_values = st.recursive(
    _leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(max_size=3), inner, max_size=3),
    ),
    max_leaves=8,
)


@settings(max_examples=300, deadline=None)
@given(_values)
def test_matches_the_per_element_reference(value):
    got, want = to_plain(value), reference_to_plain(value)
    assert json.dumps(got) == json.dumps(want)
    assert json.dumps(got, allow_nan=False)  # nothing JSON cannot hold
    assert repr(got) == repr(want)  # same types, -0.0 signs and all
