"""Property-based tests: TDL reader, bench statistics, payload sizing."""

import math
import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import MIN_PAYLOAD_SIZE, payload_of_size, summarize
from repro.objects import decode, standard_registry
from repro.tdl import Keyword, Symbol, read_all, to_source

# ----------------------------------------------------------------------
# TDL reader round-trip
# ----------------------------------------------------------------------

symbol_text = st.text(string.ascii_lowercase + "-+*/<>=!?_",
                      min_size=1, max_size=8).filter(
    lambda s: not s[0].isdigit() and s not in ("t", "nil")
    and not s.startswith(":") and not any(c in s for c in "()'; \t\n\""))

atoms = st.one_of(
    st.integers(-10**9, 10**9),
    st.booleans().map(lambda b: True if b else None),
    st.text(max_size=15),
    symbol_text.map(Symbol),
    symbol_text.map(Keyword),
)

forms = st.recursive(atoms, lambda children: st.lists(children, max_size=5),
                     max_leaves=20)


@given(forms)
@settings(max_examples=300, deadline=None)
def test_reader_roundtrips_canonical_source(form):
    # ints that reparse as floats (none here) and symbol/keyword edge
    # cases are filtered by construction
    source = to_source(form)
    assert read_all(source) == [form]


@given(st.lists(forms, min_size=0, max_size=5))
@settings(max_examples=100, deadline=None)
def test_read_all_concatenation(form_list):
    source = "\n".join(to_source(f) for f in form_list)
    assert read_all(source) == form_list


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------

samples = st.lists(st.floats(min_value=-1e6, max_value=1e6,
                             allow_nan=False), min_size=1, max_size=200)


@given(samples)
@settings(max_examples=300, deadline=None)
def test_summary_invariants(values):
    summary = summarize(values)
    tol = 1e-9 * max(1.0, max(abs(v) for v in values))
    assert summary.n == len(values)
    assert summary.minimum - tol <= summary.mean <= summary.maximum + tol
    assert summary.variance >= 0
    assert summary.ci99 >= 0


@given(st.floats(-1e6, 1e6, allow_nan=False), st.integers(1, 50))
@settings(max_examples=100, deadline=None)
def test_constant_series_has_zero_spread(value, n):
    summary = summarize([value] * n)
    tol = 1e-18 * max(1.0, value * value)
    assert summary.variance <= tol     # float rounding only
    assert summary.ci99 <= math.sqrt(tol) * 100
    assert math.isclose(summary.mean, value, rel_tol=1e-12, abs_tol=1e-12)


@given(samples, st.floats(0.5, 2.0), st.floats(-100, 100))
@settings(max_examples=150, deadline=None)
def test_summary_affine_equivariance(values, scale, shift):
    base = summarize(values)
    transformed = summarize([scale * v + shift for v in values])
    assert math.isclose(transformed.mean, scale * base.mean + shift,
                        rel_tol=1e-6, abs_tol=1e-6)
    assert math.isclose(transformed.variance, scale ** 2 * base.variance,
                        rel_tol=1e-5, abs_tol=1e-4)


# ----------------------------------------------------------------------
# payload sizing
# ----------------------------------------------------------------------

@given(st.integers(MIN_PAYLOAD_SIZE, 20000))
@settings(max_examples=200, deadline=None)
def test_payload_is_exact_and_decodable(size):
    payload = payload_of_size(size)
    assert len(payload) == size
    value = decode(payload, standard_registry())
    # padding is a bytes value, or a singleton list of one at varint
    # length boundaries
    assert isinstance(value, bytes) or (
        isinstance(value, list) and len(value) == 1
        and isinstance(value[0], bytes))
