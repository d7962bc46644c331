"""Sequence-space arithmetic, including wraparound (property-based)."""

from hypothesis import given, strategies as st

from repro.tcp.segment import (
    SEQ_HALF, SEQ_MASK, SEQ_MOD, seq_add, seq_diff, seq_lt,
)

seqs = st.integers(0, SEQ_MOD - 1)
small = st.integers(-(2**30), 2**30)


def test_add_wraps():
    assert seq_add(SEQ_MOD - 1, 1) == 0
    assert seq_add(0, -1) == SEQ_MOD - 1


def test_diff_simple():
    assert seq_diff(10, 5) == 5
    assert seq_diff(5, 10) == -5


def test_diff_across_wrap():
    assert seq_diff(5, SEQ_MOD - 5) == 10
    assert seq_diff(SEQ_MOD - 5, 5) == -10


def test_comparisons_across_wrap():
    a = SEQ_MOD - 10
    b = 10  # "after" a in sequence space
    assert seq_lt(a, b)
    assert not seq_lt(b, a)
    assert not seq_lt(a, a)


@given(seqs, small)
def test_add_then_diff_roundtrip(a, d):
    assert seq_diff(seq_add(a, d), a) == d


@given(seqs, seqs)
def test_diff_antisymmetric(a, b):
    d = seq_diff(a, b)
    if d != -(1 << 31):  # the single ambiguous midpoint
        assert seq_diff(b, a) == -d


@given(seqs)
def test_reflexive(a):
    assert seq_diff(a, a) == 0
    assert not seq_lt(a, a)


@given(seqs, st.integers(1, 2**30))
def test_strict_order(a, d):
    b = seq_add(a, d)
    assert seq_lt(a, b)
    assert not seq_lt(b, a)


# The per-segment paths (tcp/endpoint.py, the instance's translate functions)
# spell the two primitives as mask expressions instead of calling them; the
# spellings must be the functions, over the whole space and for the negative
# intermediate values python's unbounded ints allow.
@given(seqs, seqs)
def test_mask_form_of_seq_diff(a, b):
    assert ((a - b + SEQ_HALF) & SEQ_MASK) - SEQ_HALF == seq_diff(a, b)


@given(seqs, st.integers(-(2**33), 2**33))
def test_mask_form_of_seq_add(a, n):
    assert (a + n) & SEQ_MASK == seq_add(a, n)


def test_mask_forms_at_the_edges():
    edges = [0, 1, SEQ_HALF - 1, SEQ_HALF, SEQ_HALF + 1, SEQ_MOD - 1]
    for a in edges:
        for b in edges:
            assert ((a - b + SEQ_HALF) & SEQ_MASK) - SEQ_HALF == seq_diff(a, b)
            assert (a + b) & SEQ_MASK == seq_add(a, b)
            assert (a - b) & SEQ_MASK == seq_add(a, -b)
