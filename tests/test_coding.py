"""Sequence coding: a bijection between numbers and number sequences."""

import itertools

from hypothesis import given, settings, strategies as st

from jreal.coding import (
    _pair,
    _unpair,
    decode_seq,
    encode_seq,
    pair,
    phi_join,
    phi_split,
    seq_cons,
    seq_len,
    seq_prefix,
    seq_proj,
    unpair,
)
from support import off, pair_by_offset, unpair_by_scan


def test_empty_sequence_is_zero():
    assert encode_seq([]) == 0
    assert decode_seq(0) == ()


def test_frozen_small_codes():
    # regression anchors
    assert encode_seq([0]) == 1
    assert encode_seq([0, 0]) == 2
    assert encode_seq([1]) == 4
    assert encode_seq([2]) == 5
    assert decode_seq(3) == (0, 0, 0)


def test_decode_then_encode_is_identity_exhaustive():
    for s in range(10_000):
        assert encode_seq(list(decode_seq(s))) == s


def test_encode_then_decode_is_identity_on_short_tuples():
    for length in range(4):
        for xs in itertools.product(range(7), repeat=length):
            assert decode_seq(encode_seq(list(xs))) == xs


@given(st.integers(min_value=0, max_value=10**12))
def test_decode_then_encode_is_identity(s):
    assert encode_seq(list(decode_seq(s))) == s


@given(st.lists(st.integers(min_value=0, max_value=10**9), max_size=12))
def test_encode_then_decode_is_identity(xs):
    assert list(decode_seq(encode_seq(xs))) == xs


@given(st.lists(st.integers(min_value=0, max_value=10**6), max_size=8),
       st.integers(min_value=0, max_value=10**6))
def test_split_join_roundtrip(blocks, tail):
    assert phi_split(phi_join(blocks, tail)) == (tuple(blocks), tail)


def test_code_size_is_additive():
    # ~5 bits per element of this size; nesting must not explode
    s = encode_seq([3, 1, 4, 1, 5, 9, 2, 6])
    assert s.bit_length() < 60
    nested = 0
    for _ in range(200):
        nested = encode_seq([nested])
    assert nested.bit_length() < 2500


@given(st.integers(min_value=0, max_value=10**8),
       st.integers(min_value=0, max_value=10**8))
def test_pair_unpair(a, b):
    assert unpair(pair(a, b)) == (a, b)


@given(st.lists(st.integers(min_value=0, max_value=1000), max_size=10))
def test_seq_len(xs):
    assert seq_len(encode_seq(xs)) == len(xs)


@given(st.lists(st.integers(min_value=0, max_value=1000), max_size=10),
       st.integers(min_value=0, max_value=14))
def test_seq_proj(xs, i):
    want = xs[i] if i < len(xs) else 0  # out of range reads as 0
    assert seq_proj(encode_seq(xs), i) == want


@given(st.integers(min_value=0, max_value=1000),
       st.lists(st.integers(min_value=0, max_value=1000), max_size=8))
def test_seq_cons(x, xs):
    assert decode_seq(seq_cons(x, encode_seq(xs))) == tuple([x] + xs)


@settings(max_examples=30)
@given(st.lists(st.lists(st.integers(min_value=0, max_value=50), max_size=4),
                max_size=4))
def test_nested_sequences(xss):
    s = encode_seq([encode_seq(xs) for xs in xss])
    assert [list(decode_seq(m)) for m in decode_seq(s)] == xss


def test_unpair_matches_the_scan_at_every_length_boundary():
    # the length scan starts near the answer; where off(L) is crossed it
    # must still land on the largest L with off(L) <= n
    for L in range(4097):
        for n in (off(L) - 1, off(L), off(L) + 1):
            if n >= 0:
                assert _unpair(n) == unpair_by_scan(n), n


@given(st.integers(min_value=0, max_value=2**300))
def test_unpair_matches_the_scan(n):
    assert _unpair(n) == unpair_by_scan(n)


def test_pair_matches_the_offset_form_on_small_pairs():
    for a in range(64):
        for b in range(64):
            assert _pair(a, b) == pair_by_offset(a, b), (a, b)


# codes as long as the ones certificates and kit mirrors carry; a drawn
# integer stays short, so the bits come from a seeded random, and half the
# lengths are long
def _bits(top: int):
    lengths = st.integers(min_value=0, max_value=64) | st.integers(
        min_value=top // 5, max_value=top)
    return st.builds(lambda k, rnd: rnd.getrandbits(k), lengths,
                     st.randoms(use_true_random=False))


@settings(max_examples=25, deadline=None)
@given(_bits(50_000), _bits(50_000))
def test_long_pairs_match_the_offset_form(a, b):
    p = _pair(a, b)
    assert p == pair_by_offset(a, b)
    assert _unpair(p) == (a, b)


@settings(max_examples=25, deadline=None)
@given(_bits(100_000))
def test_long_codes_unpair_as_the_scan_does(n):
    assert _unpair(n) == unpair_by_scan(n)


@given(st.integers(min_value=0, max_value=2**64), st.integers(min_value=0, max_value=4))
def test_seq_prefix_is_a_prefix_of_the_decode(s, k):
    assert seq_prefix(s, k) == decode_seq(s)[:k]
