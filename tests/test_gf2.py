"""Linear-code machinery: bit packing, cosets, nesting, covering search.

Coset leader semantics get a full brute-force comparison (enumerate
every word, group by syndrome, take the minimum by weight then by
lexicographic order) on a handful of random codes, since everything
downstream trusts the tables.
"""

import itertools
import time

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bindht.binmath import gv_distance
from bindht.errors import (
    LengthMismatchError,
    ParameterError,
    ResourceLimitError,
)
from bindht.gf2 import (
    BitMatrix,
    LinearCode,
    build_nested,
    codewords,
    coset_table,
    diagnostics,
    improve_covering,
    pack_bits,
    quantize,
    row_parities,
    sample_random_linear_code,
    syndromes,
    _popcount64,
)
from gf2_oracle import syndrome

bit_lists = st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=64)


@given(bit_lists)
def test_pack_bits_coordinate_order(bits):
    v = pack_bits(bits)
    # coordinate j is bit j, as in numpy's little-endian bit order
    assert [(v >> j) & 1 for j in range(len(bits))] == bits
    assert v >> len(bits) == 0
    little = np.packbits(np.array(bits, dtype=np.uint8), bitorder="little")
    assert v == int.from_bytes(little.tobytes(), "little")


def test_pack_bits_rejects_non_bits():
    with pytest.raises(ParameterError):
        pack_bits([0, 2, 1])


def test_sample_code_structure():
    code = sample_random_linear_code(20, 12, seed=3)
    assert (code.n, code.k) == (20, 12)
    assert code.rate == pytest.approx(0.6)
    # every generator row is a codeword of the parity check
    assert not syndromes(code, list(code.G.bits)).any()
    # determinism by seed
    again = sample_random_linear_code(20, 12, seed=3)
    assert code == again
    other = sample_random_linear_code(20, 12, seed=4)
    assert code != other


def test_repetition_code_by_hand():
    # [3,1] repetition: parity checks 011 and 101
    code = LinearCode(
        n=3, k=1,
        G=BitMatrix.from_rows([0b111], 3),
        H=BitMatrix.from_rows([0b011, 0b101], 3),
    )
    assert int(syndromes(code, 0b111)) == 0
    assert int(quantize(code, 0b110)) == 0b111
    diag = diagnostics(code)
    assert diag.spectrum == {0: 1, 3: 1}
    assert diag.covering_radius_norm == pytest.approx(1.0 / 3.0)
    assert diag.min_distance_norm == pytest.approx(1.0)


def _leader_brute(code):
    """Minimum (weight, coordinate-tuple) member of every coset."""
    best = {}
    for v in range(1 << code.n):
        s = syndrome(code, v)
        coords = tuple((v >> j) & 1 for j in range(code.n))
        key = (bin(v).count("1"), coords)
        if s not in best or key < best[s][0]:
            best[s] = (key, v)
    return {s: v for s, (key, v) in best.items()}


@pytest.mark.parametrize("n,k,seed", [(9, 4, 0), (10, 5, 1), (11, 7, 2), (8, 2, 5)])
def test_coset_leaders_match_brute_force(n, k, seed):
    code = sample_random_linear_code(n, k, seed=seed)
    want = _leader_brute(code)
    leaders, weights = coset_table(code)
    for s, v in want.items():
        assert int(leaders[s]) == v
        assert int(weights[s]) == bin(v).count("1")


def _leader_walk(code):
    """Leader table by walking weight classes in lexicographic order.

    The first class hitting a syndrome fixes its leader weight; within
    that class ties keep the smallest bit-reversed packed value, which
    orders coordinate tuples lexicographically.
    """
    size = 1 << (code.n - code.k)
    leaders = np.zeros(size, dtype=np.uint64)
    weights = np.zeros(size, dtype=np.uint8)
    revs = np.zeros(size, dtype=np.uint64)
    seen = np.zeros(size, dtype=bool)
    seen[0] = True
    remaining = size - 1
    unit_syn = [syndrome(code, 1 << j) for j in range(code.n)]
    rev_unit = [1 << (code.n - 1 - j) for j in range(code.n)]
    for w in range(1, code.n + 1):
        if not remaining:
            break
        for combo in itertools.combinations(range(code.n), w):
            s = 0
            v = 0
            rv = 0
            for j in combo:
                s ^= unit_syn[j]
                v |= 1 << j
                rv |= rev_unit[j]
            if not seen[s]:
                seen[s] = True
                leaders[s] = v
                weights[s] = w
                revs[s] = rv
                remaining -= 1
            elif weights[s] == w and rv < revs[s]:
                leaders[s] = v
                revs[s] = rv
    return leaders, weights


@pytest.mark.parametrize("n,k,seed", [
    (6, 6, 0), (12, 1, 3), (1, 1, 0), (64, 50, 0),
    (23, 14, 0), (31, 19, 0), (23, 9, 0),
])
def test_coset_table_matches_walk(n, k, seed):
    code = sample_random_linear_code(n, k, seed=seed)
    leaders, weights = coset_table(code)
    want_leaders, want_weights = _leader_walk(code)
    assert leaders.dtype == want_leaders.dtype == np.uint64
    assert weights.dtype == want_weights.dtype == np.uint8
    assert np.array_equal(leaders, want_leaders)
    assert np.array_equal(weights, want_weights)


def _coset_weights_bfs(code):
    """Minimum coset weights by a breadth-first search over syndromes:
    level w holds the syndromes first reached by adding one column of H
    to level w - 1, deduplicated with np.unique chunk by chunk."""
    cols = np.array([syndrome(code, 1 << j) for j in range(code.n)])
    dist = np.full(1 << (code.n - code.k), -1, dtype=np.int64)
    dist[0] = 0
    level = np.zeros(1, dtype=np.int64)
    w = 0
    while level.size:
        w += 1
        for lo in range(0, level.size, 4096):
            nxt = (level[lo:lo + 4096, None] ^ cols).ravel()
            dist[np.unique(nxt[dist[nxt] < 0])] = w
        level = np.flatnonzero(dist == w)
    return dist


def test_coset_table_wide_syndromes():
    # m = n - k = 20: a million syndromes, far beyond brute force
    code = sample_random_linear_code(48, 28, seed=0)
    leaders, weights = coset_table(code)
    size = 1 << 20
    assert np.array_equal(syndromes(code, leaders), np.arange(size))
    assert np.array_equal(_popcount64(leaders), weights)
    assert np.array_equal(weights, _coset_weights_bfs(code))


def _nearest_brute(code, x):
    """Nearest codeword to x, ties to the lexicographically smallest
    difference (coordinate tuples compared from coordinate 0)."""
    def key(c):
        d = c ^ x
        return (bin(d).count("1"), tuple((d >> j) & 1 for j in range(code.n)))
    return min((int(c) for c in codewords(code)), key=key)


def test_quantize_moves_to_nearest_codeword():
    for n, k, seed in ((12, 6, 9), (10, 3, 4), (9, 7, 1)):
        code = sample_random_linear_code(n, k, seed=seed)
        rng = np.random.default_rng(seed)
        words = np.concatenate([
            np.array([0, (1 << n) - 1], dtype=np.uint64),
            rng.integers(0, 1 << n, size=40, dtype=np.uint64),
        ])
        got = quantize(code, words)
        assert got.dtype == np.uint64 and got.shape == words.shape
        for x, q in zip(words.tolist(), got.tolist()):
            assert q == _nearest_brute(code, x)


def test_syndromes_vectorized_matches_scalar():
    code = sample_random_linear_code(31, 17, seed=11)
    rng = np.random.default_rng(0)
    words = rng.integers(0, 1 << 31, size=200, dtype=np.uint64)
    vec = syndromes(code, words)
    for w, s in zip(words, vec):
        assert syndrome(code, int(w)) == int(s)


def test_row_parities_single_rows():
    rows = [0b1011, 0b0110]
    out = row_parities(rows, np.array([0b1011, 0b0001], dtype=np.uint64))
    # word 0b1011: overlap 3 bits with row 0, 1 bit with row 1, both odd
    assert int(out[0]) == 0b11
    # word 0b0001: only row 0 touches bit 0
    assert int(out[1]) == 0b01


def test_coset_leader_beyond_table_bound_raises():
    # n - k = 24 exceeds the table bound; quantize reads the table, so it
    # fails at once instead of searching weight layers
    code = sample_random_linear_code(32, 8, seed=2)
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError):
        coset_table(code)
    with pytest.raises(ResourceLimitError):
        quantize(code, np.array([1 << 5, 1 << 20], dtype=np.uint64))
    assert time.perf_counter() - start < 1.0


def test_nested_code_containment():
    nested = build_nested(16, 0.75, 0.25, seed=7)
    assert nested.fine.k == 12 and nested.coarse.k == 4
    # every coarse codeword lies in the fine code
    assert not syndromes(nested.fine, codewords(nested.coarse)).any()
    # coarse syndrome = fine syndrome bits then increment bits
    m1 = np.uint64(nested.fine.H.rows)
    x = np.array([0, 0x1234, 0xFFFF, 0x0F0F], dtype=np.uint64)
    s_fine = syndromes(nested.fine, x)
    inc = row_parities(nested.delta.bits, x)
    assert np.array_equal(syndromes(nested.coarse, x), s_fine | (inc << m1))
    assert inc[1:].any()


def test_nested_rate_targets_within_one_over_n():
    for n, r1, r2 in ((16, 0.9, 0.4), (23, 0.7, 0.3), (31, 1.0, 0.6)):
        nested = build_nested(n, r1, r2, seed=1)
        assert abs(nested.fine.k / n - r1) <= 1.0 / n + 1e-12
        assert abs(nested.coarse.k / n - r2) <= 1.0 / n + 1e-12


def test_nested_increment_constant_on_coarse_cosets():
    nested = build_nested(12, 0.8, 0.4, seed=3)
    rng = np.random.default_rng(5)
    x = rng.integers(0, 1 << 12, size=20, dtype=np.uint64)
    inc = row_parities(nested.delta.bits, x)
    shifted = x[:, None] ^ codewords(nested.coarse)[None, :8]
    assert np.array_equal(
        row_parities(nested.delta.bits, shifted), np.repeat(inc[:, None], 8, 1)
    )


def test_full_space_fine_code():
    # rate 1 fine code has an empty parity check and quantize is identity
    nested = build_nested(15, 1.0, 0.4, seed=2024)
    assert nested.fine.k == 15
    assert nested.fine.H.rows == 0
    x = np.array([0b101010101010101, 0, (1 << 15) - 1], dtype=np.uint64)
    assert np.array_equal(quantize(nested.fine, x), x)


def test_improve_covering_never_hurts():
    for seed in range(5):
        code = sample_random_linear_code(24, 12, seed=seed)
        before = diagnostics(code).covering_radius_norm
        better = improve_covering(code, seed=seed)
        after = diagnostics(better).covering_radius_norm
        assert after <= before + 1e-12
        assert better.n == code.n
        # at most ceil(log2 n) basis rows were added
        assert better.k - code.k <= 5
        # the old code stays inside the improved one
        assert not syndromes(better, list(code.G.bits)).any()


def test_improve_covering_reaches_gv_slack():
    code = sample_random_linear_code(24, 12, seed=0)
    better = improve_covering(code, seed=0)
    assert diagnostics(better).covering_radius_norm <= gv_distance(0.5) + 0.15


def test_diagnostics_consistency():
    code = sample_random_linear_code(18, 9, seed=21)
    diag = diagnostics(code)
    assert sum(diag.spectrum.values()) == 1 << 9
    nonzero = [w for w in diag.spectrum if w > 0]
    assert min(nonzero) == round(diag.min_distance_norm * 18)
    _, weights = coset_table(code)
    assert int(weights.max()) == round(diag.covering_radius_norm * 18)


def test_validation_errors():
    code = sample_random_linear_code(10, 4, seed=0)
    with pytest.raises(ParameterError):
        # the two parity-check rows coincide, so syndrome 0b10 is unreachable
        LinearCode(n=3, k=1, G=BitMatrix.from_rows([0b111], 3),
                   H=BitMatrix.from_rows([0b011, 0b011], 3))
    with pytest.raises(LengthMismatchError):
        syndromes(code, 1 << 10)
    with pytest.raises(ParameterError):
        sample_random_linear_code(8, 9, seed=0)
    with pytest.raises(ParameterError):
        build_nested(16, 0.4, 0.8, seed=0)


def test_syndromes_reject_words_wider_than_n():
    code = sample_random_linear_code(15, 7, seed=0)
    assert int(syndromes(code, (1 << 15) - 1)) == syndrome(code, (1 << 15) - 1)
    for bad in (1 << 15, -1, 1 << 64,
                np.array([3, 1 << 15], dtype=np.uint64)):
        with pytest.raises(LengthMismatchError):
            syndromes(code, bad)
        with pytest.raises(LengthMismatchError):
            quantize(code, bad)
    # at n = 64 every uint64 fits; numpy's shift by 64 gives 0
    wide = sample_random_linear_code(64, 60, seed=0)
    top = (1 << 64) - 1
    assert int(syndromes(wide, top)) == syndrome(wide, top)
    words = np.array([top, 1 << 63, 0], dtype=np.uint64)
    assert syndromes(wide, words).tolist() == [
        syndrome(wide, w) for w in words.tolist()
    ]
