"""Linear-code machinery: bit packing, cosets, nesting, covering search.

Coset leader semantics get a full brute-force comparison (enumerate
every word, group by syndrome, take the minimum by weight then by
lexicographic order) on a handful of random codes, since everything
downstream trusts the tables.
"""

import itertools
import random
import time

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import bindht.gf2
from bindht.binmath import binary_entropy, gv_distance
from bindht.errors import (
    LengthMismatchError,
    ParameterError,
    ResourceLimitError,
)
from bindht.gf2 import (
    BitMatrix,
    LinearCode,
    NestedCode,
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
    _byte_tables,
    _popcount64,
    _xor_view,
)
from gf2_oracle import leader_data_bfs, syndrome

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
    # [3,1] repetition: parity checks 011 and 101, derived from G
    code = LinearCode(BitMatrix.from_rows([0b111], 3))
    assert (code.n, code.k) == (3, 1)
    assert code.H.bits == (0b011, 0b101)
    assert int(syndromes(code, 0b111)) == 0
    assert int(quantize(code, 0b110)) == 0b111
    diag = diagnostics(code)
    assert diag.spectrum == {0: 1, 3: 1}
    assert diag.covering_radius_norm == pytest.approx(1.0 / 3.0)
    assert diag.min_distance_norm == pytest.approx(1.0)


def _rank_brute(rows, n):
    """Rank over GF(2) by Gaussian elimination on the bit lists of the rows."""
    m = [[(r >> j) & 1 for j in range(n)] for r in rows]
    rank = 0
    for col in range(n):
        hit = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if hit is None:
            continue
        m[rank], m[hit] = m[hit], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][col]:
                m[i] = [a ^ b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


@pytest.mark.parametrize("n", [1, 2, 8, 23, 64])
def test_parity_check_is_derived_from_the_generator(n):
    # H is a basis of the dual code: every generator row has zero
    # syndrome and H has rank n - k, down to an empty H at k = n
    rng = np.random.default_rng(n)
    for k in range(1, n + 1):
        code = sample_random_linear_code(n, k, seed=rng)
        assert code.H.rows == n - k and code.H.cols == n
        assert [syndrome(code, g) for g in code.G.bits] == [0] * k
        assert _rank_brute(code.H.bits, n) == n - k


def test_linear_code_refuses_empty_and_rank_deficient_generators():
    with pytest.raises(ParameterError, match="k=0"):
        LinearCode(BitMatrix.from_rows([], 5))
    for rows in ([0], [0b101, 0b011, 0b110], [0b1001] * 2):
        with pytest.raises(ParameterError, match="rank deficient"):
            LinearCode(BitMatrix.from_rows(rows, 4))


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


@pytest.mark.parametrize("n", [60, 64])
def test_coset_table_matches_bfs_at_wide_blocklengths(n):
    # m = n - k = 20 at blocklengths too wide for weight and rho to share
    # one uint64 key, so the build may not rely on one
    code = sample_random_linear_code(n, n - 20, seed=0)
    leaders, weights = coset_table(code)
    want_leaders, want_weights = leader_data_bfs(code)
    assert np.array_equal(leaders, want_leaders)
    assert np.array_equal(weights, want_weights)


@st.composite
def _codes(draw):
    """Codes with n <= 64 and n - k <= 14.  Leading generator rows may be
    unit vectors (a zero column syndrome) or pairs (two equal columns);
    random rows fill G up to rank k."""
    n = draw(st.integers(1, 64))
    k = draw(st.integers(max(1, n - 14), n))
    coord = st.integers(0, n - 1)
    special = draw(st.lists(
        st.tuples(coord, coord).map(lambda p: 1 << p[0] | 1 << p[1]),
        max_size=3,
    ))
    rand = random.Random(draw(st.integers(0, 2**32 - 1)))
    rows, basis = [], {}  # basis: top bit -> reduced row
    for v in itertools.chain(special, iter(lambda: rand.getrandbits(n), None)):
        r = v
        while r and r.bit_length() in basis:
            r ^= basis[r.bit_length()]
        if r:
            basis[r.bit_length()] = r
            rows.append(v)
        if len(rows) == k:
            return LinearCode(BitMatrix.from_rows(rows, n))


@settings(deadline=None)
@given(_codes())
def test_coset_table_matches_bfs_reference(code):
    leaders, weights = coset_table(code)
    want_leaders, want_weights = leader_data_bfs(code)
    assert np.array_equal(leaders, want_leaders)
    assert np.array_equal(weights, want_weights)


@given(st.integers(1, 12), st.integers(0, 2**12 - 1))
def test_xor_view_reads_the_table_at_s_xor_c(m, c):
    c %= 1 << m
    table = np.arange(1 << m).reshape((2,) * m)
    want = np.arange(1 << m) ^ c
    assert np.array_equal(_xor_view(table, c).ravel(), want)


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


def _ref_row_parities(rows, words):
    """One SWAR popcount pass per row, the loop the byte tables replace."""
    words = np.asarray(words, dtype=np.uint64)
    out = np.zeros(words.shape, dtype=np.uint64)
    for i, h in enumerate(rows):
        bit = _popcount64(words & np.uint64(h)) & np.uint64(1)
        out |= bit << np.uint64(i)
    return out


word_values = st.one_of(
    st.sampled_from([0, 2**64 - 1]),
    st.integers(min_value=0, max_value=2**16 - 1),  # high bytes zero
    st.integers(min_value=0, max_value=2**64 - 1),
)


@given(
    st.lists(st.integers(min_value=0, max_value=2**64 - 1), max_size=22),
    st.lists(word_values, min_size=1, max_size=16),
)
@example([], [0, 2**64 - 1])
@example([1 << 63, 0xFF, 1], [2**64 - 1, 1 << 63, 0x80, 0])
def test_row_parities_match_per_row_loop(rows, words):
    arr = np.array(words, dtype=np.uint64)
    # a Python int, a 0-d array, a 1-D array and a 2-D array
    for w in (words[0], arr[0:1].reshape(()), arr, arr[:, None] ^ arr[None, :]):
        got, want = row_parities(rows, w), _ref_row_parities(rows, w)
        assert got.dtype == np.uint64 and got.shape == want.shape
        assert np.array_equal(got, want)


def test_byte_tables_are_read_only():
    code = sample_random_linear_code(20, 9, seed=1)
    tables = _byte_tables(code.H.bits)
    # one table per byte of the 20-bit rows, shared by every later call
    assert tables.shape == (3, 256)
    assert _byte_tables(code.H.bits) is tables
    with pytest.raises(ValueError):
        tables[0, 1] = 0


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


def test_nested_code_refuses_non_subcode():
    nested = build_nested(12, 0.75, 0.25, seed=1)
    assert NestedCode(nested.fine, nested.coarse) == nested
    # swapped, the larger code has a generator row outside the smaller one
    with pytest.raises(ParameterError, match="not a subcode"):
        NestedCode(fine=nested.coarse, coarse=nested.fine)
    other = sample_random_linear_code(12, 3, seed=4)
    assert syndromes(nested.fine, codewords(other)).any()
    with pytest.raises(ParameterError, match="not a subcode"):
        NestedCode(nested.fine, other)


def test_nested_rate_targets_within_one_over_n():
    for n, r1, r2 in ((16, 0.9, 0.4), (23, 0.7, 0.3), (31, 1.0, 0.6)):
        nested = build_nested(n, r1, r2, seed=1)
        assert abs(nested.fine.k / n - r1) <= 1.0 / n + 1e-12
        assert abs(nested.coarse.k / n - r2) <= 1.0 / n + 1e-12


@pytest.mark.parametrize(
    "n,r1,r2,seed", [(12, 0.8, 0.4, 3), (16, 0.75, 0.25, 7), (13, 1.0, 0.5, 2)]
)
def test_nested_message_alphabet(n, r1, r2, seed):
    # the one-sided message is the coarse syndrome of a fine codeword:
    # it takes exactly 2^(k1 - k2) values, each on one whole coarse coset
    nested = build_nested(n, r1, r2, seed=seed)
    fine_cw = codewords(nested.fine)
    msg = syndromes(nested.coarse, fine_cw)
    values, counts = np.unique(msg, return_counts=True)
    assert len(values) == 1 << (nested.fine.k - nested.coarse.k)
    assert (counts == 1 << nested.coarse.k).all()
    shifted = fine_cw[::7, None] ^ codewords(nested.coarse)[None, :]
    assert (syndromes(nested.coarse, shifted) == msg[::7, None]).all()


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


def _span_size(rows):
    span = {0}
    for g in rows:
        span |= {w ^ g for w in span}
    return len(span)


def test_sample_code_takes_first_full_rank_draw(monkeypatch):
    # at n = k = 4 about 2/3 of the draws are rank deficient; the code
    # is the first full-rank draw of the seed's stream, and each draw is
    # eliminated once, by LinearCode itself
    calls = []
    rref = bindht.gf2._rref

    def counted(rows, cols):
        calls.append(rows)
        return rref(rows, cols)

    monkeypatch.setattr(bindht.gf2, "_rref", counted)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        draws = 0
        while True:
            draws += 1
            rows = [pack_bits(rng.integers(0, 2, size=4)) for _ in range(4)]
            if _span_size(rows) == 16:
                break
        calls.clear()
        code = sample_random_linear_code(4, 4, seed=seed)
        assert code.G.bits == tuple(rows)
        assert len(calls) == draws


def _reference_fine_rows(n, k1, k2, seed, rref):
    # the original extension rule: a draw joins the fine rows, at the
    # top, when a full elimination finds it outside their span
    rng = np.random.default_rng(seed)
    rows = list(sample_random_linear_code(n, k2, rng).G.bits)
    while len(rows) < k1:
        v = pack_bits(rng.integers(0, 2, size=n))
        if len(rref(rows + [v], n)[0]) == len(rows) + 1:
            rows.insert(0, v)
    return rows


@pytest.mark.parametrize("n,r1,r2", [
    (27, 1.0 - binary_entropy(0.05), 0.7 - binary_entropy(0.05)),
    (23, 1.0 - binary_entropy(0.05), 0.4 - binary_entropy(0.05)),
    (23, 0.4, 0.4), (23, 1.0, 0.4),
])
def test_nested_extension_keeps_the_draws(monkeypatch, n, r1, r2):
    # the fine rows are the draws the full elimination accepts (at rate
    # 1 the last draws are often in the span); one elimination of the
    # coarse rows serves every extension candidate
    calls = []
    rref = bindht.gf2._rref

    def counted(rows, cols):
        calls.append(len(rows))
        return rref(rows, cols)

    monkeypatch.setattr(bindht.gf2, "_rref", counted)
    for seed in [*range(40), *range(1_000_000, 1_000_010)]:
        calls.clear()
        nested = build_nested(n, r1, r2, seed=seed)
        k1, k2 = nested.fine.k, nested.coarse.k
        want = _reference_fine_rows(n, k1, k2, seed, rref)
        assert nested.fine.G.bits == tuple(want), seed
        assert nested.coarse.G.bits == tuple(want[k1 - k2:]), seed
        # LinearCode(fine) is the one elimination of more than k2 rows
        assert sum(rows > k2 for rows in calls) == (k1 > k2), seed


def test_validation_errors():
    code = sample_random_linear_code(10, 4, seed=0)
    with pytest.raises(ParameterError):
        # the two generator rows coincide, so G has rank 1, not 2
        LinearCode(BitMatrix.from_rows([0b111, 0b111], 3))
    with pytest.raises(LengthMismatchError):
        syndromes(code, 1 << 10)
    with pytest.raises(ParameterError):
        sample_random_linear_code(8, 9, seed=0)
    with pytest.raises(ParameterError):
        build_nested(16, 0.4, 0.8, seed=0)


edge_values = st.sampled_from([0, -1, 2.5, 3.5, float("nan"), float("inf"),
                               -float("inf"), "a", None])
edge_words = st.one_of(
    edge_values, st.floats(), st.integers(min_value=-2**65, max_value=2**65)
)
edge_dims = st.one_of(edge_values, st.floats(), st.integers(-3, 24))


@given(edge_words, edge_dims, edge_dims)
@example(3.5, 5, 2.5)
@example(float("nan"), 5.0, 2)
@example("a", 24, 24)
def test_gf2_inputs_end_in_an_answer_or_a_clear_error(word, n, k):
    code = sample_random_linear_code(12, 5, seed=0)
    if type(word) is int and 0 <= word < 1 << 12:
        assert int(syndromes(code, word)) == syndrome(code, word)
        assert syndrome(code, int(quantize(code, word))) == 0
    else:
        err = LengthMismatchError if type(word) is int else ParameterError
        for bad in (word, [1, word], np.array([word])):
            with pytest.raises(err):
                syndromes(code, bad)
            with pytest.raises(err):
                quantize(code, bad)
    if type(n) is int and type(k) is int and 1 <= k <= n:
        code = sample_random_linear_code(n, k, seed=0)
        assert (code.n, code.k) == (n, k)
    else:
        with pytest.raises(ParameterError):
            sample_random_linear_code(n, k, seed=0)


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
