"""GF(2) linear codes: syndromes, coset leaders, quantizers, nesting.

Words and matrix rows are packed with bit j holding coordinate j, so
XOR is vector addition and a popcount is the Hamming weight.  Rows are
plain Python ints; words are uint64, and `syndromes`, `quantize` and
`row_parities` take an int or an array of words.  The parity check of
a code fixes a syndrome map s(x) = x H^T whose bit i is the parity of
row i against x.  Coset leaders (minimum-weight coset members, ties to
the lexicographically smallest vector) come from a table built by a
breadth-first search over the syndrome space, cached per code.

``build_nested`` draws a pair of codes sharing generator rows so the
coarse code is a subcode of the fine one; the coarse parity check is
arranged as the fine rows followed by the difference rows, which makes
the coarse syndrome of x literally the pair (fine syndrome, increment).
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    LengthMismatchError,
    ParameterError,
    ResourceLimitError,
    SamplingFailureError,
)

#: widest syndrome for which the full leader table is materialized
_TABLE_BITS = 22

#: frontier syndromes expanded at once by the leader-table search
_BFS_CHUNK = 1024

#: largest code dimension for exhaustive spectrum enumeration
_SPECTRUM_DIM = 24

_SAMPLE_TRIES = 1000


def pack_bits(bits):
    """Pack an iterable of 0/1 coordinates into an int, coordinate 0 first."""
    value = 0
    for j, b in enumerate(bits):
        if b not in (0, 1):
            raise ParameterError(f"bit {j} is {b!r}, expected 0 or 1")
        value |= int(b) << j
    return value


@dataclass(frozen=True)
class BitMatrix:
    """Binary matrix with one packed int per row (bit j = column j)."""

    rows: int
    cols: int
    bits: tuple

    def __post_init__(self):
        if self.cols < 1:
            raise ParameterError(f"cols={self.cols} must be positive")
        if self.rows < 0 or len(self.bits) != self.rows:
            raise ParameterError(
                f"expected {self.rows} packed rows, got {len(self.bits)}"
            )
        for r in self.bits:
            if r < 0 or r >> self.cols:
                raise ParameterError(
                    f"row {r:#x} does not fit in {self.cols} columns"
                )

    @classmethod
    def from_rows(cls, rows, cols):
        return cls(len(rows), cols, tuple(int(r) for r in rows))


def _rank(rows):
    """Rank over GF(2) by elimination on packed rows."""
    basis = []
    for r in rows:
        _basis_insert(basis, int(r))
    return len(basis)


def _basis_insert(basis, r):
    """Reduce r against a descending echelon basis; insert if nonzero.

    Returns the reduced value (zero when r was already in the span).
    """
    for b in basis:
        r = min(r, r ^ b)
    if r:
        basis.append(r)
        basis.sort(reverse=True)
    return r


def _rref(rows, cols):
    """Reduced row echelon form; returns (rows, pivot column per row).

    Pivots are chosen at the lowest set bit so the result is canonical
    for the coordinate order used by pack_bits.
    """
    work = [int(r) for r in rows if r]
    out = []
    pivots = []
    for col in range(cols):
        mask = 1 << col
        hit = next((i for i, r in enumerate(work) if r & mask), None)
        if hit is None:
            continue
        row = work.pop(hit)
        work = [r ^ row if r & mask else r for r in work]
        out = [r ^ row if r & mask else r for r in out]
        out.append(row)
        pivots.append(col)
    return out, pivots


def _parity_check(gen_rows, n, k):
    """Parity-check rows for a full-rank k x n generator."""
    rref, pivots = _rref(gen_rows, n)
    if len(rref) != k:
        raise ParameterError("generator rows are not independent")
    free = [c for c in range(n) if c not in pivots]
    rows = []
    for f in free:
        r = 1 << f
        for g, p in zip(rref, pivots):
            if (g >> f) & 1:
                r |= 1 << p
        rows.append(r)
    return BitMatrix.from_rows(rows, n)


@dataclass(frozen=True)
class LinearCode:
    """[n, k] binary linear code with generator G and parity check H."""

    n: int
    k: int
    G: BitMatrix
    H: BitMatrix

    def __post_init__(self):
        if not (1 <= self.k <= self.n):
            raise ParameterError(f"need 1 <= k <= n, got k={self.k} n={self.n}")
        if self.G.rows != self.k or self.G.cols != self.n:
            raise ParameterError("generator shape mismatch")
        if self.H.rows != self.n - self.k or self.H.cols != self.n:
            raise ParameterError("parity-check shape mismatch")
        if _rank(self.G.bits) != self.k:
            raise ParameterError("generator is rank deficient")
        if _rank(self.H.bits) != self.n - self.k:
            raise ParameterError("parity check is rank deficient")
        for g in self.G.bits:
            for h in self.H.bits:
                if (g & h).bit_count() & 1:
                    raise ParameterError("G H^T != 0")

    @property
    def rate(self):
        return self.k / self.n


@dataclass(frozen=True)
class NestedCode:
    """Coarse subcode of a fine code, with the syndrome-increment rows.

    The coarse parity check is the fine parity check stacked over
    ``delta``, so a coarse syndrome splits as low fine-syndrome bits
    followed by the increment bits.
    """

    fine: LinearCode
    coarse: LinearCode
    delta: BitMatrix

    def __post_init__(self):
        if self.fine.n != self.coarse.n:
            raise ParameterError("blocklength mismatch between the two codes")
        if self.delta.rows != self.fine.k - self.coarse.k:
            raise ParameterError("delta must have k1 - k2 rows")
        if self.coarse.H.bits[: self.fine.H.rows] != self.fine.H.bits:
            raise ParameterError("coarse parity check must extend the fine one")
        if self.coarse.H.bits[self.fine.H.rows:] != self.delta.bits:
            raise ParameterError("coarse parity check must end with delta")


@dataclass(frozen=True)
class CodeDiagnostics:
    """Normalized distance figures and the exact weight spectrum."""

    min_distance_norm: float
    covering_radius_norm: float
    spectrum: dict


def sample_random_linear_code(n, k, seed=None):
    """Uniform random full-rank [n, k] code; rejection on rank failure."""
    if not (1 <= k <= n):
        raise ParameterError(f"need 1 <= k <= n, got k={k} n={n}")
    rng = np.random.default_rng(seed)
    for _ in range(_SAMPLE_TRIES):
        rows = [pack_bits(rng.integers(0, 2, size=n)) for _ in range(k)]
        if _rank(rows) == k:
            gen = BitMatrix.from_rows(rows, n)
            return LinearCode(n, k, gen, _parity_check(rows, n, k))
    raise SamplingFailureError(
        f"no full-rank {k}x{n} generator in {_SAMPLE_TRIES} draws"
    )


def row_parities(rows, words):
    """Apply a bit matrix to packed words; output bit i is <rows[i], word>."""
    words = np.asarray(words, dtype=np.uint64)
    out = np.zeros(words.shape, dtype=np.uint64)
    for i, h in enumerate(rows):
        bit = _popcount64(words & np.uint64(h)) & np.uint64(1)
        out |= bit << np.uint64(i)
    return out


def syndromes(code, words):
    """Syndrome x H^T of each packed word; bit i from parity-check row i.

    Takes an int or an array of them and raises LengthMismatchError for
    a word that does not fit in n bits.
    """
    try:
        words = np.asarray(words, dtype=np.uint64)
        fits = not np.any(words >> np.uint64(code.n))
    except OverflowError:  # a negative int, or one wider than 64 bits
        fits = False
    if not fits:
        raise LengthMismatchError(f"a word does not fit in {code.n} bits")
    return row_parities(code.H.bits, words)


def _popcount64(v):
    """SWAR popcount of a uint64 array."""
    v = np.asarray(v, dtype=np.uint64)
    m1 = np.uint64(0x5555555555555555)
    m2 = np.uint64(0x3333333333333333)
    m4 = np.uint64(0x0F0F0F0F0F0F0F0F)
    h01 = np.uint64(0x0101010101010101)
    v = v - ((v >> np.uint64(1)) & m1)
    v = (v & m2) + ((v >> np.uint64(2)) & m2)
    v = (v + (v >> np.uint64(4))) & m4
    # the ufunc wraps without the overflow warning of scalar arithmetic,
    # which a 0-d input would otherwise get
    return np.multiply(v, h01) >> np.uint64(56)


@lru_cache(maxsize=32)
def _leader_data(code):
    """Leader table (packed leaders, weights) indexed by syndrome.

    Leaders minimize (weight, rho), where rho(v) = sum over j in v of
    2^(n-1-j) is the bit-reversed packed value, whose order is the
    lexicographic order of coordinate tuples.  The table is filled by a
    breadth-first search over the syndrome space: level w starts from
    the syndromes first reached at weight w - 1, each holding its least
    rho, and every such syndrome s proposes s ^ c_j with
    rho(s) | 2^(n-1-j) for every unit syndrome c_j.  Each syndrome not
    yet reached keeps the least proposal; reached syndromes are masked
    out, since a heavier word can have a smaller rho.

    The search is exact because rho is additive over disjoint
    coordinates.  Let L be the least weight-w member of coset t and take
    j in L.  Then t ^ c_j has minimum weight exactly w - 1, and L - {j}
    is its least member: a smaller weight-(w - 1) member M would give
    the smaller member M + {j} of t when j is not in M, and the
    weight-(w - 2) member M - {j} of t when it is.  So L itself is
    proposed from level w - 1, and every unmasked proposal is a
    weight-w member of its coset.  The frontier is processed in chunks,
    so transient memory is O(chunk * n) on top of the tables.
    """
    n = code.n
    if n > 64:
        raise ResourceLimitError("leader tables support blocklengths up to 64")
    size = 1 << (n - code.k)
    units = np.uint64(1) << np.arange(n, dtype=np.uint64)
    unit_syn = syndromes(code, units).astype(np.intp)
    rev_unit = units[::-1]
    rho = np.full(size, np.iinfo(np.uint64).max, dtype=np.uint64)
    rho[0] = 0
    weights = np.zeros(size, dtype=np.uint8)
    reached = np.zeros(size, dtype=bool)
    reached[0] = True
    frontier = np.zeros(1, dtype=np.intp)
    remaining = size - 1
    w = 0
    # H has full rank (LinearCode checks it), so every syndrome is reached
    while remaining:
        w += 1
        for lo in range(0, frontier.size, _BFS_CHUNK):
            rows = frontier[lo:lo + _BFS_CHUNK]
            t = (rows[:, None] ^ unit_syn).ravel()
            keep = ~reached[t]
            t = t[keep]
            props = (rho[rows][:, None] | rev_unit).ravel()[keep]
            np.minimum.at(rho, t, props)
            weights[t] = w
        frontier = np.flatnonzero(weights == w)
        reached[frontier] = True
        remaining -= frontier.size
    # reversing the bits of rho in place turns it into the packed
    # leaders: swap adjacent bits, then pairs, then nibbles, then bytes,
    # and drop the 64 - n unused low bits
    scratch = np.empty_like(rho)
    for shift, mask in ((1, 0x5555555555555555), (2, 0x3333333333333333),
                        (4, 0x0F0F0F0F0F0F0F0F)):
        shift, mask = np.uint64(shift), np.uint64(mask)
        np.right_shift(rho, shift, out=scratch)
        scratch &= mask
        rho &= mask
        rho <<= shift
        rho |= scratch
    rho.byteswap(inplace=True)
    rho >>= np.uint64(64 - n)
    return rho, weights


def coset_table(code):
    """(leaders, weights) arrays for every syndrome; cached per code."""
    if code.n - code.k > _TABLE_BITS:
        raise ResourceLimitError(
            f"leader table needs n - k <= {_TABLE_BITS}, got {code.n - code.k}"
        )
    return _leader_data(code)


def quantize(code, words):
    """Nearest codeword of each word: subtract its coset leader.

    Ties go to the lexicographically smallest leader.  Raises
    ResourceLimitError where `coset_table` does.
    """
    leaders, _ = coset_table(code)
    return leaders[syndromes(code, words)] ^ np.asarray(words, dtype=np.uint64)


def codewords(code):
    """All 2^k codewords as a uint64 array (doubling over generator rows)."""
    if code.k > _SPECTRUM_DIM:
        raise ResourceLimitError(
            f"codeword enumeration needs k <= {_SPECTRUM_DIM}, got {code.k}"
        )
    cw = np.zeros(1, dtype=np.uint64)
    for g in code.G.bits:
        cw = np.concatenate([cw, cw ^ np.uint64(g)])
    return cw


def diagnostics(code):
    """Exact spectrum, minimum distance, and covering radius."""
    wts = _popcount64(codewords(code))
    values, counts = np.unique(wts, return_counts=True)
    spectrum = {int(v): int(c) for v, c in zip(values, counts)}
    nonzero = wts[wts > 0]
    min_d = int(nonzero.min()) if nonzero.size else 0
    cover = int(coset_table(code)[1].max())
    return CodeDiagnostics(
        min_distance_norm=min_d / code.n,
        covering_radius_norm=cover / code.n,
        spectrum=spectrum,
    )


def improve_covering(code, seed=None, rounds=None, candidates=64):
    """Greedily append generator rows that shrink the covering radius.

    Appending a row v merges each coset pair {s, s ^ s(v)}, keeping the
    lighter leader, so candidates are scored on the merged leader-weight
    table without rebuilding anything.  Up to ceil(log2 n) rows are
    appended; a candidate is accepted only when it strictly improves
    the (radius, cosets-at-radius) score, so the covering radius never
    increases and the rate overhead vanishes with n.
    """
    if rounds is None:
        rounds = int(math.ceil(math.log2(code.n)))
    rng = np.random.default_rng(seed)
    current = code
    for _ in range(rounds):
        if current.k == current.n:
            break
        _, weights = coset_table(current)
        radius = int(weights.max())
        score = (radius, int(np.count_nonzero(weights == radius)))
        best = None
        for _ in range(candidates):
            v = pack_bits(rng.integers(0, 2, size=current.n))
            sv = int(syndromes(current, v))
            if sv == 0:
                continue  # already a codeword
            merged = np.minimum(weights, weights[np.arange(len(weights)) ^ sv])
            m_rad = int(merged.max())
            m_score = (m_rad, int(np.count_nonzero(merged == m_rad)))
            if m_score < score and (best is None or m_score < best[0]):
                best = (m_score, v)
        if best is None:
            break
        rows = current.G.bits + (best[1],)
        gen = BitMatrix.from_rows(rows, current.n)
        current = LinearCode(
            current.n, current.k + 1, gen,
            _parity_check(rows, current.n, current.k + 1),
        )
    return current


def build_nested(n, rate_fine, rate_coarse, seed=None, improve=False):
    """Random nested pair at the requested rate pair (rounded to 1/n).

    The coarse generator forms the bottom rows of the fine one, so
    containment holds by construction.  With ``improve`` the fine code
    additionally receives covering-improvement rows, raising its rate
    slightly.
    """
    if not (0.0 <= rate_coarse <= rate_fine <= 1.0):
        raise ParameterError(
            f"need 0 <= coarse <= fine <= 1, got {rate_coarse}, {rate_fine}"
        )
    k2 = int(round(n * rate_coarse))
    k1 = max(int(round(n * rate_fine)), k2)
    if k2 < 1:
        raise ParameterError(f"coarse rate {rate_coarse} rounds to k2=0 at n={n}")
    rng = np.random.default_rng(seed)
    coarse = sample_random_linear_code(n, k2, rng)
    rows = list(coarse.G.bits)
    for _ in range(_SAMPLE_TRIES):
        if len(rows) == k1:
            break
        v = pack_bits(rng.integers(0, 2, size=n))
        if _rank(rows + [v]) == len(rows) + 1:
            rows.insert(0, v)
    if len(rows) != k1:
        raise SamplingFailureError(f"could not extend to k1={k1} at n={n}")
    fine = LinearCode(
        n, k1, BitMatrix.from_rows(rows, n), _parity_check(rows, n, k1)
    )
    if improve and k1 < n:
        fine = improve_covering(fine, rng)
        rows = list(fine.G.bits)
        k1 = fine.k
    # difference rows: the part of the coarse dual not spanned by the
    # fine parity check, reduced for determinism
    basis = []
    for h in fine.H.bits:
        _basis_insert(basis, h)
    delta = []
    for h in _parity_check(coarse.G.bits, n, k2).bits:
        red = _basis_insert(basis, h)
        if red:
            delta.append(red)
    if len(delta) != k1 - k2:
        raise ParameterError("nested parity-check completion failed")
    stacked = BitMatrix.from_rows(fine.H.bits + tuple(delta), n)
    coarse = LinearCode(n, k2, coarse.G, stacked)
    return NestedCode(fine=fine, coarse=coarse,
                      delta=BitMatrix.from_rows(delta, n))
