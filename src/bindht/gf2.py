"""GF(2) linear codes: syndromes, coset leaders, quantizers, nesting.

Words and matrix rows are packed with bit j holding coordinate j, so
XOR is vector addition and a popcount is the Hamming weight.  Rows are
plain Python ints; words are uint64, and `syndromes`, `quantize` and
`row_parities` take an int or an array of words.  A code is its
generator G; its parity check H is derived from the reduced echelon
form of G, so G alone fixes the syndrome map s(x) = x H^T, whose bit i
is the parity of row i against x (an XOR of per-byte tables cached per
matrix).  Coset leaders (minimum-weight coset members, ties to the
lexicographically smallest vector) come from a table built in one pass
per code column, cached per code.

``build_nested`` draws a pair of codes sharing generator rows so the
coarse code is a subcode of the fine one; each derives its own parity
check.  Syndromes are linear, s(x ^ y) = s(x) ^ s(y), and that is all
a decoder needs of the pair.  The coarse syndromes of the fine codewords take
2^(k1 - k2) values, one per coarse coset inside the fine code, so the
coarse syndrome of a quantized word U is the one-sided scheme's message,
and s(Y) ^ s(U) = s(Y ^ U) is what its far terminal decodes.  The
syndromes of X and Y likewise add to that of Z = X ^ Y.
"""

import math
import operator
from dataclasses import dataclass, field
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


@dataclass(frozen=True)
class LinearCode:
    """[n, k] binary linear code fixed by its k x n generator G.

    The parity check H is a function of G: one row per non-pivot column
    f of the reduced echelon form of G, holding f and the pivots of the
    echelon rows that contain f.  So G alone fixes the syndrome labelling.
    """

    G: BitMatrix
    H: BitMatrix = field(init=False, compare=False)

    def __post_init__(self):
        n = self.n
        if not self.k:
            raise ParameterError(f"need 1 <= k <= n, got k=0 n={n}")
        rref, pivots = _rref(self.G.bits, n)
        if len(rref) != self.k:
            raise ParameterError("generator is rank deficient")
        rows = []
        for f in (c for c in range(n) if c not in pivots):
            r = 1 << f
            for g, p in zip(rref, pivots):
                if (g >> f) & 1:
                    r |= 1 << p
            rows.append(r)
        object.__setattr__(self, "H", BitMatrix.from_rows(rows, n))

    @property
    def n(self):
        return self.G.cols

    @property
    def k(self):
        return self.G.rows

    @property
    def rate(self):
        return self.k / self.n


@dataclass(frozen=True)
class NestedCode:
    """Coarse subcode of a fine code: every coarse generator row has
    zero fine syndrome."""

    fine: LinearCode
    coarse: LinearCode

    def __post_init__(self):
        if self.fine.n != self.coarse.n:
            raise ParameterError("blocklength mismatch between the two codes")
        for g in self.coarse.G.bits:
            for h in self.fine.H.bits:
                if (g & h).bit_count() & 1:
                    raise ParameterError("coarse code is not a subcode")


@dataclass(frozen=True)
class CodeDiagnostics:
    """Normalized distance figures and the exact weight spectrum."""

    min_distance_norm: float
    covering_radius_norm: float
    spectrum: dict


def sample_random_linear_code(n, k, seed=None):
    """Uniform random full-rank [n, k] code; rejection on rank failure."""
    try:
        n, k = operator.index(n), operator.index(k)
    except TypeError:
        raise ParameterError(f"need integers, got n={n!r} k={k!r}") from None
    if not (1 <= k <= n):
        raise ParameterError(f"need 1 <= k <= n, got k={k} n={n}")
    rng = np.random.default_rng(seed)
    for _ in range(_SAMPLE_TRIES):
        rows = [pack_bits(rng.integers(0, 2, size=n)) for _ in range(k)]
        g = BitMatrix.from_rows(rows, n)
        try:
            return LinearCode(g)
        except ParameterError:  # with 1 <= k, only a rank-deficient G
            continue
    raise SamplingFailureError(
        f"no full-rank {k}x{n} generator in {_SAMPLE_TRIES} draws"
    )


@lru_cache(maxsize=32)
def _byte_tables(rows):
    """Read-only per-byte tables of a rows tuple: bit i of entry [b, v]
    is the parity of row i against the byte value v placed at byte b."""
    shift = np.arange(0, max(rows, default=0).bit_length(), 8, dtype=np.uint64)
    row_bytes = np.array(rows, dtype=np.uint64) >> shift[:, None, None]
    values = np.arange(256, dtype=np.uint64)[:, None]
    odd = _popcount64(values & row_bytes) & np.uint64(1)
    tables = (odd << np.arange(len(rows), dtype=np.uint64)).sum(axis=2)
    tables.flags.writeable = False
    return tables


def row_parities(rows, words):
    """Apply a bit matrix to packed words; output bit i is <rows[i], word>,
    the XOR of one `_byte_tables` entry per byte of the word."""
    words = np.asarray(words, dtype=np.uint64)
    out = np.zeros(words.shape, dtype=np.uint64)
    for b, table in enumerate(_byte_tables(tuple(rows))):
        out ^= table.take((words >> np.uint64(8 * b)) & np.uint64(0xFF))
    return out


def syndromes(code, words):
    """Syndrome x H^T of each packed word; bit i from parity-check row i.

    Takes an int or an array of them.  Raises ParameterError for a word
    that is not an integer and LengthMismatchError for one that does not
    fit in n bits.
    """
    try:
        if not (isinstance(words, np.ndarray) and words.dtype.kind in "iu"):
            index = np.frompyfunc(operator.index, 1, 1)
            words = index(np.asarray(words, dtype=object))
        fits = not np.any(words < 0)  # a signed array would wrap
        words = np.asarray(words, dtype=np.uint64)
    except TypeError:  # floats, strings and None have no __index__
        raise ParameterError("words must be integers") from None
    except OverflowError:  # a negative int, or one wider than 64 bits
        fits = False
    if not fits or np.any(words >> np.uint64(code.n)):
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


def _xor_view(table, c):
    """(2,) * m view of a syndrome table read at s ^ c: axis a holds bit
    m - 1 - a of s, so the axes of the set bits of c are flipped."""
    keep, flip = slice(None), slice(None, None, -1)
    return table[tuple(flip if c >> b & 1 else keep
                       for b in reversed(range(table.ndim)))]


@lru_cache(maxsize=32)
def _leader_data(code):
    """Leader table (packed leaders, weights) indexed by syndrome.

    Leaders minimize (weight, rho), where rho(v) = sum over j in v of
    2^(n-1-j) is the bit-reversed packed value, whose order is the
    lexicographic order of coordinate tuples.  Let T_j(s) be the least
    word of syndrome s on columns j..n-1 (T_n: the empty word at s = 0).
    Adding {j} to the words of syndrome s ^ c_j on columns above j keeps
    their order and puts their rho above that of every word on columns
    above j.  So T_j(s) = T_{j+1}(s ^ c_j) + {j} when that word is
    strictly lighter than T_{j+1}(s), and T_j(s) = T_{j+1}(s) otherwise:
    one pass per column, from n - 1 down to 0, compares weights alone.
    """
    n = code.n
    if n > 64:
        raise ResourceLimitError("leader tables support blocklengths up to 64")
    shape = (2,) * (n - code.k)
    leaders = np.zeros(shape, dtype=np.uint64)
    weights = np.full(shape, n + 1, dtype=np.uint8)  # heavier than any word
    weights.flat[0] = 0
    units = np.uint64(1) << np.arange(n, dtype=np.uint64)
    # scratch made once, so no pass maps and faults in fresh pages
    lighter, better = np.empty(shape, np.uint8), np.empty(shape, bool)
    moved = np.empty_like(leaders)
    for j, c in reversed(list(enumerate(syndromes(code, units).tolist()))):
        if c:  # a zero column changes nothing
            np.add(_xor_view(weights, c), np.uint8(1), out=lighter)
            np.less(lighter, weights, out=better)
            np.copyto(weights, lighter, where=better)
            np.bitwise_or(_xor_view(leaders, c), units[j], out=moved)
            np.copyto(leaders, moved, where=better)
    # H has full rank n - k, so T_0 holds a word for every syndrome
    return leaders.reshape(-1), weights.reshape(-1)


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


def _cover_score(weights):
    """(covering radius, cosets at that radius) of a leader-weight table."""
    radius = int(weights.max())
    return radius, int(np.count_nonzero(weights == radius))


def improve_covering(code, seed=None):
    """Greedily append generator rows that shrink the covering radius.

    Appending a row v merges each coset pair {s, s ^ s(v)}, keeping the
    lighter leader, so candidates are scored on the merged leader-weight
    table without rebuilding anything.  Up to ceil(log2 n) rows are
    appended, each the best of 64 random words; a candidate is accepted
    only when it strictly improves the (radius, cosets-at-radius) score,
    so the covering radius never increases and the rate overhead
    vanishes with n.
    """
    rng = np.random.default_rng(seed)
    current = code
    for _ in range(math.ceil(math.log2(code.n))):
        if current.k == current.n:
            break
        table = coset_table(current)[1].reshape((2,) * (current.n - current.k))
        best, row = _cover_score(table), None
        for _ in range(64):
            v = pack_bits(rng.integers(0, 2, size=current.n))
            sv = int(syndromes(current, v))  # 0 for a codeword, never wins
            score = _cover_score(np.minimum(table, _xor_view(table, sv)))
            if score < best:
                best, row = score, v
        if row is None:
            break
        current = LinearCode(
            BitMatrix.from_rows(current.G.bits + (row,), current.n)
        )
    return current


def build_nested(n, rate_fine, rate_coarse, seed=None):
    """Random nested pair at the requested rate pair (rounded to 1/n).

    The coarse generator forms the bottom rows of the fine one, so
    containment holds by construction.
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
    # a basis of span(rows) in which no row holds the pivot (lowest set
    # bit) of a row before it, so one pass in order reduces v
    basis = _rref(rows, n)[0]
    for _ in range(_SAMPLE_TRIES):
        if len(rows) == k1:
            break
        v = pack_bits(rng.integers(0, 2, size=n))
        r = v
        for e in basis:
            if r & e & -e:
                r ^= e
        if r:  # v is outside the span: keep it, and r joins the basis
            rows.insert(0, v)
            basis.append(r)
    if len(rows) != k1:
        raise SamplingFailureError(f"could not extend to k1={k1} at n={n}")
    fine = LinearCode(BitMatrix.from_rows(rows, n))
    return NestedCode(fine=fine, coarse=coarse)
