"""GF(2) references shared by the code and simulation tests.

Independent of the packed-array kernels in ``bindht.gf2``: `syndrome`
takes one Python int per word and ``int.bit_count`` per parity, and
`leader_data_bfs` is the breadth-first leader-table search that
``bindht.gf2._leader_data`` ran before its column recursion, kept as a
reference for it.
"""

import numpy as np

#: frontier syndromes expanded at once by the leader-table search
_BFS_CHUNK = 1024


def syndrome(code, x):
    """Syndrome x H^T of one packed int word, bit i from parity-check row i."""
    s = 0
    for i, h in enumerate(code.H.bits):
        s |= ((h & x).bit_count() & 1) << i
    return s


def leader_data_bfs(code):
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
    size = 1 << (n - code.k)
    units = np.uint64(1) << np.arange(n, dtype=np.uint64)
    unit_syn = np.array([syndrome(code, 1 << j) for j in range(n)],
                        dtype=np.intp)
    rev_unit = units[::-1]
    rho = np.full(size, np.iinfo(np.uint64).max, dtype=np.uint64)
    rho[0] = 0
    weights = np.zeros(size, dtype=np.uint8)
    reached = np.zeros(size, dtype=bool)
    reached[0] = True
    frontier = np.zeros(1, dtype=np.intp)
    remaining = size - 1
    w = 0
    # H has full rank n - k (one row per free column), so every syndrome
    # is reached
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
