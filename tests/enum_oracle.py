"""Enumeration reference shared by the oracle tests.

Independent of the coordinate recursion in ``bindht.oracle``:
`center_counts_scatter` visits every (U, z) pair, U over the
weight-a_count type class and z over all 2^n patterns, and adds one to
the pair's cell of a scatter.  Only then are the cells grouped by the
weight they give each center.
"""

import numpy as np

#: (U, z) pairs handled per vectorised step of the scatter
_BLOCK = 1 << 17


def center_counts_scatter(n, a_count):
    """int64 table [w, j, t] = #{(U, z): wt(U) = a_count, wt(z) = j,
    wt(c + U + z) = t}, c the word whose low w bits are set, of shape
    (n + 1,) * 3.

    Each pair adds one to its cell (wt(z), U + z) of the scatter.  A
    cell is (wt(z) << n) | (U ^ z), at most 12 * 2^12 + 2^12 - 1 =
    53,247 for n <= 12, so cells fit uint16.  Column x of the scatter
    then goes to the resulting weight wt(c + x), row j staying wt(z).
    """
    zs = np.arange(1 << n, dtype=np.uint16)
    pc = np.array([bin(i).count("1") for i in range(1 << n)], dtype=np.uint8)
    jshift = pc.astype(np.uint16) << np.uint16(n)
    us = zs[pc == a_count]
    scatter = np.zeros((n + 1) << n, dtype=np.int64)
    cells = np.empty((max(1, _BLOCK >> n), 1 << n), dtype=np.uint16)
    for i in range(0, len(us), len(cells)):
        block = cells[:len(us) - i]
        np.bitwise_xor(us[i: i + len(block), None], zs, out=block)
        block |= jshift
        np.add.at(scatter, block, 1)
    scatter = scatter.reshape(n + 1, 1 << n)
    out = np.empty((n + 1,) * 3, dtype=np.int64)
    for w in range(n + 1):
        # one-hot [x, t]: word x gives weight t around the center
        weight_of = pc[zs ^ ((1 << w) - 1)][:, None] == np.arange(n + 1)
        out[w] = scatter @ weight_of.astype(np.int64)
    return out
