"""Enumeration references shared by the oracle tests.

Independent of the coordinate recursion in ``bindht.oracle``:
`xor_counts_scatter` is the pair scatter that ``bindht.oracle._xor_counts``
ran before its recursion, kept as a reference for it.  It visits every
(U, z) pair, U over the weight-a_count type class and z over all 2^n
patterns, and adds one to the pair's cell.
"""

import numpy as np

#: (U, z) pairs handled per vectorised step of the scatter
_BLOCK = 1 << 17


def xor_counts_scatter(n, a_count):
    """int64 table N[j, x] = #{(U, z): wt(U) = a_count, wt(z) = j,
    U + z = x}, of shape (n + 1, 2^n), each pair added to its own cell.

    A cell is (wt(z) << n) | (U ^ z), at most 12 * 2^12 + 2^12 - 1 =
    53,247 for n <= 12, so cells fit uint16.
    """
    zs = np.arange(1 << n, dtype=np.uint16)
    pc = np.array([bin(i).count("1") for i in range(1 << n)], dtype=np.uint8)
    jshift = pc.astype(np.uint16) << np.uint16(n)
    us = zs[pc == a_count]
    counts = np.zeros((n + 1) << n, dtype=np.int64)
    cells = np.empty((max(1, _BLOCK >> n), 1 << n), dtype=np.uint16)
    for i in range(0, len(us), len(cells)):
        block = cells[:len(us) - i]
        np.bitwise_xor(us[i: i + len(block), None], zs, out=block)
        block |= jshift
        np.add.at(counts, block, 1)
    return counts.reshape(n + 1, 1 << n)
