"""Scalar GF(2) reference shared by the code and simulation tests.

Independent of the packed-array kernels in ``bindht.gf2``: one Python
int per word and ``int.bit_count`` per parity.
"""


def syndrome(code, x):
    """Syndrome x H^T of one packed int word, bit i from parity-check row i."""
    s = 0
    for i, h in enumerate(code.H.bits):
        s |= ((h & x).bit_count() & 1) << i
    return s
