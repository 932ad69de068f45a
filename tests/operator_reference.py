"""Reference coefficient-space derivative operator for the tests.

Entry by entry from the first-derivative expansion of the orthonormal
Legendre basis,

    phi_k' = sum_{l < k, k+l odd} 2 sqrt(k+1/2) sqrt(l+1/2) phi_l,

written independently of ``legendre.iterate_derivative`` so that tests can
check the production operator against it.
"""

import math

import numpy as np


def reference_operator(max_degree, r):
    """Order-r operator on degrees 0..max_degree, as the r-th power of the
    order-1 operator filled one (l, k) entry at a time."""
    op1 = np.zeros((max_degree + 1, max_degree + 1))
    for k in range(max_degree + 1):
        for l in range(k):
            if (k + l) % 2 == 1:
                op1[l, k] = 2.0 * math.sqrt(l + 0.5) * math.sqrt(k + 0.5)
    mat = op1
    for _ in range(r - 1):
        mat = op1 @ mat
    return mat
