"""Dense integer-coefficient polynomial helpers.

Polynomials are lists of int coefficients, index = degree, normalized so the
last entry is nonzero ([] is the zero polynomial).  Everything here is exact;
no floats ever enter.
"""

from __future__ import annotations


def trim(p: list[int]) -> list[int]:
    n = len(p)
    while n and p[n - 1] == 0:
        n -= 1
    return p[:n]


def series_of_quotient(num: list[int], den_exponents: tuple[int, ...], order: int) -> list[int]:
    """Power series of num / prod_i (1 - t^{e_i}) up to and including t^order."""
    series = (num + [0] * (order + 1))[: order + 1]
    for e in den_exponents:
        # multiply by 1/(1-t^e) = sum_k t^{ke}: cumulative sums with stride e
        for i in range(e, order + 1):
            series[i] += series[i - e]
    return series
