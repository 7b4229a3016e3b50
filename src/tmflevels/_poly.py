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


def mul(a: list[int], b: list[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return trim(out)


def one_minus_t_pow(e: int) -> list[int]:
    """The polynomial 1 - t^e."""
    if e < 1:
        raise ValueError("exponent must be >= 1")
    p = [0] * (e + 1)
    p[0] = 1
    p[e] = -1
    return p


def divmod_exact(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    """Long division over Z; requires the leading coefficient of den to be a unit."""
    num = trim(num)
    den = trim(den)
    if not den:
        raise ZeroDivisionError("division by zero polynomial")
    lead = den[-1]
    if lead not in (1, -1):
        raise ValueError("denominator leading coefficient must be a unit")
    rem = num[:]
    quo = [0] * max(0, len(num) - len(den) + 1)
    while len(rem) >= len(den):
        shift = len(rem) - len(den)
        coeff = rem[-1] // lead
        quo[shift] = coeff
        for i, c in enumerate(den):
            rem[shift + i] -= coeff * c
        rem = trim(rem)
    return trim(quo), trim(rem)


def series_of_quotient(num: list[int], den_exponents: tuple[int, ...], order: int) -> list[int]:
    """Power series of num / prod_i (1 - t^{e_i}) up to and including t^order."""
    series = (num + [0] * (order + 1))[: order + 1]
    for e in den_exponents:
        # multiply by 1/(1-t^e) = sum_k t^{ke}: cumulative sums with stride e
        for i in range(e, order + 1):
            series[i] += series[i - e]
    return series
