"""The reference computation that the time metrics are measured against.

On a shared host the CPU's speed moves by up to 1.7x over minutes, so the
same grasscat call can take 0.25 s in one run and 0.45 s in another.  Each
pass therefore also times this fixed computation, and the run reports its
calls' times as multiples of the reference's time (the unit ``ref``).

The reference does the kind of work grasscat spends its time on: exact
arithmetic on truncated polynomials in t, stored as dicts of Fractions, and
row reduction of a matrix of them with pivots of least valuation.  It does
not import grasscat, so no change to the program changes the unit.  Never
change this file: every result in ``ref`` depends on it.
"""

from __future__ import annotations

import random
from fractions import Fraction

TRUNC = 8
SIZE = 7
ROUNDS = 6


def _mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for d, c in p.items():
        for e, b in q.items():
            if d + e < TRUNC:
                out[d + e] = out.get(d + e, 0) + c * b
    return {d: c for d, c in out.items() if c}


def _sub(p: dict, q: dict) -> dict:
    out = dict(p)
    for d, c in q.items():
        out[d] = out.get(d, 0) - c
    return {d: c for d, c in out.items() if c}


def _inverse(p: dict) -> dict:
    """Inverse of a unit (nonzero constant term) modulo t^TRUNC."""
    inv = {0: 1 / p[0]}
    for d in range(1, TRUNC):
        s = sum(p.get(k, 0) * inv.get(d - k, 0) for k in range(1, d + 1))
        if s:
            inv[d] = -s * inv[0]
    return inv


def _valuation(p: dict) -> int:
    return min(p) if p else TRUNC


def _matrix(rng: random.Random) -> list[list[dict]]:
    return [[{d: Fraction(rng.choice((-1, 1)) * rng.randrange(1, 6), rng.randrange(1, 4))
              for d in rng.sample(range(4), rng.randrange(1, 4))}
             for _ in range(SIZE)] for _ in range(SIZE)]


def _reduce(m: list[list[dict]]) -> int:
    """Row-reduce with least-valuation pivots; the sum of pivot valuations."""
    total = 0
    rows = list(range(SIZE))
    for col in range(SIZE):
        pivot = min(rows, key=lambda r: _valuation(m[r][col]))
        v = _valuation(m[pivot][col])
        if v >= TRUNC:
            continue
        rows.remove(pivot)
        total += v
        shifted = {d - v: c for d, c in m[pivot][col].items()}
        unit = _inverse(shifted)
        for r in rows:
            entry = m[r][col]
            if not entry:
                continue
            f = _mul({d - v: c for d, c in entry.items()}, unit)
            m[r] = [_sub(a, _mul(f, b)) for a, b in zip(m[r], m[pivot])]
    return total


def run() -> int:
    """The reference computation: the same work on every call."""
    rng = random.Random(20180713)
    return sum(_reduce(_matrix(rng)) for _ in range(ROUNDS))
