"""Finite weighted range spaces with exact rational measures.

Points are integers 0..n-1, subsets of the ground set are Python int
bitmasks, and all probabilities are fractions.Fraction values derived
from non-negative integer point weights. Nothing in this module ever
rounds: every measure comparison is exact.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from typing import Iterable, Iterator, Sequence

# Identifies the PRNG contract for everything downstream: CPython's
# random.Random (MT19937) seeded with a namespaced string per stream.
PRNG_ALGORITHM = "cpython-random-mt19937-strseed/v1"


class InstanceError(ValueError):
    """Malformed or degenerate range-space input."""


class CapExceededError(RuntimeError):
    """An exact oracle was asked to run beyond its configured size cap or
    work budget; spent is the work done before it stopped, when counted.
    A max clique search also leaves its incumbent clique in members."""

    members: tuple[int, ...] = ()

    def __init__(self, message: str = "", spent: int | None = None):
        super().__init__(message)
        self.spent = spent


class TheoremViolationError(RuntimeError):
    """A certified inequality failed; indicates a bug, not bad data."""


def mask_of(points: Iterable[int]) -> int:
    m = 0
    for p in points:
        m |= 1 << p
    return m


def iter_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def points_of(mask: int) -> tuple[int, ...]:
    return tuple(iter_bits(mask))


def incidence_columns(masks: Sequence[int], n: int) -> list[int]:
    """cols[x]: bitmask over the positions in masks of the masks that
    contain point x, for x in 0..n-1."""
    cols = [0] * n
    full = (1 << n) - 1
    for i, r in enumerate(masks):
        bit = 1 << i
        for x in iter_bits(r & full):
            cols[x] |= bit
    return cols


def parse_rational(text: str) -> Fraction:
    """Parse 'a/b' or a bare integer string into an exact Fraction."""
    try:
        q = Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise InstanceError(f"not a rational: {text!r}") from exc
    return q


def format_rational(q: Fraction) -> str:
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


def ceil_log2(q: Fraction) -> int:
    """Smallest integer k with 2**k >= q, computed exactly. Requires q > 0."""
    if q <= 0:
        raise ValueError("ceil_log2 needs a positive argument")
    num, den = q.numerator, q.denominator
    k = num.bit_length() - den.bit_length()
    # k is within 1 of the answer; fix up with exact comparisons.
    while (1 << max(k, 0)) * den >= num if k >= 0 else den >= num * (1 << -k):
        k -= 1
    k += 1
    while ((1 << k) * den < num if k >= 0 else den < num * (1 << -k)):
        k += 1
    return k


@dataclass(frozen=True)
class RangeSpace:
    """A finite range space: weighted points plus a family of subsets.

    ranges are canonical: deduplicated, no empty range, sorted by their
    point tuples. The measure of a range is weight(range)/total_weight.

    Derived per-space data follows one rule. What is computed through
    mask_weight (range_weights, union_prefix) is built with the space, so
    the mask_weight calls an operation makes do not depend on whether it
    is the first to touch the space. Everything else (the sampling
    population, the incidence index, the capacity table) is built on
    first use and calls no mask_weight.
    """

    n: int
    weights: tuple[int, ...]
    ranges: tuple[int, ...]
    name: str = ""
    total_weight: int = field(init=False, compare=False, default=0)
    support_mask: int = field(init=False, compare=False, default=0)
    range_weights: tuple[int, ...] = field(init=False, compare=False, default=())

    def __post_init__(self) -> None:
        w = sum(self.weights)
        object.__setattr__(self, "total_weight", w)
        sup = 0
        for i, wi in enumerate(self.weights):
            if wi > 0:
                sup |= 1 << i
        object.__setattr__(self, "support_mask", sup)
        uniform = all(wi == 1 for wi in self.weights)
        object.__setattr__(self, "_uniform", uniform)
        object.__setattr__(
            self, "range_weights", tuple(self.mask_weight(r) for r in self.ranges)
        )
        # Range indices by ascending measure (ties by index), their weights
        # in that order, and union_prefix[j] = weight of the union of the
        # first j of them, so capacity at a scale and the ranges eligible at
        # a doubling scale are bisects. union_prefix calls mask_weight, so
        # it is built here (see the class docstring); the order and the
        # sorted weights come from range_weights alone.
        order = tuple(
            sorted(range(len(self.ranges)), key=self.range_weights.__getitem__)
        )
        prefix = [0]
        union = 0
        for i in order:
            prefix.append(prefix[-1] + self.mask_weight(self.ranges[i] & ~union))
            union |= self.ranges[i]
        object.__setattr__(self, "measure_order", order)
        object.__setattr__(
            self, "sorted_weights", tuple(self.range_weights[i] for i in order)
        )
        object.__setattr__(self, "union_prefix", tuple(prefix))
        # Derived data built on first use (see draw_points, incidence and
        # capacity_table).
        object.__setattr__(self, "_population", None)
        object.__setattr__(self, "_incidence", None)
        object.__setattr__(self, "_capacity", None)

    # -- measures ---------------------------------------------------------

    def mask_weight(self, mask: int) -> int:
        if self._uniform:  # type: ignore[attr-defined]
            return mask.bit_count()
        total = 0
        w = self.weights
        while mask:
            low = mask & -mask
            total += w[low.bit_length() - 1]
            mask ^= low
        return total

    def ceil_weight(self, q: Fraction) -> int:
        """ceil(q * total_weight): a subset has measure >= q exactly when
        its weight is at least this."""
        return -(-q.numerator * self.total_weight // q.denominator)

    def count_below(self, q: Fraction) -> int:
        """How many ranges have measure < q; they are the first ones of
        measure_order."""
        return bisect_left(self.sorted_weights, self.ceil_weight(q))

    def mask_measure(self, mask: int) -> Fraction:
        return Fraction(self.mask_weight(mask), self.total_weight)

    def measure(self, i: int) -> Fraction:
        """P(ranges[i])."""
        return Fraction(self.range_weights[i], self.total_weight)

    def rho_masks(self, a: int, b: int) -> Fraction:
        """Symmetric-difference pseudometric P(a XOR b) on subsets."""
        return self.mask_measure(a ^ b)

    def rho(self, i: int, j: int) -> Fraction:
        return self.rho_masks(self.ranges[i], self.ranges[j])

    # -- structure --------------------------------------------------------

    def incidence(self) -> tuple[int, ...]:
        """cols[x]: bitmask over range indices of the ranges containing
        point x. Built once per space."""
        cols = self._incidence  # type: ignore[attr-defined]
        if cols is None:
            cols = tuple(incidence_columns(self.ranges, self.n))
            object.__setattr__(self, "_incidence", cols)
        return cols

    def capacity_table(
        self,
    ) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
        """(xs, nums, dens): xs are the distinct positive range weights in
        ascending order, and nums[k]/dens[k] is the largest ratio
        union_prefix[bisect_right(sorted_weights, x)] / x over x in xs[k:],
        the capacity candidates at the scales x/total_weight. Built once
        per space from sorted_weights and union_prefix alone."""
        table = self._capacity  # type: ignore[attr-defined]
        if table is None:
            sw, prefix = self.sorted_weights, self.union_prefix
            xs, nums, dens = [], [], []
            bp, bx = 0, 1
            # Walk the distinct weights downward; j + 1 is bisect_right at
            # sw[j] when j is the last index holding that weight.
            for j in range(len(sw) - 1, -1, -1):
                x = sw[j]
                if x == 0:
                    break
                if xs and xs[-1] == x:
                    continue
                p = prefix[j + 1]
                if p * bx > bp * x:
                    bp, bx = p, x
                xs.append(x)
                nums.append(bp)
                dens.append(bx)
            table = (tuple(xs[::-1]), tuple(nums[::-1]), tuple(dens[::-1]))
            object.__setattr__(self, "_capacity", table)
        return table

    def project(self, y: int | Iterable[int]) -> list[int]:
        """Distinct traces {R & Y} of the family on Y, canonically ordered.

        The empty trace appears iff some range misses Y entirely.
        """
        ymask = y if isinstance(y, int) else mask_of(y)
        traces = {r & ymask for r in self.ranges}
        return sorted(traces, key=points_of)

    def conditional(self, a: int | Iterable[int]) -> "RangeSpace":
        """Restrict to A: weights zeroed outside A, ranges intersected.

        Raises InstanceError when P(A) = 0.
        """
        amask = a if isinstance(a, int) else mask_of(a)
        if self.mask_weight(amask) == 0:
            raise InstanceError("conditioning event has measure zero")
        new_weights = [
            wi if (amask >> i) & 1 else 0 for i, wi in enumerate(self.weights)
        ]
        new_ranges = [points_of(r & amask) for r in self.ranges if r & amask]
        return build_range_space(
            self.n, new_weights, new_ranges, name=f"{self.name}|cond"
        )

    def subfamily(self, indices: Iterable[int]) -> "RangeSpace":
        """Same points and weights, keeping only the ranges at indices."""
        return build_range_space(
            self.n, self.weights, [self.ranges[i] for i in indices],
            name=f"{self.name}|sub",
        )

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "n": self.n,
            "weights": list(self.weights),
            "ranges": [list(points_of(r)) for r in self.ranges],
        }

    def dumps(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @staticmethod
    def from_dict(data: dict) -> "RangeSpace":
        try:
            n = data["n"]
            weights = data["weights"]
            ranges = data["ranges"]
        except (KeyError, TypeError) as exc:
            raise InstanceError(f"missing instance field: {exc}") from exc
        name = data.get("name", "")
        return build_range_space(n, weights, ranges, name=name)

    @staticmethod
    def loads(text: str) -> "RangeSpace":
        return RangeSpace.from_dict(parse_json(text, "instance"))


def parse_json(text: str, what: str):
    """The JSON document in text; malformed or too deeply nested input is
    an InstanceError."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise InstanceError(f"bad {what} JSON: {exc}") from exc


def _items(value, what: str) -> tuple:
    """value as a tuple; strings, mappings and scalars are not lists."""
    if isinstance(value, (str, bytes, dict)):
        raise InstanceError(f"{what} must be a list, got {value!r}")
    try:
        return tuple(value)
    except TypeError as exc:
        raise InstanceError(f"{what} must be a list, got {value!r}") from exc


def build_range_space(
    n: int,
    weights: Sequence[int],
    ranges: Iterable[Iterable[int] | int],
    name: str = "",
) -> RangeSpace:
    """Validate and canonicalize an instance.

    Accepts ranges as point iterables or prebuilt masks, in any order and
    with duplicates; output ranges are deduplicated, empty ranges dropped,
    and the family sorted by point tuples. Every count, weight and point
    must be a true int (not a bool, float or string); anything else is an
    InstanceError rather than a silent coercion.
    """
    if type(n) is not int or n < 1:
        raise InstanceError(f"n must be a positive integer, got {n!r}")
    if not isinstance(name, str):
        raise InstanceError(f"name must be a string, got {name!r}")
    weights = _items(weights, "weights")
    if not all(type(w) is int for w in weights):
        raise InstanceError(f"weights must be integers, got {list(weights)!r}")
    if len(weights) != n:
        raise InstanceError(f"expected {n} weights, got {len(weights)}")
    if any(w < 0 for w in weights):
        raise InstanceError("weights must be non-negative")
    if sum(weights) < 1:
        raise InstanceError("total weight must be at least 1")
    full = (1 << n) - 1
    masks = set()
    for r in _items(ranges, "ranges"):
        if type(r) is int:
            if r < 0 or r & ~full:
                raise InstanceError(f"range mask {r} has bits outside 0..{n - 1}")
            m = r
        else:
            pts = _items(r, "a range")
            if not all(type(p) is int and 0 <= p < n for p in pts):
                raise InstanceError(
                    f"range points must be integers in 0..{n - 1}, got {list(pts)!r}"
                )
            m = mask_of(pts)
        if m:
            masks.add(m)
    canon = tuple(sorted(masks, key=points_of))
    return RangeSpace(n=n, weights=weights, ranges=canon, name=name)


def draw_points(space: RangeSpace, k: int, rng, within_mask: int | None = None) -> list[int]:
    """Draw k i.i.d. points from P, optionally conditioned on within_mask.

    Conditioning on a zero-measure mask is an error.
    """
    if within_mask is None:
        pop = getattr(space, "_population")
        if pop is None:
            pts = list(iter_bits(space.support_mask))
            cum = list(accumulate(space.weights[p] for p in pts))
            pop = (pts, cum)
            object.__setattr__(space, "_population", pop)
        pts, cum = pop
    else:
        pts = [p for p in iter_bits(space.support_mask & within_mask)]
        if not pts:
            raise InstanceError("sampling event has measure zero")
        cum = list(accumulate(space.weights[p] for p in pts))
    return rng.choices(pts, cum_weights=cum, k=k)


def stream_rng(seed: int, *stream: object):
    """Deterministic per-stream PRNG: one Random per (seed, stream labels)."""
    import random

    label = ":".join(str(s) for s in stream)
    return random.Random(f"{seed}:{label}")
