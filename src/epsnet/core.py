"""Finite weighted range spaces with exact rational measures.

Points are integers 0..n-1, subsets of the ground set are Python int
bitmasks, and all probabilities are fractions.Fraction values derived
from non-negative integer point weights. Nothing in this module ever
rounds: every measure comparison is exact.

Sampling draws i.i.d. points from P with random.choices on a stream_rng
stream. draw_points returns the draws; hit_mask returns only the set
they hit, stopping at the draws that can no longer change it, and
draw_mask skips the stream past those, leaving it exactly where
draw_points would.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import accumulate
from typing import Iterable, Iterator, Sequence

# Identifies the PRNG contract for everything downstream: CPython's
# random.Random (MT19937) seeded with a namespaced string per stream.
PRNG_ALGORITHM = "cpython-random-mt19937-strseed/v1"


class InstanceError(ValueError):
    """Malformed or degenerate range-space input."""


class CapExceededError(RuntimeError):
    """An exact oracle was asked to run beyond its configured size cap or
    work budget; spent is the work done before it stopped, which a Budget
    always counts, and members the incumbent, such as max_clique's clique."""

    def __init__(self, message: str = "", spent: int | None = None,
                 members: tuple[int, ...] = ()):
        super().__init__(message)
        self.spent, self.members = spent, members


class Budget:
    """The node budget of one exact search, shared by all its walks.
    spend() counts a node and raises CapExceededError past the last one.
    run(walk, *args), the one place a trip is caught, returns whether the
    walk finished and keeps a trip, past the budget or Python's recursion
    limit, in error. A tripped budget stays spent: a later walk is not run."""

    def __init__(self, nodes: int, search: str):
        self.nodes, self.search, self.spent, self.error = nodes, search, 0, None

    def spend(self) -> None:
        if self.spent == self.nodes:
            raise CapExceededError(f"{self.search} exceeded its budget of "
                                   f"{self.nodes} nodes", spent=self.spent)
        self.spent += 1

    def run(self, walk, *args) -> bool:
        try:
            if self.error is None:
                walk(*args)
                return True
        except CapExceededError as exc:
            self.error = exc.with_traceback(None)  # its traceback pins the walk's tables
        except RecursionError:
            self.error = CapExceededError(f"{self.search} passed the recursion limit after "
                                          f"{self.spent} nodes", spent=self.spent)
        return False


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


def canonical_key(mask: int) -> str:
    """Sort key giving the order of points_of tuples: the mask's bits
    from point 0 up, members as "0" (ord 48 and 49 swapped). At the
    lowest point x where two masks differ, the one holding x has "0";
    the other has "1" there or has already ended, and is then a prefix."""
    return format(mask, "b")[::-1].translate({48: "1", 49: "0"}) if mask else ""


# _BIT_DIGITS[k] maps a byte to ASCII "1" or "0" by its bit k.
_BIT_DIGITS = tuple(
    bytes(48 + (b >> k & 1) for b in range(256)) for k in range(8)
)


def point_lanes(masks: Sequence[int], n: int) -> Iterator[bytes]:
    """Each point's lane, for x in 0..n-1: one ASCII "1" or "0" digit per
    mask, in the order of masks, by whether the mask holds x.

    The masks are laid end to end as nb-byte little-endian strings, so
    byte x >> 3 of every mask is the stride-nb slice from it, and
    translating that slice to the digits of bit x & 7 gives the lane."""
    nb = (n + 7) >> 3
    full = (1 << n) - 1
    data = b"".join([(r & full).to_bytes(nb, "little") for r in masks])
    for x in range(n):
        yield data[x >> 3::nb].translate(_BIT_DIGITS[x & 7])


def incidence_columns(masks: Sequence[int], n: int) -> list[int]:
    """cols[x]: bitmask over the positions in masks of the masks that
    contain point x, for x in 0..n-1: x's point lane reversed (mask 0
    last, the least significant digit) and parsed in base 2."""
    if not masks:
        return [0] * n
    return [int(lane[::-1], 2) for lane in point_lanes(masks, n)]


def _add(planes: list[int], term: int, w: int) -> None:
    """Add w to the bit-sliced counters in planes at the positions set in
    term: a ripple-carry add of term at the plane of each set bit of w.
    planes must be deep enough to hold every sum."""
    for k in range(w.bit_length()):
        carry, i = term if w >> k & 1 else 0, k
        while carry:
            plane = planes[i]
            planes[i] = plane ^ carry
            carry &= plane
            i += 1


def _at_least(planes: Sequence[int], threshold: int) -> int:
    """The positions whose bit-sliced value in planes is at least
    threshold >= 1: a comparison from the top plane down that stops below
    the threshold's lowest set bit, where every position still equal to
    it so far is at least it. A position holding 0 never counts."""
    if threshold >> len(planes):
        return 0
    above, equal = 0, -1
    for k in range(len(planes) - 1, (threshold & -threshold).bit_length() - 2, -1):
        high = equal & planes[k]
        if threshold >> k & 1:
            equal = high
        else:
            above |= high
            equal ^= high
    return above | equal


def _weigher(space: RangeSpace):
    """space.mask_weight, or int.bit_count on a uniform space, where the
    two agree: a loop that weighs a mask per pair calls it without a
    method frame per call. A wrapper rebound on RangeSpace.mask_weight
    does not see the int.bit_count calls."""
    return space.mask_weight if space._byte_weights else int.bit_count


def components(masks: Iterable[int]) -> list[int]:
    """Point masks of the point-sharing components of masks, by lowest
    point: masks joined by a chain of pairwise-meeting masks share one
    component, and every nonzero mask lies inside exactly one."""
    comps: list[int] = []
    for r in filter(None, masks):
        for c in [c for c in comps if c & r]:
            comps.remove(c)
            r |= c
        comps.append(r)
    return sorted(comps, key=lambda c: c & -c)


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


def _unit_eps(eps, name: str = "eps") -> Fraction:
    """eps as a Fraction in (0, 1], else a ValueError naming the input. A
    Fraction already in range is returned as it is: its denominator is
    positive."""
    if type(eps) is Fraction and 0 < eps.numerator <= eps.denominator:
        return eps
    try:
        eps = Fraction(eps)
    except OverflowError:  # an infinite float, which no Fraction holds
        raise ValueError(f"{name} must be in (0, 1], got {eps}") from None
    if not 0 < eps <= 1:
        raise ValueError(f"{name} must be in (0, 1], got {eps}")
    return eps


def ceil_log2(q: Fraction) -> int:
    """Smallest integer k with 2**k >= q, computed exactly. Requires q > 0.

    For q > 1 that is the bit length of ceil(q) - 1 = (num - 1) // den; for
    q <= 1 it is minus the largest j with 2**j <= den // num."""
    if q <= 0:
        raise ValueError("ceil_log2 needs a positive argument")
    num, den = q.numerator, q.denominator
    if num > den:
        return ((num - 1) // den).bit_length()
    return 1 - (den // num).bit_length()


class cached_index:
    """A RangeSpace index built on first read and kept by object.__setattr__
    (the dataclass is frozen). functools.cached_property keeps it through
    __dict__, which on CPython 3.11 moves the space's attribute values into
    a dict for good and slows every later read (mask_weight by a third)."""

    def __init__(self, build):
        self.build, self.name, self.__doc__ = build, build.__name__, build.__doc__

    def __get__(self, space, owner=None):
        if space is None:
            return self
        value = self.build(space)
        object.__setattr__(space, self.name, value)
        return value


@dataclass(frozen=True)
class RangeSpace:
    """A finite range space: weighted points plus a family of subsets.

    ranges are canonical: deduplicated, no empty range, sorted by their
    point tuples. The measure of a range is weight(range)/total_weight.

    Every piece of derived per-space data is declared here, and it
    follows one rule. What is computed through mask_weight (range_weights,
    union_prefix) is built with the space, so the mask_weight calls an
    operation makes do not depend on whether it is the first to touch the
    space. The byte tables that mask_weight reads on a non-uniform space
    are also built with it, from weights alone, and make no mask_weight
    call; they are empty on a uniform space. The cached indices
    (incidence, weight_planes, capacity_table, point_components,
    population) are built on first read and call no mask_weight.
    """

    n: int
    weights: tuple[int, ...]
    ranges: tuple[int, ...]
    name: str = ""
    total_weight: int = field(init=False, compare=False, default=0)
    support_mask: int = field(init=False, compare=False, default=0)
    range_weights: tuple[int, ...] = field(init=False, compare=False, default=())
    # Range indices by ascending measure (ties by index), their weights in
    # that order, and union_prefix[j] = weight of the union of the first j
    # of them, so capacity at a scale, the ranges eligible at a doubling
    # scale and the dyadic cuts are bisects.
    measure_order: tuple[int, ...] = field(init=False, compare=False, repr=False)
    sorted_weights: tuple[int, ...] = field(init=False, compare=False, repr=False)
    union_prefix: tuple[int, ...] = field(init=False, compare=False, repr=False)
    # _byte_weights[c][b]: weight of the points 8c + k for the bits k set
    # in byte b, so a mask of points in 0..n-1 weighs as one lookup per
    # byte; () on a uniform space, which weighs by bit_count.
    _byte_weights: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        put = partial(object.__setattr__, self)  # the dataclass is frozen
        put("total_weight", sum(self.weights))
        put("support_mask", mask_of(i for i, wi in enumerate(self.weights) if wi))
        tables = ()
        if not all(wi == 1 for wi in self.weights):
            for c in range(0, self.n, 8):
                t = [0]
                for wk in self.weights[c:c + 8]:
                    t += [v + wk for v in t]
                tables += (tuple(t),)
        put("_byte_weights", tables)
        put("range_weights", tuple(self.mask_weight(r) for r in self.ranges))
        order = sorted(range(len(self.ranges)), key=self.range_weights.__getitem__)
        prefix, union = [0], 0
        for i in order:
            prefix.append(prefix[-1] + self.mask_weight(self.ranges[i] & ~union))
            union |= self.ranges[i]
        put("measure_order", tuple(order))
        put("sorted_weights", tuple(self.range_weights[i] for i in order))
        put("union_prefix", tuple(prefix))

    # -- measures ---------------------------------------------------------

    def mask_weight(self, mask: int) -> int:
        if not self._byte_weights:
            return mask.bit_count()
        total = 0
        for table in self._byte_weights:
            if not mask:
                break
            total += table[mask & 255]
            mask >>= 8
        return total

    def ceil_weight(self, q: Fraction) -> int:
        """ceil(q * total_weight): a subset has measure >= q exactly when
        its weight is at least this."""
        return -(-q.numerator * self.total_weight // q.denominator)

    def count_below(self, q: Fraction) -> int:
        """How many ranges have measure < q; they are the first ones of
        measure_order."""
        return bisect_left(self.sorted_weights, self.ceil_weight(q))

    def count_at_most(self, q: Fraction) -> int:
        """How many ranges have measure <= q; they are the first ones of
        measure_order."""
        return bisect_right(
            self.sorted_weights, q.numerator * self.total_weight // q.denominator
        )

    def ranges_at_least(self, q: Fraction) -> int:
        """Bitmask over range indices of the ranges of measure >= q > 0,
        read from weight_planes."""
        return _at_least(self.weight_planes, self.ceil_weight(q))

    def mask_measure(self, mask: int) -> Fraction:
        return Fraction(self.mask_weight(mask), self.total_weight)

    def measure(self, i: int) -> Fraction:
        """P(ranges[i])."""
        return Fraction(self.range_weights[i], self.total_weight)

    def rho(self, i: int, j: int) -> Fraction:
        """Symmetric-difference pseudometric P(R_i XOR R_j)."""
        return self.mask_measure(self.ranges[i] ^ self.ranges[j])

    # -- structure --------------------------------------------------------

    @cached_index
    def incidence(self) -> tuple[int, ...]:
        """cols[x]: bitmask over range indices of the ranges containing
        point x."""
        return tuple(incidence_columns(self.ranges, self.n))

    @cached_index
    def weight_planes(self) -> tuple[int, ...]:
        """range_weights bit-sliced over range indices: bit i of plane k is
        bit k of range i's weight, in total_weight.bit_length() planes."""
        planes = [0] * self.total_weight.bit_length()
        for i, w in enumerate(self.range_weights):
            _add(planes, 1 << i, w)  # bit i is still 0 everywhere: no carry
        return tuple(planes)

    @cached_index
    def capacity_table(self) -> tuple[tuple[int, ...], ...]:
        """(xs, nums, dens): xs are the distinct positive range weights in
        ascending order, and nums[k]/dens[k] is the largest ratio
        union_prefix[bisect_right(sorted_weights, x)] / x over x in xs[k:],
        the capacity candidates at the scales x/total_weight. Built from
        sorted_weights and union_prefix alone."""
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
        return tuple(xs[::-1]), tuple(nums[::-1]), tuple(dens[::-1])

    @cached_index
    def point_components(self) -> tuple[int, ...]:
        """Point masks of the point-sharing components of the ranges
        (components), by lowest point."""
        return tuple(components(self.ranges))

    @cached_index
    def population(self) -> tuple[list[int], list[int] | None]:
        """(points, cumulative weights) of the whole support, for
        random.choices (see _population)."""
        return _population(self, self.support_mask)

    def project(self, y: int | Iterable[int]) -> list[int]:
        """Distinct traces {R & Y} of the family on Y, canonically ordered.

        The empty trace appears iff some range misses Y entirely.
        """
        ymask = y if isinstance(y, int) else mask_of(y)
        traces = {r & ymask for r in self.ranges}
        return sorted(traces, key=canonical_key)

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
        if not isinstance(data, dict):
            raise InstanceError(f"instance must be an object, got {data!r}")
        try:
            n = data["n"]
            weights = data["weights"]
            ranges = data["ranges"]
        except KeyError as exc:
            raise InstanceError(f"missing instance field: {exc}") from exc
        unknown = sorted(set(data) - {"n", "weights", "ranges", "name"}, key=repr)
        if unknown:
            raise InstanceError(f"unknown instance keys: {unknown}")
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
    canon = tuple(sorted(masks, key=canonical_key))
    return RangeSpace(n=n, weights=weights, ranges=canon, name=name)


# The most draws that one choices chunk (hit_mask, cal_net) or one skip
# (draw_mask) takes, so their memory stays bounded whatever k is.
DRAW_BLOCK = 1 << 14


def draw_points(space: RangeSpace, k: int, rng, within_mask: int | None = None) -> list[int]:
    """Draw k i.i.d. points from P, optionally conditioned on within_mask.

    Conditioning on a zero-measure mask is an error.
    """
    pts, cum = _population(space, within_mask)
    return rng.choices(pts, cum_weights=cum, k=k)


def hit_mask(
    space: RangeSpace, k: int, rng, within_mask: int | None = None
) -> tuple[int, int]:
    """(mask_of(draw_points(space, k, rng, within_mask)), rest). Draws in
    choices chunks, the first as long as the candidate points and each next
    one twice as long (at most DRAW_BLOCK), and stops once every candidate
    is hit: the rest of the k draws cannot change the mask, and rng is left
    after the draws made (draw_mask skips it past the rest)."""
    pts, cum = _population(space, within_mask)
    bits = [1 << p for p in pts]
    full = sum(bits)
    mask = 0
    chunk = len(bits)
    while k > 0 and mask != full:
        take = min(chunk, k)
        # Distinct one-bit masks sum to their OR.
        mask |= sum(set(rng.choices(bits, cum_weights=cum, k=take)))
        k -= take
        chunk = min(2 * chunk, DRAW_BLOCK)
    return mask, k


def draw_mask(space: RangeSpace, k: int, rng, within_mask: int | None = None) -> int:
    """mask_of(draw_points(space, k, rng, within_mask)), leaving rng in
    the same state, without building the k-point list.

    The draws hit_mask leaves undrawn are skipped: each choices draw,
    uniform or weighted, takes exactly one random(), two 32-bit MT19937
    words, so getrandbits(64 * rest) advances the stream past them, in
    blocks of at most DRAW_BLOCK draws.
    """
    mask, rest = hit_mask(space, k, rng, within_mask)
    while rest > 0:
        skip = min(rest, DRAW_BLOCK)
        rng.getrandbits(64 * skip)
        rest -= skip
    return mask


def _population(
    space: RangeSpace, within_mask: int | None
) -> tuple[list[int], list[int] | None]:
    """(points, cumulative weights) of the support (space.population), or
    of its part inside within_mask, for random.choices. The weights are
    None on a uniform space: choices then draws floor(random() * n), the
    same point that a bisect of [1, ..., n] would give, without the
    bisect. A within_mask of measure zero is an InstanceError."""
    if within_mask is None:
        return space.population
    pts = list(iter_bits(space.support_mask & within_mask))
    if not pts:
        raise InstanceError("sampling event has measure zero")
    if not space._byte_weights:
        return pts, None
    return pts, list(accumulate(space.weights[p] for p in pts))


def stream_rng(seed: int, *stream: object):
    """Deterministic per-stream PRNG: one Random per (seed, stream labels)."""
    import random

    label = ":".join(str(s) for s in stream)
    return random.Random(f"{seed}:{label}")
