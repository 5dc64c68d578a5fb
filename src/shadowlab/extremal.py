"""Shadow-minimization bounds, extremality tests, characterization, enumeration.

The exhaustive machinery indexes families of a small layer C([n], k) by the
bit pattern of chosen positions and keeps one shared per-pattern byte table
of shadow sizes, built by doubling; a pattern's member count is its
popcount.  Every table is built and read through one block walk
(``_split`` and ``_blocks``), a block of 2^16 patterns at a time, and the
sweeps over every subfamily are byte operations on those blocks.  The
characterization sweep evaluates every condition of the characterization
at element n the same way.  The conditions are invariant under
relabeling, so a pattern P passes at element n - j iff c^j P passes at n,
with c the n-cycle i -> i+1; the other elements' verdicts are read through
c for the few patterns that pass at n.  ``characterize`` is the
family-at-a-time oracle for every element.

Minimum shadows and extremal families also come from the shadow side: a
byte table over the families T of (k-1)-sets holds |K(T)|, the number of
k-sets all of whose (k-1)-subsets lie in T, built by the same plane engine
from the upper shadows of complements.  Where it is the smaller table
(``_served_layer`` holds the rule) it answers ``brute_force_min_shadow``,
and one zero scan of it counts and lists the extremal m-families, the
m-subsets of K(T) over the T of least size s(m) with |K(T)| >= m.
"""

from __future__ import annotations

import sys
from array import array
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, repeat
from math import comb
from operator import or_

from .exact import (
    BudgetError,
    Seq,
    binom,
    decompose,
    kk_bound,
    lex_cmp,
    seq_minus,
    seq_value,
)
from .families import (
    SHADOW_BUDGET,
    KFamily,
    _check_ground,
    _cycled,
    _element_flags,
    _layer_masks,
    _lifted,
    _shadow_masks,
    _swapped,
    canonical_form,
    degree,
    delete_star,
    link,
    min_degree_element,
    shadow,
)

SWEEP_LAYER_LIMIT = 21  # 2^21 table entries; larger layers take slower paths
COMBINATION_BUDGET = 3_000_000
_LISTED_SET_LIMIT = 10_000_000  # sets one listing of KFamily objects may hold


def is_extremal(family: KFamily) -> bool:
    """True iff the shadow meets the lower bound exactly."""
    if not family.masks:
        raise ValueError("extremality is undefined for the empty family")
    if family.k == 1:
        return True  # the shadow is the single empty set
    return len(shadow(family)) == kk_bound(len(family), family.k, 1)


def shadow_chain_check(family: KFamily) -> bool:
    """For an extremal family, all iterated shadows must meet their bounds.

    Where they do, level i holds exactly kk_bound(m, k, i) sets, so a chain
    whose largest level would pass ``SHADOW_BUDGET`` is refused before any
    level is built."""
    if not is_extremal(family):
        raise ValueError("shadow chain check requires an extremal family")
    sizes = [kk_bound(len(family), family.k, i) for i in range(1, family.k)]
    size, level = max(zip(sizes, range(1, family.k)), default=(0, 0))
    if size > SHADOW_BUDGET:
        raise BudgetError(
            f"shadow chain level {level} would hold {size} sets, "
            f"over the shadow budget of {SHADOW_BUDGET}"
        )
    current = family.masks
    for size in sizes:
        current = _shadow_masks(current)
        if len(current) != size:
            return False
    return True


@dataclass
class ElementCheck:
    """Outcome of the characterization conditions at one support element."""

    x: int
    link_size: int
    deleted_size: int
    threshold: int
    branch: str  # "strict" | "equality" | "neither"
    inclusion: bool | None = None
    deleted_extremal: bool | None = None
    link_extremal: bool | None = None
    numeric: bool | None = None
    ok: bool = False


@dataclass
class CharacterizationReport:
    n: int
    k: int
    size: int
    cascade: tuple[int, ...]
    elements: list[ElementCheck]
    verdict: bool
    witnesses: tuple[int, ...]

    def element(self, x: int) -> ElementCheck:
        for check in self.elements:
            if check.x == x:
                return check
        raise KeyError(x)


def _check_element(family: KFamily, x: int, a: Seq) -> ElementCheck:
    k = family.k
    lk = link(family, x)
    rest = delete_star(family, x)
    threshold = seq_value(seq_minus(a, 1), k)
    check = ElementCheck(
        x=x,
        link_size=len(lk),
        deleted_size=len(rest),
        threshold=threshold,
        branch="neither",
    )
    if len(rest) < threshold:
        return check
    rest_masks = _shadow_masks(rest.masks)
    check.link_extremal = is_extremal(lk)
    if len(rest) > threshold:
        check.branch = "strict"
        check.inclusion = rest_masks.issuperset(lk.masks)
        check.deleted_extremal = len(rest_masks) == kk_bound(len(rest), k, 1)
        b = decompose(len(rest), k)
        c = decompose(len(lk), k - 1)
        check.numeric = seq_value(a, k - 1) == seq_value(b, k - 1) + seq_value(c, k - 2)
        check.ok = bool(
            check.inclusion
            and check.deleted_extremal
            and check.link_extremal
            and check.numeric
        )
    else:
        check.branch = "equality"
        check.inclusion = rest_masks.issubset(lk.masks)
        check.ok = bool(check.inclusion and check.link_extremal)
    return check


def characterize(family: KFamily) -> CharacterizationReport:
    """Evaluate the recursive extremality conditions at every support element.

    Requires k >= 2 and full support: every element of [n] must have positive
    degree.  The overall verdict is the conjunction over elements; any single
    passing element already certifies extremality.
    """
    if family.k < 2:
        raise ValueError("characterization requires k >= 2")
    if not family.masks:
        raise ValueError("characterization requires a nonempty family")
    if family.support() != tuple(range(1, family.n + 1)):
        raise ValueError("support gap: some element of [n] has degree zero")
    a = decompose(len(family), family.k)
    elements = [_check_element(family, x, a) for x in range(1, family.n + 1)]
    return CharacterizationReport(
        n=family.n,
        k=family.k,
        size=len(family),
        cascade=a.terms,
        elements=elements,
        verdict=all(e.ok for e in elements),
        witnesses=tuple(e.x for e in elements if e.ok),
    )


def certify_by_witness(family: KFamily, x: int) -> bool:
    """Single-element certificate: conditions holding at x alone prove extremality."""
    if family.k < 2:
        raise ValueError("characterization requires k >= 2")
    if family.support() != tuple(range(1, family.n + 1)):
        raise ValueError("support gap: some element of [n] has degree zero")
    a = decompose(len(family), family.k)
    return _check_element(family, x, a).ok


def min_degree_bound_check(family: KFamily) -> bool:
    """Deleting a minimum-degree star leaves a cascade at least a - 1."""
    if len(family) <= 1 or not (family.n > family.k > 1):
        raise ValueError("need |S| > 1 and n > k > 1")
    if family.support() != tuple(range(1, family.n + 1)):
        raise ValueError("support gap: some element of [n] has degree zero")
    x = min_degree_element(family)
    a = decompose(len(family), family.k)
    b = decompose(len(family) - degree(family, x), family.k)
    return bool(b.terms) and lex_cmp(b, seq_minus(a, 1)) >= 0


# Byte tables over layer bit patterns: entry f describes the subfamily whose
# members are the set bits of f.
_IDENTITY = bytes(range(256))
_PLUS_ONE = bytes(range(1, 256)) + b"\0"
_POPCOUNT = bytes(b.bit_count() for b in range(256))
_ZERO_FLAGS = b"\xff" + bytes(255)  # 0xFF where the byte is zero, else 0
# Tables are built and read a block of 2^16 patterns at a time, by ``_split``
# and ``_blocks`` alone: at (6,3) a 1 MiB temporary per step would set the
# process's peak memory
_BLOCK_POSITIONS = 16


def _doubled(steps: list[bytes], start: bytes = b"\0") -> bytearray:
    """The byte table that starts as start and doubles once per step: the
    second half is the first translated by that step.  From [0], entry f
    has steps[i] applied for every bit i of f; from ``_IDENTITY``, its f-th
    256-byte map composes those steps."""
    table = bytearray(start)
    for step in steps:
        table += table.translate(step)
    return table


def _split(steps: list[bytes]) -> tuple[bytearray, bytearray]:
    """The table doubled once per step, cut into blocks of 2^16 patterns
    (one if fewer): the table doubled from [0] over the low positions, and
    per block the 256-byte map composing the high positions' steps, which a
    pattern's low entry is translated through (see ``_blocks``)."""
    low = min(len(steps), _BLOCK_POSITIONS)
    return _doubled(steps[:low]), _doubled(steps[low:], _IDENTITY)


def _blocks(positions: int) -> Iterator[tuple[int, int, slice]]:
    """Each block of the patterns over the given number of positions, as
    ``_split`` cuts them: its first pattern, the popcount of its high
    positions, and the slice of its map in a ``_split`` map table."""
    low = min(positions, _BLOCK_POSITIONS)
    for block in range(1 << (positions - low)):
        yield block << low, block.bit_count(), slice(256 * block, 256 * (block + 1))


@lru_cache(maxsize=256)
def _or_step(byte: int) -> bytes:
    return bytes(b | byte for b in range(256))


def _zeros(table: bytes) -> Iterator[int]:
    """The positions of the zero bytes of table, ascending."""
    t = table.find(0)
    while t != -1:
        yield t
        t = table.find(0, t + 1)


def _pairs(high: bytes, low: bytes) -> array:
    """One 16-bit int high << 8 | low per entry of two equal-length byte tables."""
    joined = bytearray(2 * len(low))
    first, second = (low, high) if sys.byteorder == "little" else (high, low)
    joined[0::2], joined[1::2] = first, second
    return array("H", joined)


# Guard-bit arithmetic on byte tables read as one int, entry i in bits
# 8i..8i+7.  The degrees it compares are at most the layer size, so they
# fit 7 bits.  The sweeps also pack (d, rest) into one
# state byte d * (W + 1) + rest, where an element has degree D and W sets
# of the layer avoid it, D + W = size; (D + 1)(W + 1) <= ((size + 2) / 2)^2
# stays within 256 states for every layer of at most 30 sets.
if not SWEEP_LAYER_LIMIT <= 30:
    raise RuntimeError("the byte-field sweep tables need SWEEP_LAYER_LIMIT <= 30")


def _fields(table: bytes) -> int:
    return int.from_bytes(table, "little")


def _fill(byte: int, count: int) -> int:
    """count 8-bit fields, each holding byte."""
    return _fields(bytes((byte,)) * count)


def _field_min(a: int, b: int, high: int) -> int:
    """Field-wise minimum of two field tables whose fields are all below 128."""
    ge = ((a | high) - b) & high  # the guard survives where a >= b
    return a ^ ((a ^ b) & (ge - (ge >> 7)))


def _block_sums(parts: list[tuple[bytes, bytes]], positions: int) -> bytearray:
    """One byte per pattern over the given number of positions: the field
    sum, over the ``_split`` parts (low table, maps), of the low table
    translated through the pattern's block map.  Every sum must stay below
    256.  A part whose map is the same in every block adds the same fields
    to each, so it is translated once."""
    width = len(parts[0][0])
    fixed = [m == m[:256] * (len(m) // 256) for _, m in parts]
    base = sum(_fields(t.translate(m[:256])) for (t, m), f in zip(parts, fixed) if f)
    varying = [part for part, f in zip(parts, fixed) if not f]
    table = bytearray(1 << positions)
    for start, _, block in _blocks(positions):
        sums = sum((_fields(t.translate(m[block])) for t, m in varying), base)
        table[start : start + width] = sums.to_bytes(width, "little")
    return table


def _shadow_planes(sheds: list[int], width: int) -> list[tuple[bytearray, bytes]]:
    """The ``_split`` parts that add up to the shadow size of every pattern
    over the positions of ``sheds``, bit masks over ``width`` sets: per 8-bit
    plane, the OR of the plane's shed bytes, with the popcount composed into
    the block maps."""
    planes = []
    for shift in range(0, width, 8):
        low, maps = _split([_or_step(bits >> shift & 0xFF) for bits in sheds])
        planes.append((low, maps.translate(_POPCOUNT)))
    return planes


def _table_blocks(values: bytes, positions: int) -> Iterator[tuple[int, int, bytes, bytes]]:
    """A per-pattern byte table, block by block of ``_blocks``: the block's
    first pattern, the popcount of its high positions, its bytes of values,
    and the popcounts of the low positions.  A pattern's member count is its
    low popcount plus the block's, so no member-count table is kept."""
    low_members, _ = _split([_PLUS_ONE] * positions)
    for start, offset, _ in _blocks(positions):
        yield start, offset, values[start : start + len(low_members)], low_members


class _Layer:
    """Shared tables for exhaustive sweeps over subfamilies of C([n], k).

    The tables are indexed by layer bit pattern and built by doubling: the
    entries for patterns in [2^i, 2^(i+1)) are those of [0, 2^i) with set i
    added.  Shadow masks are built as 8-bit planes, each doubled with one
    ``translate`` through an "OR set i's shed byte" table, and kept only as
    their popcount: one shadow-size byte per pattern; member counts are
    popcounts.  ``closures`` builds the dual table over patterns of the
    (k-1)-sets in ``sub_masks`` from upper shadows with the same planes,
    and ``relabelings`` the action on the patterns of two generators of
    S_n.  Each table is built on first use, through ``_split``, and kept,
    as is the listing of every size that ``_extremal_patterns`` makes.
    """

    def __init__(self, n: int, k: int):
        if not 1 <= k <= n:
            raise ValueError("need 1 <= k <= n")
        self.n, self.k = n, k
        self.masks = _layer_masks(n, k)
        self.size = len(self.masks)
        self.index = {m: i for i, m in enumerate(self.masks)}
        self.sub_masks = _layer_masks(n, k - 1)
        sub_index = {m: i for i, m in enumerate(self.sub_masks)}
        self.shed = [sum(1 << sub_index[f] for f in _shadow_masks((m,))) for m in self.masks]
        self._counts: bytearray | None = None
        self._closures: bytearray | None = None
        self._relabelings: list[list[list[int]]] | None = None
        self._extremal: dict[int, list[int]] | None = None

    def counts(self) -> bytearray:
        """Per-subfamily shadow sizes, one byte each: the sum of the
        ``_shadow_planes`` parts, built block by block.  Member counts are
        not stored; ``_table_blocks`` reads them as popcounts."""
        if self._counts is None:
            planes = _shadow_planes(self.shed, len(self.sub_masks))
            self._counts = _block_sums(planes, self.size)
        return self._counts

    def closures(self) -> bytearray:
        """|K(T)| per pattern T over the (k-1)-sets, one byte each, where
        K(T) is the k-sets all of whose (k-1)-subsets lie in T.

        A k-set lies outside K(T) iff it holds a (k-1)-set outside T, so
        |K(T)| = C(n, k) - |up(~T)|, with up the upper shadow and ~T the
        complement, whose pattern is 2^N - 1 - T.  The upper-shadow sizes
        are built as ``counts`` builds the shadow sizes, from each
        (k-1)-set's mask of k-supersets (the transpose of ``shed``); the
        table is then reversed and each byte v read as C(n, k) - v."""
        if self._closures is None:
            if self.size > 255:
                raise BudgetError(
                    f"closure counts of C({self.n}, {self.k}) sets do not fit one byte"
                )
            positions = len(self.sub_masks)
            supersets = [
                sum(1 << i for i, bits in enumerate(self.shed) if bits >> j & 1)
                for j in range(positions)
            ]
            table = _block_sums(_shadow_planes(supersets, self.size), positions)
            table.reverse()
            self._closures = table.translate(bytes((self.size - v) & 0xFF for v in range(256)))
        return self._closures

    def relabelings(self) -> list[list[list[int]]]:
        """The action on the patterns of two permutations that generate S_n:
        the transposition (1 2) and the n-cycle c: i -> i+1, n -> 1, in that
        order (neither for n = 1).  Per generator and per run of 8
        positions, the image patterns of the run's 256 bit patterns, built
        by doubling as ``_doubled`` builds byte tables.  The image of a
        pattern is the sum over runs of the entry its byte in that run
        selects; a relabeling sends distinct positions to distinct
        positions, so that sum is the OR of the images.  ``_orbit_roots``
        walks orbits on both tables, and ``characterization_sweep`` reads
        the other elements' clauses through the cycle."""
        if self._relabelings is None:
            generators = (
                [_swapped(self.masks, 1, 2), _cycled(self.masks, self.n)] if self.n > 1 else []
            )
            self._relabelings = []
            for masks in generators:
                images = [1 << self.index[m] for m in masks]
                runs = []
                for start in range(0, self.size, 8):
                    run = [0]
                    for bit in images[start : start + 8]:
                        run += [r | bit for r in run]
                    runs.append(run)
                self._relabelings.append(runs)
        return self._relabelings

    def pattern(self, masks: tuple[int, ...]) -> int:
        return sum(1 << self.index[m] for m in masks)

    def family(self, pattern: int) -> KFamily:
        chosen = [self.masks[i] for i in range(self.size) if pattern >> i & 1]
        return KFamily(self.n, self.k, tuple(chosen))


@lru_cache(maxsize=8)
def _layer(n: int, k: int) -> _Layer:
    return _Layer(n, k)


def _sweep_layer(n: int, k: int) -> _Layer:
    """The layer C([n], k) for table sweeps, refused before it is built off
    the ground rule or when its 2^C(n, k) tables exceed the sweep limit.
    Every read of the k-side tables goes through here, so their counts stay
    within their fields; ``_served_layer`` admits the closure table."""
    _check_ground(n, k)
    size = binom(n, k)
    if size > SWEEP_LAYER_LIMIT:
        raise BudgetError(
            f"layer of {size} sets exceeds the sweep limit of "
            f"{SWEEP_LAYER_LIMIT} sets"
        )
    if binom(n, k - 1) > 255:
        raise BudgetError(f"shadow sizes of C({n}, {k - 1}) sets do not fit one byte")
    return _layer(n, k)


def _served_layer(n: int, k: int) -> tuple[_Layer, bool]:
    """The layer whose exact table serves C([n], k), and whether it is the
    closure table, which serves iff k >= 2, C(n, k-1) < C(n, k) and C(n, k-1)
    fits the sweep limit: (n,2) for 4 <= n <= 21, (6,3) and (7,3).  Else the
    k-side tables serve, ties included, through ``_sweep_layer``, which
    refuses them before the layer is built."""
    _check_ground(n, k)
    below = binom(n, k - 1)
    if k >= 2 and below <= SWEEP_LAYER_LIMIT and below < binom(n, k):
        return _layer(n, k), True
    return _sweep_layer(n, k), False


def _distinct_pairs(values: bytes, positions: int) -> set[tuple[int, int]]:
    """The distinct (member count, value) pairs over the patterns of a
    per-pattern byte table, found block by block with a set."""
    pairs = set()
    for _, offset, block, low_members in _table_blocks(values, positions):
        pairs.update(((key & 0xFF) + offset, key >> 8) for key in set(_pairs(block, low_members)))
    return pairs


def _member_min_shadows(layer: _Layer) -> list[int]:
    """min |shadow| per family size m = 0..C(n, k) over all subfamilies of
    C([n], k), from the shadow-size table: the least shadow size paired
    with each member count.

    This is the k-side table.  Where both tables fit it is the oracle that
    ``test_min_shadow_sides_agree`` compares ``_closure_min_shadows`` with,
    and the closure side is its oracle in turn."""
    best = [0xFF] * (layer.size + 1)
    for members, size in _distinct_pairs(layer.counts(), layer.size):
        best[members] = min(best[members], size)
    return best


def _closure_min_shadows(layer: _Layer) -> list[int]:
    """min |shadow| per family size m = 0..C(n, k) over all subfamilies of
    C([n], k), from the closure table over the (k-1)-set patterns T.

    shadow(F) lies in T iff F lies in K(T), so the least shadow of m sets
    is s(m) = min{|T| : |K(T)| >= m}, with no appeal to Kruskal-Katona: the
    least |T| paired with each closure size c, then the least over c >= m.
    ``_member_min_shadows`` is the k-side oracle it is compared with."""
    best = [0xFF] * (layer.size + 1)
    for size, closed in _distinct_pairs(layer.closures(), len(layer.sub_masks)):
        best[closed] = min(best[closed], size)
    for m in range(layer.size - 1, -1, -1):
        best[m] = min(best[m], best[m + 1])
    return best


@lru_cache(maxsize=8)
def _min_shadows(n: int, k: int) -> list[int]:
    """min |shadow| per family size m = 0..C(n, k) over all subfamilies of
    C([n], k), k >= 2, from the table ``_served_layer`` picks."""
    layer, closure = _served_layer(n, k)
    return _closure_min_shadows(layer) if closure else _member_min_shadows(layer)


def brute_force_min_shadow(n: int, k: int, m: int) -> int:
    """Minimum shadow size over all m-subsets of C([n], k), exactly.

    Where C(n, k) or C(n, k-1) fits the sweep limit, the table
    ``_served_layer`` picks answers (``_min_shadows``); both tables range
    over every subfamily and neither assumes the bound.  Otherwise, and
    where that table has more than 2^16 entries but the C(C(n, k), m)
    combinations are at most 2^16, it enumerates the combinations: at most
    ``COMBINATION_BUDGET`` of them, of rows built first, one per set of the
    layer, its shadow as C(n, k-1) bits.  Rows and bits are each at most
    2^16: the count bounds the rows only off m = 1, C(n, k) - 1 and C(n, k)
    (at any other m a layer within the budget holds at most 2,449 sets),
    and their width not at all.  The ground rule is checked where C(n, k)
    overflows or m is out of range, and off k = 1 by ``_served_layer`` on
    the table paths and before the combinations."""
    try:
        layer_size = binom(n, k)
    except OverflowError:
        _check_ground(n, k)
        raise
    if not 1 <= m <= layer_size:
        _check_ground(n, k)
        raise ValueError("family size out of range")
    if k == 1:
        return 1
    # a table of at most 2^16 entries always serves.  The k-side test goes
    # first, so a cached lookup there computes nothing more; math.comb skips
    # binom's range checks, which a value only compared with 16 needs not
    if layer_size <= _BLOCK_POSITIONS or comb(n, k - 1) <= _BLOCK_POSITIONS:
        return _min_shadows(n, k)[m]
    # math.comb: the count is compared, never used, so it may leave 128 bits
    count = comb(layer_size, m)
    # a larger table serves where it fits, unless the combinations are fewer
    if min(layer_size, comb(n, k - 1)) <= SWEEP_LAYER_LIMIT and count > 1 << _BLOCK_POSITIONS:
        return _min_shadows(n, k)[m]
    _check_ground(n, k)
    if count > COMBINATION_BUDGET:
        raise BudgetError(
            f"C({layer_size}, {m}) = {count} combinations exceed the "
            f"enumeration budget of {COMBINATION_BUDGET}"
        )
    best = binom(n, k - 1)  # no shadow is larger than the layer below
    if max(layer_size, best) > 1 << _BLOCK_POSITIONS:
        raise BudgetError(
            f"the combinations read C({n}, {k}) = {layer_size} rows of C({n}, {k - 1}) = "
            f"{best} bits, past the limit of {1 << _BLOCK_POSITIONS} for each"
        )
    for chosen in combinations(_layer(n, k).shed, m):
        acc = 0
        for bits in chosen:  # a plain loop beats reduce(or_, chosen) here
            acc |= bits
        if acc.bit_count() < best:
            best = acc.bit_count()
    return best


def _shadow_bounds(k: int, top: int) -> list[int]:
    """The minimum shadow size of an m-member k-family, for m = 0..top.

    At k = 1 the shadow of any nonempty family is the single empty set.
    """
    if k == 1:
        return [0] + [1] * top
    return [kk_bound(m, k, 1) for m in range(top + 1)]


def _member_patterns(layer: _Layer) -> dict[int, list[int]]:
    """All extremal subfamilies of the layer, grouped by size, as ascending
    bit patterns: the zeros of the bound of each member count xor the
    k-side shadow sizes.  The oracle of ``_closure_patterns`` where both
    tables fit, and vice versa."""
    bounds = _shadow_bounds(layer.k, layer.size)
    out: dict[int, list[int]] = {m: [] for m in range(layer.size + 1)}
    for start, offset, sizes, low_members in _table_blocks(layer.counts(), layer.size):
        target = bytes(bounds[offset:]).ljust(256, b"\0")
        differ = _fields(low_members.translate(target)) ^ _fields(sizes)
        for t in _zeros(differ.to_bytes(len(sizes), "little")):
            out[low_members[t] + offset].append(start + t)
    del out[0]  # the empty pattern
    return out


def _serving_blocks(layer: _Layer, serves: list[int]) -> Iterator[tuple[int, bytes, bytes]]:
    """The closure table block by block of ``_blocks``: the block's first
    pattern, its bytes of |K(T)|, and one byte per pattern T, zero exactly
    where |T| = serves[|K(T)|]."""
    blocks = _table_blocks(layer.closures(), len(layer.sub_masks))
    for start, offset, closed, low_members in blocks:
        # |T| - offset, wrapped past every low popcount where negative
        target = bytes((s - offset) & 0xFF for s in serves).ljust(256, b"\xff")
        differ = _fields(closed.translate(target)) ^ _fields(low_members)
        yield start, closed, differ.to_bytes(len(closed), "little")


@lru_cache(maxsize=8)
def _extremal_counts(n: int, k: int) -> dict[int, int]:
    """The number of extremal m-subsets of C([n], k) per size m = 1..C(n, k),
    k >= 2, from one scan of the closure table.

    With s the least shadow (``_min_shadows``), an extremal m-family lies in
    K(T) for T its shadow, |T| = s(m), and an m-subset of K(T) with
    |T| = s(m) has its shadow inside T, so equal to T: summing C(|K(T)|, m)
    over the T with |T| = s(m) counts each once, under its own shadow.
    Such a T, with c = |K(T)| >= m, has s(m) <= s(c) <= |T|, so |T| = s(c):
    one scan finds the T of every size.  With N_c of them per c, m has the
    sum of N_c C(c, m) over the c >= m with s(c) = s(m)."""
    layer = _layer(n, k)
    least = _min_shadows(n, k)
    serving = [0] * (layer.size + 1)
    # c = 0 serves no size, so the masked bytes are zero exactly off the T found
    for _, closed, differ in _serving_blocks(layer, [0xFF] + least[1:]):
        found = _fields(differ.translate(_ZERO_FLAGS))
        masked = (_fields(closed) & found).to_bytes(len(closed), "little")
        for c in set(masked) - {0}:
            serving[c] += masked.count(c)
    return {
        m: sum(serving[c] * comb(c, m) for c in range(m, layer.size + 1) if least[c] == least[m])
        for m in range(1, layer.size + 1)
    }


def _closure_patterns(layer: _Layer, sizes: range) -> dict[int, list[int]]:
    """The extremal m-subsets of C([n], k), k >= 2, for each m in a range
    of sizes, as ascending bit patterns: the m-subsets of K(T) over the T
    with |T| = s(m) and |K(T)| >= m, with no appeal to Kruskal-Katona.  Each
    size's count is checked against ``COMBINATION_BUDGET`` before anything
    is listed.

    One scan finds the T of every size, as in ``_extremal_counts``: with
    c = |K(T)| and top the largest size, T serves some m in the range iff
    |T| = s(min(c, top)), and then each size down from min(c, top) with
    that s.  ``_member_patterns`` is its oracle where both tables fit, and
    it is the oracle of ``_enum_recursive`` at (7,3)."""
    counts = _extremal_counts(layer.n, layer.k)
    for m in sizes:
        if counts[m] > COMBINATION_BUDGET:
            raise BudgetError(
                f"{counts[m]} extremal families of {m} sets in C([{layer.n}], {layer.k}) "
                f"exceed the enumeration budget of {COMBINATION_BUDGET}"
            )
    least = _min_shadows(layer.n, layer.k)
    top = sizes[-1]
    serves = [least[min(c, top)] if c >= sizes[0] else 0xFF for c in range(layer.size + 1)]
    sheds = [(bits, 1 << i) for i, bits in enumerate(layer.shed)]
    out: dict[int, list[int]] = {m: [] for m in sizes}
    for start, _, differ in _serving_blocks(layer, serves):
        for t in _zeros(differ):
            pattern = start + t
            members = [bit for bits, bit in sheds if bits & pattern == bits]
            m = min(len(members), top)
            while m in out and least[m] == serves[len(members)]:
                out[m] += map(sum, combinations(members, m))
                m -= 1
    for m, patterns in out.items():
        if len(patterns) != counts[m]:
            raise RuntimeError(
                f"listed {len(patterns)} extremal families of {m} sets, counted {counts[m]}"
            )
        patterns.sort()
    return out


def _extremal_patterns(n: int, k: int, sizes: range) -> dict[int, list[int]]:
    """The extremal patterns of C([n], k) by size from the table
    ``_served_layer`` picks: past the sweep limit the sizes given alone,
    within it every size, listed once and kept on the layer, which callers
    must not change."""
    layer, closure = _served_layer(n, k)
    if layer.size > SWEEP_LAYER_LIMIT:
        return _closure_patterns(layer, sizes)
    if layer._extremal is None:
        every = range(1, layer.size + 1)
        layer._extremal = _closure_patterns(layer, every) if closure else _member_patterns(layer)
    return layer._extremal


@lru_cache(maxsize=None)
def _enum_recursive(n: int, k: int, m: int) -> frozenset[tuple[int, ...]]:
    """Extremal families on ground [n] generated by the recursive branches.

    A family either avoids n entirely, or splits at n into a deleted part B
    and a link L; the strict branch needs both parts extremal with the
    numeric identity, the equality branch needs an extremal L covering the
    shadow of an otherwise arbitrary B.  Every family is an ascending mask
    tuple: a part on [n - 1] joined by the lifted link, whose masks all hold
    n and so come after every mask of the part.
    """
    if m == 0:
        return frozenset({()})
    if k > n or m > binom(n, k):
        return frozenset()
    if k == 1:
        return frozenset(combinations(_layer_masks(n, 1), m))
    out: set[tuple[int, ...]] = set(_enum_recursive(n - 1, k, m))
    candidates = _layer_masks(n - 1, k)
    a = decompose(m, k)
    threshold = seq_value(seq_minus(a, 1), k)
    bound_m = seq_value(a, k - 1)
    for d in range(1, min(binom(n - 1, k - 1), m) + 1):
        rest = m - d
        if rest > threshold:
            link_part = seq_value(decompose(d, k - 1), k - 2)
            if bound_m != kk_bound(rest, k, 1) + link_part:
                continue
            deletes = [(b, _shadow_masks(b)) for b in _enum_recursive(n - 1, k, rest)]
            for lmask in _enum_recursive(n - 1, k - 1, d):
                lifted = _lifted(lmask, n)
                for bmask, covered in deletes:
                    if covered.issuperset(lmask):
                        out.add(bmask + lifted)
        elif rest == threshold:
            for lmask in _enum_recursive(n - 1, k - 1, d):
                lset = set(lmask)
                universe = [s for s in candidates if _shadow_masks((s,)) <= lset]
                if len(universe) < rest:
                    continue
                count = comb(len(universe), rest)
                if count > COMBINATION_BUDGET:
                    raise BudgetError(
                        f"equality branch: C({len(universe)}, {rest}) = {count} "
                        f"combinations exceed the budget of {COMBINATION_BUDGET}"
                    )
                lifted = _lifted(lmask, n)
                out.update(chosen + lifted for chosen in combinations(universe, rest))
    return frozenset(out)


def enumerate_extremal(
    n: int, k: int, m: int, up_to_iso: bool = False, method: str = "exhaustive"
) -> list[KFamily]:
    """All extremal m-subsets of C([n], k); canonical forms if up_to_iso.

    The exhaustive method lists them through ``_extremal_patterns``: past
    the sweep limit (the closure table at (7,3) and (n,2), 8 <= n <= 21)
    size m alone, refused before listing when the count exceeds
    ``COMBINATION_BUDGET``.  The closure side is the recursive method's
    oracle at (7,3).  Patterns come in ascending order, classes in the order
    of their first pattern.  Without up_to_iso, a size whose families hold
    more than 10,000,000 sets in all is refused before any family is built,
    and past the sweep limit before listing."""
    _check_ground(n, k)
    if not 1 <= m <= binom(n, k):
        raise ValueError("family size out of range")
    if method == "exhaustive":
        layer, _ = _served_layer(n, k)
        # within the sweep limit a size holds at most C(21, 11) * 11 sets;
        # past it the closure side counts first, and refuses past the budget
        if not up_to_iso and layer.size > SWEEP_LAYER_LIMIT:
            if (count := _extremal_counts(n, k)[m]) <= COMBINATION_BUDGET:
                _refuse_past_set_limit(n, k, m, count)
        patterns = _extremal_patterns(n, k, range(m, m + 1))[m]
        if not up_to_iso:
            return [layer.family(p) for p in patterns]
    elif method == "recursive":
        if n > 10:
            raise BudgetError("recursive enumeration bounded at n <= 10")
        generated = sorted(_enum_recursive(n, k, m))
        # is_extremal of each family, with the bound computed once per size;
        # a 1-family's shadow is the single empty set
        bound = kk_bound(m, k, 1) if k > 1 else 1
        bad = next((masks for masks in generated if len(_shadow_masks(masks)) != bound), None)
        if bad is not None:
            bad_sets = KFamily(n, k, bad).sets()
            raise RuntimeError(f"recursive enumeration generated non-extremal {bad_sets}")
        if not up_to_iso:
            _refuse_past_set_limit(n, k, m, len(generated))
            return [KFamily(n, k, masks) for masks in generated]
        layer = _layer(n, k)
        patterns = [layer.pattern(masks) for masks in generated]
    else:
        raise ValueError(f"unknown method {method!r}")
    return _orbit_classes(layer, patterns)


def _refuse_past_set_limit(n: int, k: int, m: int, count: int) -> None:
    if count * m > _LISTED_SET_LIMIT:
        raise BudgetError(
            f"{count} extremal families of {m} sets in C([{n}], {k}) hold {count * m} sets, "
            f"past the listing limit of {_LISTED_SET_LIMIT}"
        )


def _images(tables: list[list[list[int]]], patterns: list[int]) -> list[list[int]]:
    """Per generator table of ``_Layer.relabelings``, the image of every
    pattern, in the order given.  The patterns are laid out once as bytes,
    and each run's 256 images are looked up on that run's byte of every
    pattern; a pattern's image is the OR over runs of its lookups, taken in
    one pass over the patterns through chained ``map`` calls."""
    if not tables:
        return []
    width = len(tables[0])
    raw = b"".join(map(int.to_bytes, patterns, repeat(width), repeat("little")))
    out = []
    for runs in tables:
        images = map(runs[0].__getitem__, raw[::width])
        for r in range(1, width):
            images = map(or_, images, map(runs[r].__getitem__, raw[r::width]))
        out.append(list(images))
    return out


def _orbit_roots(layer: _Layer, patterns: list[int]) -> list[int]:
    """The root, first in list order, of each isomorphism class of the
    given patterns of the layer.

    Requires distinct patterns closed under every relabeling of [n]; the
    full extremal list of one size is, since relabeling preserves
    extremality.  The classes are then the orbits of S_n on the list.  The
    transposition (1 2) and the n-cycle generate S_n.  ``_images`` gives
    each generator's image of every pattern in one batch, read from
    ``_Layer.relabelings``, and each image is turned into its position in
    the list; an image missing from the list raises ``RuntimeError``: a
    list closed under both generators is closed under S_n, which also
    checks that the enumerator was complete.  Each orbit is then walked on
    list positions from its root.
    """
    position = dict(zip(patterns, range(len(patterns))))
    try:
        moves = [
            list(map(position.__getitem__, images))
            for images in _images(layer.relabelings(), patterns)
        ]
    except KeyError:
        raise RuntimeError("family list is not closed under relabeling") from None
    seen = bytearray(len(patterns))
    roots = []
    for root in range(len(patterns)):
        if seen[root]:
            continue
        roots.append(patterns[root])
        seen[root] = 1
        orbit = [root]
        for i in orbit:
            for move in moves:
                j = move[i]
                if not seen[j]:
                    seen[j] = 1
                    orbit.append(j)
    return roots


def _orbit_classes(layer: _Layer, patterns: list[int]) -> list[KFamily]:
    """One (pruned) ``canonical_form`` per root of ``_orbit_roots``, checked
    by ``test_iso_classes_match_dedup_oracle`` against deduplication."""
    return [canonical_form(layer.family(r)) for r in _orbit_roots(layer, patterns)]


def extremal_class_counts(n: int, k: int) -> dict[int, int]:
    """The number of isomorphism classes of extremal m-subsets of C([n], k)
    per size m: the orbit roots of every size, listed at once, each size's
    list dropped after its walk, and no canonical form taken."""
    layer, _ = _served_layer(n, k)
    sizes = range(1, layer.size + 1)
    listing = dict(_extremal_patterns(n, k, sizes))  # pop frees no cached list
    return {m: len(_orbit_roots(layer, listing.pop(m))) for m in sizes}


def uniqueness_predicate(n: int, k: int, m: int) -> bool:
    """True iff the colex segment should be the unique extremal family.

    Encodes the answer to the uniqueness question of Füredi and Griggs
    (Families of finite sets with minimum shadows, Combinatorica 6, 1986)
    and Mörs (A generalization of a theorem of Kruskal, Graphs Combin. 1,
    1985) on the ground set [n]: the m-subsets of C([n], k) with minimum
    shadow form a single isomorphism class, that of the colex segment, iff
    the cascade decomposition of m has fewer than k terms, or m is one less
    than C(n', k) for some k < n' <= n.  ``extremal_iso_classes`` checks it
    exhaustively at (6, 3).  The statement is for k >= 2; at k = 1 every
    size has one class, which the rule would deny at m = n.
    """
    if k < 2:
        raise ValueError("the uniqueness statement needs k >= 2")
    if not 0 < m <= binom(n, k):
        raise ValueError("family size out of range")
    a = decompose(m, k)
    if len(a) < k:
        return True
    return any(m == binom(np, k) - 1 for np in range(k + 1, n + 1))


# ---------------------------------------------------------------------------
# flat-table sweeps over every subfamily of one layer


def _clause_blocks(layer: _Layer, x: int) -> Iterator[tuple[int, bytes]]:
    """The characterization's conditions at element x of every subfamily of
    C([n], k), k >= 2, block by block of ``_blocks``.  For each block it
    yields the block's first pattern and one byte per pattern of the block,
    zero exactly when every condition holds at x.  An element outside the
    pattern's support passes, as compacting removes it.

    At element x of a pattern P, let L be the link, d = |L|, and R the
    deleted part, of rest sets, m = d + rest and t the threshold for m.  The
    sets of shadow(P) that hold x are x joined to shadow(L); those that avoid
    it are U = shadow(R) | L, which holds shadow(R).  So with sizes |.|,
    |U| = size[P] - |shadow(L)| and |L - shadow(R)| = |U| - |shadow(R)|, both
    exact field subtractions, and the conditions at x read:

      - rest >= t, and L extremal: |shadow(L)| = link_bound[d];
      - equality branch, rest = t: shadow(R) inside L, that is |U| = d;
      - strict branch, rest > t: L inside shadow(R), |L - shadow(R)| = 0;
        then R extremal is |U| = bound[rest]; and the numeric identity
        bound[m] = bound[rest] + link_bound[d].

    Every target is a function of (d, rest), held in a state byte
    d * (W + 1) + rest, where W sets of the layer avoid x; it fits a byte on
    every layer of at most 30 sets (see ``SWEEP_LAYER_LIMIT``).  The state
    byte, and the shadows of L and of R as 8-bit planes, are cut by
    ``_split``; each target and mask is composed into the state's block
    maps, and a block costs one ``translate`` per table.  The targets are
    0xFF where the threshold or the numeric identity fails, which no size
    reaches: sizes are at most C(n, k - 1),
    ``_sweep_layer`` refuses more than 255, and with n > k >= 2 it is 255
    only at (255, 2), far over the sweep limit.

    Every quantity above is a size, and d and W are the same at every
    element, so a relabeling sigma of [n] maps the table of x onto that of
    sigma(x): the field of P at x equals the field of sigma(P) at sigma(x).
    ``characterization_sweep`` builds element n's table only, for that
    reason.  ``characterize`` stays the family-at-a-time oracle the tests
    compare every element's table against.
    """
    k = layer.k
    sizes = layer.counts()
    bound = _shadow_bounds(k, layer.size)
    link_bound = _shadow_bounds(k - 1, layer.size)
    thresholds = [0] + [
        seq_value(seq_minus(decompose(m, k), 1), k) for m in range(1, layer.size + 1)
    ]
    holds = _element_flags(layer.masks, x)
    degree = sum(holds)
    width = layer.size - degree + 1  # the values of rest
    # per state: the targets of |shadow(L)| and |U|, and the masks 0xFF on
    # the strict branch and where |U| is compared, d > 0 with the threshold
    # met; all 0 where d = 0
    link_target, union_target, strict, applies = (bytearray(256) for _ in range(4))
    for s in range(width, (degree + 1) * width):
        d, rest = divmod(s, width)
        m = d + rest
        if rest < thresholds[m]:
            link_target[s] = 0xFF
            continue
        link_target[s] = link_bound[d]
        applies[s] = 0xFF
        if rest == thresholds[m]:
            union_target[s] = d
        else:
            numeric = bound[m] == bound[rest] + link_bound[d]
            union_target[s] = bound[rest] if numeric else 0xFF
            strict[s] = 0xFF
    add_d = bytes((b + width) & 0xFF for b in range(256))
    state, maps = _split([add_d if h else _PLUS_ONE for h in holds])
    targets = [maps.translate(t) for t in (link_target, union_target, strict, applies)]
    # shadow(L) and shadow(R) in plane bits of the (k-1)-sets that hold x and
    # that avoid it: a set holding x adds its subsets with x, one avoiding x
    # all of its subsets
    parts = []
    sub_holds = _element_flags(layer.sub_masks, x)
    for side in (1, 0):
        subs = [i for i, h in enumerate(sub_holds) if h == side]
        sheds = [
            sum(1 << j for j, i in enumerate(subs) if bits >> i & 1) if h == side else 0
            for bits, h in zip(layer.shed, holds)
        ]
        parts.append(_shadow_planes(sheds, len(subs)))
    block_size = len(state)
    for start, _, block in _blocks(layer.size):
        link_target, union_target, strict, applies = (
            _fields(state.translate(t[block])) for t in targets
        )
        link_sizes, deleted_sizes = (
            sum(_fields(p.translate(c[block])) for p, c in planes) for planes in parts
        )
        union = _fields(sizes[start : start + block_size]) - link_sizes
        bad = link_sizes ^ link_target | (
            union ^ union_target | (union - deleted_sizes) & strict
        ) & applies
        yield start, bad.to_bytes(block_size, "little")


def characterization_sweep(n: int, k: int = 3) -> dict:
    """Compare the characterization verdict with direct extremality for every
    nonempty subfamily of C([n], k), n > k >= 2; returns counts and any
    mismatches, in ascending pattern order.

    The verdict is the conjunction over elements of the clauses of
    ``_clause_blocks``, which evaluates every condition of the
    characterization as whole byte tables built from this layer's shadow
    sizes and shed bits, so no other layer is built.  Only element n's table
    is built.  With c the n-cycle i -> i+1 of [n], c^j maps element n - j
    to n, and the clauses are invariant under relabeling, so P passes at
    n - j iff c^j P passes at n.  P is thus accepted iff P, c P, ...,
    c^(n-1) P all pass at n, that is iff its whole c-orbit does (c^n is
    the identity).

    Each pattern P that passes at n (6,325 of 2^20 at (6,3)) gets one image
    c P, read from the cycle table of ``_Layer.relabelings``.  Where c P
    fails at n, P fails at n - 1, and each passing c^-j P before it in its
    orbit, up to the first that fails at n, fails at n - 1 - j.  Walking
    back from every such P rejects, once each, exactly the passing patterns
    whose chain leaves the patterns that pass at n; the rest are accepted.
    The mismatches are the accepted patterns that are not extremal and the
    extremal ones that are not accepted, with the extremal patterns read
    from the listing of ``_extremal_patterns`` the isomorphism sweeps share.
    ``characterize`` stays the family-at-a-time oracle the tests compare
    each element's table against.
    """
    if not n > k >= 2:
        raise ValueError("the characterization sweep needs n > k >= 2")
    layer = _sweep_layer(n, k)
    passed = []
    for start, bad in _clause_blocks(layer, n):
        passed += (start + p for p in _zeros(bad))
    (images,) = _images(layer.relabelings()[1:], passed)  # c P per passing P
    at_n = set(passed)
    before = dict(zip(images, passed))  # c^-1 Q, where it passes at n
    rejected = []
    for p, image in zip(passed, images):
        if image not in at_n:
            # P fails at n - 1; so does each passing c^-j P before it
            while p is not None:
                rejected.append(p)
                p = before.get(p)
    accepted = at_n.difference(rejected)
    accepted.discard(0)  # the empty pattern
    # accepted ^ extremal in place, a size at a time: no set of every extremal pattern
    extremal = 0
    for patterns in _extremal_patterns(n, k, range(1, layer.size + 1)).values():
        extremal += len(patterns)
        accepted.symmetric_difference_update(patterns)
    return {
        "n": n,
        "k": k,
        "checked": (1 << layer.size) - 1,
        "extremal": extremal,
        "mismatches": sorted(accepted),
    }


def extremal_iso_classes(n: int, k: int, m: int) -> list[KFamily]:
    """Isomorphism classes of extremal m-subsets of C([n], k), as canonical forms."""
    return enumerate_extremal(n, k, m, up_to_iso=True)


def min_degree_sweep(n: int, k: int) -> int:
    """Check the minimum-degree deletion bound over every admissible subfamily;
    returns the number checked, raising at the first violation.

    Deleting the star of a minimum-degree element x leaves the rest = m - d
    sets that avoid x, so at most W = C(n - 1, k) of them.  The bound thus
    depends only on the state byte d * (W + 1) + rest = m + W * d of
    ``_clause_blocks``, which one field sum of the member counts and the
    minimum-degree table gives without carries; the latter is the field-wise
    minimum of one degree table per element.  One 256-byte map sends each
    state to 0 where the bound is not stated (m <= 1, or d = 0: not full
    support), 1 where it holds and 2 where it fails, and one ``translate``
    applies it.  The tables go through the one block walk: each element's
    degree table is cut by ``_split``, and a pattern's member count is its
    low popcount, with the block's popcount shifted into the verdict map,
    so no member-count table is built and neither is ``_Layer.counts``.
    ``min_degree_bound_check`` is the family-at-a-time oracle the tests
    compare against.
    """
    if not n > k > 1:
        raise ValueError("the minimum-degree bound needs n > k > 1")
    layer = _sweep_layer(n, k)
    elements = [
        _split([_PLUS_ONE if h else _IDENTITY for h in _element_flags(layer.masks, x)])
        for x in range(1, n + 1)
    ]
    low_members, _ = _split([_PLUS_ONE] * layer.size)
    block_size = len(low_members)
    high = _fill(0x80, block_size)
    degree = binom(n - 1, k - 1)  # of every element in the whole layer
    width = layer.size - degree + 1  # the values of rest
    verdicts = bytearray(256)
    for state in range(width, (degree + 1) * width):
        d, rest = divmod(state, width)
        if d + rest > 1:
            b = decompose(rest, k)
            held = b.terms and lex_cmp(b, seq_minus(decompose(d + rest, k), 1)) >= 0
            verdicts[state] = 1 if held else 2
    checked = 0
    ceiling, members = _fill(0x7F, block_size), _fields(low_members)
    for start, offset, block in _blocks(layer.size):
        least = ceiling
        for degrees, composed in elements:
            least = _field_min(least, _fields(degrees.translate(composed[block])), high)
        # the state less the block's popcount, which the shifted map adds back
        states = members + (width - 1) * least
        shifted = verdicts[offset:].ljust(256, b"\0")
        table = states.to_bytes(block_size, "little").translate(shifted)
        failed = table.find(2)
        if failed != -1:
            raise RuntimeError(f"minimum-degree bound failed at pattern {start + failed}")
        checked += block_size - table.count(0)
    return checked
