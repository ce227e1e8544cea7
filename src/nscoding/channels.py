"""Discrete memoryless channels with an i.i.d. (or block) random state.

A channel is a conditional kernel N(y|x,s) over finite alphabets
together with a state distribution P_S.  Kernels are stored as nested
tuples of Fractions indexed ``kernel[s][x][y]`` — the same layout the
file format uses — so every probability in the model is exact.
"""

from __future__ import annotations

import bisect
import functools
import json
import math
import reprlib
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterator, Optional, Sequence

import numpy as np

from .indexing import seq_to_index
from .rational import as_distribution, as_integer, as_rational, format_rational, int_dtype

__all__ = [
    "ChannelWithState",
    "BlockStateSource",
    "make_channel",
    "lift_csir",
    "check_block_length",
    "state_blocks",
    "state_block_count",
    "block_law_array",
    "builtin_z0z1",
    "builtin_product_xs",
    "builtin_channel",
    "load_channel_file",
    "read_json",
    "save_channel_file",
    "BUILTIN_CHANNELS",
]

ZERO = Fraction(0)


@dataclass(frozen=True)
class BlockStateSource:
    """A joint distribution over length-n state sequences.

    Used when the state is not i.i.d. across channel uses; `atoms` maps
    each supported sequence to its probability.
    """

    n: int
    atoms: tuple[tuple[tuple[int, ...], Fraction], ...]

    def validate(self, s_size: int) -> None:
        if self.n < 1:
            raise ValueError(f"block length must be >= 1, got {self.n}")
        seen = set()
        for seq, _ in self.atoms:
            if len(seq) != self.n:
                raise ValueError(f"state sequence {seq} does not have length {self.n}")
            if any(not 0 <= s < s_size for s in seq):
                raise ValueError(f"state sequence {seq} leaves the alphabet of size {s_size}")
            if seq in seen:
                raise ValueError(f"state sequence {seq} listed twice")
            seen.add(seq)
        as_distribution((p for _, p in self.atoms), "block_state")

    def support(self) -> tuple[tuple[int, ...], ...]:
        return tuple(seq for seq, p in self.atoms if p > 0)


@dataclass(frozen=True)
class ChannelWithState:
    """Kernel N(y|x,s) plus a per-letter state distribution P_S."""

    x_size: int
    y_size: int
    s_size: int
    kernel: tuple[tuple[tuple[Fraction, ...], ...], ...]  # [s][x][y]
    state_dist: tuple[Fraction, ...]
    block_state: Optional[BlockStateSource] = None

    # -- access ---------------------------------------------------------

    def prob(self, y: int, x: int, s: int) -> Fraction:
        """N(y|x,s)."""
        return self.kernel[s][x][y]

    def kernel_array(self) -> np.ndarray:
        """Float view of the kernel, shape (s_size, x_size, y_size)."""
        return np.array(
            [[[float(p) for p in row] for row in state] for state in self.kernel],
            dtype=float,
        )

    def state_array(self) -> np.ndarray:
        return np.array([float(p) for p in self.state_dist], dtype=float)

    # -- validation ------------------------------------------------------

    def validate(self) -> None:
        for name, size in (("x_size", self.x_size), ("y_size", self.y_size), ("s_size", self.s_size)):
            if size < 1:
                raise ValueError(f"{name} must be >= 1, got {size}")
        if len(self.kernel) != self.s_size:
            raise ValueError(f"kernel has {len(self.kernel)} state slices, expected {self.s_size}")
        for s, state_slice in enumerate(self.kernel):
            if len(state_slice) != self.x_size:
                raise ValueError(f"kernel slice s={s} has {len(state_slice)} rows, expected {self.x_size}")
            for x, row in enumerate(state_slice):
                if len(row) != self.y_size:
                    raise ValueError(f"kernel row s={s}, x={x} has {len(row)} entries, expected {self.y_size}")
                as_distribution(row, f"kernel row s={s}, x={x}")
        if len(self.state_dist) != self.s_size:
            raise ValueError(f"state_dist has {len(self.state_dist)} entries, expected {self.s_size}")
        as_distribution(self.state_dist, "state_dist")
        if self.block_state is not None:
            self.block_state.validate(self.s_size)

    # -- symmetry ------------------------------------------------------------

    @functools.cached_property
    def automorphisms(self) -> tuple[int, tuple[tuple[tuple[int, ...], ...], ...]]:
        """(order, generators) of the group of single-letter automorphisms
        (pi_s, pi_x, pi_y): N(pi_y y | pi_x x, pi_s s) = N(y|x, s) and
        P(pi_s s) = P(s), each generator as its three permutation tuples.
        A block source is not consulted.  Kept on the channel once found.

        The letters (states, then inputs, then outputs) are coloured by
        refinement on the nonzero kernel entries: a letter's colour is
        refined by the multiset of its nonzero entries with the colours of
        the two letters beside each, until no class splits.  A letter meets
        every pair of letters of the other two roles, so its zero entries
        follow from its nonzero ones and split no class.  An automorphism
        keeps colours, so a channel whose letters all get their own colour
        has the trivial group at once.  Otherwise a stabilizer chain: with
        the base letters fixed (each given a colour of its own), the orbit
        of the first letter a of a class of several is the letters c of its
        class onto which `extend` finds a map fixing the base; a letter the
        maps found at that level already reach needs no search.  The order
        is the product of the orbits' sizes, and the maps found generate
        the group.

        `extend` is individualization-refinement: it refines both markings
        and maps each class's letters in order onto the other side's, each
        onto the first letter after it, cyclically, so that a symmetric
        class comes out as one cycle, whose powers reach all of it.  If that
        map is not an automorphism, it marks the first letter of a class of
        several against each letter of its colour on the other side and
        recurses; the recursion depth is the number of letters marked so on
        one path.
        """
        S, X, Y = self.s_size, self.x_size, self.y_size
        code: dict = {}  # each distinct probability as a small int, cheap to hash and compare
        state = [code.setdefault(p.as_integer_ratio(), len(code)) for p in self.state_dist]
        letters = S + X + Y  # state s, input S + x, output S + X + y
        entries = {(s, S + x, S + X + y): code.setdefault(p.as_integer_ratio(), len(code))
                   for s, sl in enumerate(self.kernel) for x, row in enumerate(sl) for y, p in enumerate(row) if p}
        start = [hash((0, p)) for p in state] + [hash(1)] * X + [hash(2)] * Y

        @functools.cache
        def colours(marked: tuple[int, ...]) -> list[int]:
            """The refined colours with the letters `marked` given colours of
            their own, by position: equal for two markings an automorphism
            maps onto each other."""
            colour = list(start)
            for depth, letter in enumerate(marked):
                colour[letter] = hash((colour[letter], depth))
            count = len(set(colour))
            while count < letters:
                seen = [[] for _ in range(letters)]
                for (s, x, y), v in entries.items():
                    seen[s].append((colour[x], colour[y], v))
                    seen[x].append((colour[s], colour[y], v))
                    seen[y].append((colour[s], colour[x], v))
                refined = [hash((c, *sorted(near))) for c, near in zip(colour, seen)]
                if len(set(refined)) == count:
                    break
                colour, count = refined, len(set(refined))
            return colour

        def extend(left: tuple[int, ...], right: tuple[int, ...]):
            """An automorphism taking the letters `left` onto `right` in
            order; None if there is none."""
            mine, theirs = colours(left), colours(right)
            if sorted(mine) != sorted(theirs):
                return None
            classes: dict[int, tuple[list[int], list[int]]] = {}  # by colour: its letters on each side
            for letter, c in enumerate(mine):
                classes.setdefault(c, ([], []))[0].append(letter)
            for letter, c in enumerate(theirs):
                classes[c][1].append(letter)
            image = [0] * letters
            for ours, others in classes.values():
                shift = bisect.bisect_right(others, ours[0])
                others[:] = others[shift:] + others[:shift]  # from the first letter after ours[0], cyclically
                for a, c in zip(ours, others):
                    image[a] = c
            if (all(state[image[s]] == state[s] for s in range(S))
                    and all(entries.get((image[s], image[x], image[y])) == v for (s, x, y), v in entries.items())):
                return image
            ours, others = next((pair for pair in classes.values() if len(pair[0]) > 1), ((), ()))
            for c in others:  # mark the first letter of a class of several against each of its colour
                g = extend(left + (ours[0],), right + (c,))
                if g is not None:
                    return g
            return None

        base: tuple[int, ...] = ()
        order, generators = 1, []
        while True:
            colour = colours(base)
            classes: dict[int, list[int]] = {}
            for letter, c in enumerate(colour):
                classes.setdefault(c, []).append(letter)
            a = next((letter for letter in range(letters) if len(classes[colour[letter]]) > 1), None)
            if a is None:  # every letter is fixed by the maps that fix the base
                break
            orbit, found = {a}, []
            for c in classes[colour[a]]:
                if c in orbit:
                    continue
                g = extend(base + (a,), base + (c,))
                if g is not None:
                    found.append(tuple(g))
                    # the orbit of a under the maps found at this level: the new
                    # map on each letter reached so far, then every map on each
                    # letter newly reached
                    frontier = [g[letter] for letter in orbit]
                    while frontier:
                        letter = frontier.pop()
                        if letter not in orbit:
                            orbit.add(letter)
                            frontier += (h[letter] for h in found)
            order *= len(orbit)
            generators += found
            base += (a,)
        return order, tuple((g[:S], tuple(l - S for l in g[S:S + X]), tuple(l - S - X for l in g[S + X:]))
                            for g in generators)

    @functools.cached_property
    def _block_laws(self) -> dict[int, tuple[np.ndarray, int]]:
        """`block_law_array`'s laws by block length, kept on the channel
        once built, as `automorphisms` is."""
        return {}

    # -- block quantities --------------------------------------------------

    def iid_block_prob(self, ss: Sequence[int]) -> Fraction:
        p = Fraction(1)
        for s in ss:
            p *= self.state_dist[s]
        return p

    def state_block_prob(self, ss: Sequence[int]) -> Fraction:
        """P(S^n = ss), as `state_blocks` weighs it: the block source's atom,
        or the i.i.d. product; 0 for a block `state_blocks` does not yield."""
        ss = tuple(ss)
        check_block_length(self, len(ss))
        if self.block_state is not None:
            return dict(self.block_state.atoms).get(ss, ZERO)
        if not all(0 <= s < self.s_size for s in ss):
            return ZERO
        return self.iid_block_prob(ss)


def make_channel(
    kernel: Sequence[Sequence[Sequence[object]]],
    state_dist: Sequence[object],
    block_state: Optional[BlockStateSource] = None,
) -> ChannelWithState:
    """Build and validate a channel from nested [s][x][y] kernel entries.

    Entries may be Fractions, ints or rational strings ("1/2", "0.25").
    """
    kern = tuple(
        tuple(tuple(as_rational(p) for p in row) for row in state_slice) for state_slice in kernel
    )
    dist = tuple(as_rational(p) for p in state_dist)
    s_size = len(kern)
    x_size = len(kern[0]) if s_size else 0
    y_size = len(kern[0][0]) if x_size else 0
    ch = ChannelWithState(
        x_size=x_size,
        y_size=y_size,
        s_size=s_size,
        kernel=kern,
        state_dist=dist,
        block_state=block_state,
    )
    ch.validate()
    return ch


def lift_csir(ch: ChannelWithState) -> ChannelWithState:
    """Reveal the state at the receiver.

    The lifted channel outputs the pair [y, s] (flat index y * s_size + s,
    y-major) with kernel N'([y,s']|x,s) = N(y|x,s) * 1[s'=s].
    """
    zero = Fraction(0)
    kern = []
    for s in range(ch.s_size):
        state_slice = []
        for x in range(ch.x_size):
            row = [zero] * (ch.y_size * ch.s_size)
            for y in range(ch.y_size):
                row[y * ch.s_size + s] = ch.kernel[s][x][y]
            state_slice.append(tuple(row))
        kern.append(tuple(state_slice))
    return ChannelWithState(
        x_size=ch.x_size,
        y_size=ch.y_size * ch.s_size,
        s_size=ch.s_size,
        kernel=tuple(kern),
        state_dist=ch.state_dist,
        block_state=ch.block_state,
    )


# -- the block law ----------------------------------------------------------
#
# Every exact number (LP objectives, the classical search, scheme success)
# is a sum against P(s^n) * prod_i N(y_i|x_i,s_i).  `block_law_array` is
# the one table of those products: integer numerators over one reduced
# denominator, built by per-position outer products.  `state_blocks` below
# weighs one state block at a time where a caller needs only a few.


def check_block_length(ch: ChannelWithState, n: int) -> None:
    """ValueError unless n >= 1 and, with a block source, n is its length."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    source = ch.block_state
    if source is not None and source.n != n:
        raise ValueError(f"block length {n} does not match block source length {source.n}")


def state_blocks(ch: ChannelWithState, n: int) -> Iterator[tuple[int, tuple[int, ...], Fraction]]:
    """(index, s^n, P(s^n)) for every state block of positive probability,
    in index order.

    The weight comes from the attached block source, whose length must be
    n, and otherwise from the i.i.d. product over the letters with P(s) > 0.
    """
    check_block_length(ch, n)
    source = ch.block_state
    if source is not None:
        return ((seq_to_index(ss, ch.s_size), ss, p) for ss, p in sorted(source.atoms) if p)
    support = [s for s in range(ch.s_size) if ch.state_dist[s]]

    def walk() -> Iterator[tuple[int, tuple[int, ...], Fraction]]:
        # the support's letters are in range, so a block's index is the
        # plain sum of their place values, built alongside the blocks
        places = [ch.s_size ** (n - 1 - i) for i in range(n)]
        indices = map(sum, product(*([s * w for s in support] for w in places)))
        # P(s^n) is the product of the letters' numerators over their lcm d,
        # divided by d^n: one Fraction per distinct product
        d = math.lcm(*(ch.state_dist[s].denominator for s in support))
        nums = [ch.state_dist[s].numerator * (d // ch.state_dist[s].denominator) for s in support]
        keys = map(math.prod, product(nums, repeat=n))
        weights: dict[int, Fraction] = {}
        for i, ss, key in zip(indices, product(support, repeat=n), keys):
            weight = weights.get(key)
            if weight is None:
                weight = weights[key] = Fraction(key, d**n)
            yield i, ss, weight

    return walk()


def state_block_count(ch: ChannelWithState, n: int) -> int:
    """How many blocks `state_blocks` yields, counted without walking them."""
    check_block_length(ch, n)
    source = ch.block_state
    return len(source.support()) if source is not None else sum(1 for p in ch.state_dist if p) ** n


def block_law_array(ch: ChannelWithState, n: int) -> tuple[np.ndarray, int]:
    """(law, D): law[s, x, y] = D * P(s^n) * N^n(y^n|x^n,s^n) as integers
    over the least common denominator D of the nonzero cells, indexed by
    block indices, zero on state blocks of probability 0.

    The law is read-only and kept on the channel for its lifetime, one per
    n, so a channel's searches and LP builds at one n share one table.  An
    equal channel built separately, `lift_csir(ch)` or a
    `dataclasses.replace` of it builds its own.
    """
    check_block_length(ch, n)
    laws = ch._block_laws
    if n not in laws:
        laws[n] = _build_block_law(ch, n)
    return laws[n]


def _build_block_law(ch: ChannelWithState, n: int) -> tuple[np.ndarray, int]:
    """`block_law_array`'s table: the outer product over positions of the
    integer kernel numerators (times the state numerators for an i.i.d.
    state; a block source weighs its atoms once at the end), held as int64
    when the unreduced denominator fits and as Python ints otherwise, then
    divided by the gcd of that denominator and every entry."""
    kd = math.lcm(*(p.denominator for sl in ch.kernel for row in sl for p in row))
    kernel = [[[p.numerator * (kd // p.denominator) for p in row] for row in sl] for sl in ch.kernel]
    source = ch.block_state
    if source is None:
        sd = math.lcm(*(p.denominator for p in ch.state_dist))
        letter = [p.numerator * (sd // p.denominator) for p in ch.state_dist]
        den = (sd * kd) ** n
    else:
        sd = math.lcm(*(p.denominator for _seq, p in source.atoms))
        letter = [1] * ch.s_size  # the atoms weigh whole blocks below
        den = sd * kd**n
    dtype = int_dtype(den, 1)
    step = np.array(kernel, dtype=dtype) * np.array(letter, dtype=dtype)[:, None, None]
    law = np.ones((1, 1, 1), dtype=dtype)
    for _ in range(n):
        law = (law[:, None, :, None, :, None] * step[None, :, None, :, None, :]).reshape(
            law.shape[0] * ch.s_size, law.shape[1] * ch.x_size, law.shape[2] * ch.y_size
        )
    if source is not None:
        weights = np.zeros(law.shape[0], dtype=dtype)
        for seq, p in source.atoms:
            weights[seq_to_index(seq, ch.s_size)] = p.numerator * (sd // p.denominator)
        law *= weights[:, None, None]
    g = math.gcd(den, int(np.gcd.reduce(law, axis=None)))
    law //= g
    law.flags.writeable = False
    return law, den // g


# -- builtins -------------------------------------------------------------


def builtin_z0z1() -> ChannelWithState:
    """Binary channel that is a Z-channel in each state.

    State 0: input 0 is noiseless, input 1 flips with probability 1/2.
    State 1: the mirror image (input 1 noiseless).  Uniform state.
    """
    h = Fraction(1, 2)
    return make_channel(
        kernel=[
            [[1, 0], [h, h]],  # s = 0
            [[h, h], [0, 1]],  # s = 1
        ],
        state_dist=[h, h],
    )


def builtin_product_xs() -> ChannelWithState:
    """Noiseless product channel y = x*s with a three-sequence block state.

    The block source is uniform over {(0,1,1), (1,0,1), (1,1,0)} at
    n = 3; the per-letter state_dist records the matching single-letter
    marginal (each position is 0 in exactly one of the three atoms).
    """
    third = Fraction(1, 3)
    atoms = (
        ((0, 1, 1), third),
        ((1, 0, 1), third),
        ((1, 1, 0), third),
    )
    return make_channel(
        # y = x*s: s=0 forces y=0; s=1 copies x.
        kernel=[
            [[1, 0], [1, 0]],  # s = 0
            [[1, 0], [0, 1]],  # s = 1
        ],
        state_dist=[third, 2 * third],
        block_state=BlockStateSource(n=3, atoms=atoms),
    )


BUILTIN_CHANNELS = {
    "z0z1": builtin_z0z1,
    "product-xs": builtin_product_xs,
}


def builtin_channel(name: str) -> ChannelWithState:
    try:
        factory = BUILTIN_CHANNELS[name]
    except KeyError:
        raise ValueError(
            f"unknown builtin channel {name!r}; available: {', '.join(sorted(BUILTIN_CHANNELS))}"
        ) from None
    return factory()


# -- file format ----------------------------------------------------------


def _is_int(v: object) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _block_state_from_json(raw: object) -> BlockStateSource:
    """{"n": int, "atoms": [[sequence, probability], ...]}, or ValueError."""
    if not (isinstance(raw, dict) and _is_int(raw.get("n")) and isinstance(raw.get("atoms"), list)):
        raise ValueError("block_state must be an object with an integer n and an atoms list")
    atoms = []
    for atom in raw["atoms"]:
        if not (
            isinstance(atom, list) and len(atom) == 2
            and isinstance(atom[0], list) and all(_is_int(s) for s in atom[0])
        ):
            raise ValueError(f"block_state atom {reprlib.repr(atom)} is not a [sequence, probability] pair")
        atoms.append((tuple(atom[0]), as_rational(atom[1])))
    return BlockStateSource(n=raw["n"], atoms=tuple(atoms))


def read_json(path: str) -> object:
    """The one reader of JSON input files: decimals read exactly through
    `as_rational` and integers through `as_integer`; malformed JSON, a
    number either reader refuses, and nesting past the parser's recursion
    limit are a ValueError naming the path."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, parse_float=as_rational, parse_int=as_integer)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON: {exc}") from exc
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        except RecursionError:
            raise ValueError(f"{path}: nested too deeply to read as JSON") from None


def load_channel_file(path: str) -> ChannelWithState:
    """Load a channel from a JSON file read by `read_json`; every refusal
    is a ValueError naming the path.

    Fields: x_size, y_size, s_size, kernel ([s][x][y] nested arrays of
    rational strings or numbers), state_dist, and optionally
    block_state = {"n": ..., "atoms": [[sequence, probability], ...]}.
    """
    doc = read_json(path)
    try:
        if not isinstance(doc, dict):
            raise ValueError("expected a JSON object")
        for field in ("x_size", "y_size", "s_size", "kernel", "state_dist"):
            if field not in doc:
                raise ValueError(f"missing field {field!r}")
        declared = (doc["x_size"], doc["y_size"], doc["s_size"])
        if not all(_is_int(v) for v in declared):
            raise ValueError("x_size, y_size and s_size must be integers")
        kernel = doc["kernel"]
        if not (
            isinstance(kernel, list)
            and all(isinstance(sl, list) and all(isinstance(row, list) for row in sl) for sl in kernel)
        ):
            raise ValueError("kernel must be [s][x][y] nested lists")
        if not isinstance(doc["state_dist"], list):
            raise ValueError("state_dist must be a list")
        raw = doc.get("block_state")
        block = None if raw is None else _block_state_from_json(raw)
        ch = make_channel(kernel, doc["state_dist"], block_state=block)
        if declared != (ch.x_size, ch.y_size, ch.s_size):
            raise ValueError(f"declared sizes {declared} do not match kernel shape {(ch.x_size, ch.y_size, ch.s_size)}")
        return ch
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def save_channel_file(ch: ChannelWithState, path: str) -> None:
    """Write a channel as JSON; load_channel_file(save(...)) is the identity."""
    doc = {
        "x_size": ch.x_size,
        "y_size": ch.y_size,
        "s_size": ch.s_size,
        "kernel": [
            [[format_rational(p) for p in row] for row in state_slice] for state_slice in ch.kernel
        ],
        "state_dist": [format_rational(p) for p in ch.state_dist],
    }
    if ch.block_state is not None:
        doc["block_state"] = {
            "n": ch.block_state.n,
            "atoms": [[list(seq), format_rational(p)] for seq, p in ch.block_state.atoms],
        }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
