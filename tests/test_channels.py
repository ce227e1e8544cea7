import dataclasses
import json
import re
import time
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from nscoding.channels import (
    BlockStateSource,
    ChannelWithState,
    builtin_channel,
    builtin_product_xs,
    builtin_z0z1,
    lift_csir,
    load_channel_file,
    make_channel,
    save_channel_file,
    state_block_count,
    state_blocks,
)
from nscoding.indexing import seq_to_index

H = Fraction(1, 2)


def test_z0z1_kernel_entries():
    ch = builtin_z0z1()
    assert (ch.x_size, ch.y_size, ch.s_size) == (2, 2, 2)
    # state 0: input 0 noiseless, input 1 a coin flip
    assert ch.prob(0, 0, 0) == 1 and ch.prob(1, 0, 0) == 0
    assert ch.prob(0, 1, 0) == H and ch.prob(1, 1, 0) == H
    # state 1 is the mirror image
    assert ch.prob(1, 1, 1) == 1 and ch.prob(0, 1, 1) == 0
    assert ch.prob(0, 0, 1) == H and ch.prob(1, 0, 1) == H
    assert ch.state_dist == (H, H)


def test_product_channel_is_multiplication():
    ch = builtin_product_xs()
    for s in (0, 1):
        for x in (0, 1):
            for y in (0, 1):
                assert ch.prob(y, x, s) == (1 if y == x * s else 0)
    assert ch.prob(0, 1, 0) == 1  # y = 1*0 = 0 with certainty
    assert ch.block_state is not None
    assert ch.block_state.support() == ((0, 1, 1), (1, 0, 1), (1, 1, 0))
    assert ch.state_block_prob((0, 1, 1)) == Fraction(1, 3)
    assert ch.state_block_prob((0, 0, 0)) == 0


def test_builtin_lookup():
    assert builtin_channel("z0z1").kernel == builtin_z0z1().kernel
    with pytest.raises(ValueError):
        builtin_channel("nope")


def test_validation_names_offending_row():
    with pytest.raises(ValueError, match="s=0, x=1"):
        make_channel([[[1, 0], [H, Fraction(1, 3)]]], [1])
    with pytest.raises(ValueError, match="state_dist"):
        make_channel([[[1, 0], [H, H]]], [H, H])
    with pytest.raises(ValueError, match="outside"):
        make_channel([[[2, -1], [H, H]]], [1])


def test_boolean_entries_are_refused():
    # True is an int, but a kernel of booleans is a mistake, not the identity channel
    with pytest.raises(ValueError, match="^true is a boolean, not a rational$"):
        make_channel([[[True, False], [False, True]]], [True])
    with pytest.raises(ValueError, match="^true is a boolean, not a rational$"):
        make_channel([[[1, 0], [0, 1]]], [True])


def test_huge_decimal_exponent_is_refused_at_once(tmp_path):
    # Fraction would build a hundred-million-digit power of ten for this literal
    message = re.escape("decimal exponent of rational literal '1e-99999999' exceeds 4300")
    path = tmp_path / "tiny.json"
    path.write_text('{"x_size": 1, "y_size": 1, "s_size": 1, "kernel": [[[1]]], "state_dist": [1e-99999999]}')
    start = time.perf_counter()
    with pytest.raises(ValueError, match=message):
        make_channel([[[1]]], ["1e-99999999"])
    with pytest.raises(ValueError, match=message):
        load_channel_file(str(path))
    assert time.perf_counter() - start < 1


def test_block_source_validation():
    bad = BlockStateSource(n=2, atoms=(((0, 1), H),))
    with pytest.raises(ValueError, match="sum"):
        bad.validate(2)
    wrong_len = BlockStateSource(n=2, atoms=(((0, 1, 0), Fraction(1)),))
    with pytest.raises(ValueError, match="length"):
        wrong_len.validate(2)
    with pytest.raises(ValueError, match="^block length must be >= 1, got 0$"):
        BlockStateSource(n=0, atoms=(((), Fraction(1)),)).validate(2)


@pytest.mark.parametrize("atoms, message", [
    ((((0, 2), Fraction(1)),), "state sequence (0, 2) leaves the alphabet of size 2"),
    ((((0, 1), H), ((0, 1), H)), "state sequence (0, 1) listed twice"),
])
def test_block_source_refuses_foreign_letters_and_repeated_sequences(atoms, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        BlockStateSource(n=2, atoms=atoms).validate(2)


@pytest.mark.parametrize("kernel, message", [
    (lambda k: k[:1], "kernel has 1 state slices, expected 2"),
    (lambda k: (k[0], k[1][:1]), "kernel slice s=1 has 1 rows, expected 2"),
])
def test_validation_refuses_a_kernel_of_the_wrong_shape(kernel, message):
    ch = builtin_z0z1()
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        dataclasses.replace(ch, kernel=kernel(ch.kernel)).validate()


def test_lift_csir_layout():
    ch = lift_csir(builtin_z0z1())
    assert (ch.x_size, ch.y_size, ch.s_size) == (2, 4, 2)
    base = builtin_z0z1()
    for s in (0, 1):
        for x in (0, 1):
            for y in (0, 1):
                for s_r in (0, 1):
                    lifted = ch.prob(y * 2 + s_r, x, s)
                    expected = base.prob(y, x, s) if s_r == s else Fraction(0)
                    assert lifted == expected
    ch.validate()


def test_lift_csir_rows_still_normalize():
    ch = lift_csir(builtin_product_xs())
    ch.validate()
    assert ch.block_state == builtin_product_xs().block_state


def test_iid_block_prob():
    ch = builtin_z0z1()
    assert ch.iid_block_prob((0, 1, 0)) == Fraction(1, 8)
    assert ch.state_block_prob((0, 1)) == Fraction(1, 4)
    # read off the block, not found among the 2^40 blocks of the walk
    assert ch.state_block_prob((0, 1) * 20) == Fraction(1, 2**40)
    assert ch.state_block_prob((0, 2)) == ch.state_block_prob((-1, 0)) == 0
    assert make_channel([[[1]]] * 3, [H, 0, H]).state_block_prob((0, 1)) == 0
    # one product per count vector weighs every block as its own product does
    three = make_channel([[[1]]] * 3, [H, Fraction(1, 3), Fraction(1, 6)])
    assert all(p == three.iid_block_prob(ss) for _, ss, p in state_blocks(three, 5))


def test_file_round_trip(tmp_path):
    path = str(tmp_path / "chan.json")
    for ch in (builtin_z0z1(), builtin_product_xs(), lift_csir(builtin_z0z1())):
        save_channel_file(ch, path)
        back = load_channel_file(path)
        assert back == ch
        # fixed point: saving the loaded channel changes nothing
        save_channel_file(back, path)
        assert load_channel_file(path) == ch


def test_load_decimal_entries_exact(tmp_path):
    path = tmp_path / "dec.json"
    path.write_text(
        '{"x_size": 1, "y_size": 2, "s_size": 1,'
        ' "kernel": [[[0.1, 0.9]]], "state_dist": [1]}'
    )
    ch = load_channel_file(str(path))
    assert ch.prob(0, 0, 0) == Fraction(1, 10)  # not the binary float 0.1
    assert ch.prob(1, 0, 0) == Fraction(9, 10)


def test_load_rejects_bad_files(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(ValueError, match="JSON"):
        load_channel_file(str(p))
    p.write_text('{"x_size": 1}')
    with pytest.raises(ValueError, match="missing field"):
        load_channel_file(str(p))
    p.write_text(
        '{"x_size": 2, "y_size": 2, "s_size": 1,'
        ' "kernel": [[["1/2", "1/2"]]], "state_dist": [1]}'
    )
    with pytest.raises(ValueError, match="declared sizes"):
        load_channel_file(str(p))


# -- fuzzing the channel file ----------------------------------------------

_ENTRY = st.one_of(
    st.sampled_from(["1", "0", "1/2", "1/3", "-1/2", "3/2", "0.5", "1/0", "0/0", "x", ""]),
    st.integers(-1, 2),
    st.floats(-2, 2),
    st.none(),
    st.lists(st.integers(0, 1), max_size=2),
)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(-2, 2) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


def _laws(k: int):
    # a law on k points: uniform, a point mass, or arbitrary entries
    return st.one_of(
        st.builds(lambda: [f"1/{k}"] * k), st.builds(lambda: ["1"] + ["0"] * (k - 1)), st.lists(_ENTRY, max_size=k + 1)
    )


@st.composite
def channel_docs(draw):
    """A channel file, well formed or with a spoiled entry or fields."""
    x, y, s = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    doc = {
        "x_size": x,
        "y_size": y,
        "s_size": s,
        "kernel": [[draw(_laws(y)) for _ in range(x)] for _ in range(s)],
        "state_dist": draw(_laws(s)),
    }
    if draw(st.booleans()):
        n = draw(st.integers(0, 3))
        seqs = st.lists(st.integers(-1, s), min_size=n, max_size=n)
        doc["block_state"] = {"n": n, "atoms": [[draw(seqs), p] for p in draw(_laws(2))]}
    rows = [row for sl in doc["kernel"] for row in sl if row]
    if rows and draw(st.booleans()):
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, len(row) - 1))] = draw(_ENTRY)
    for spoil in draw(st.lists(st.sampled_from(["field", "drop"]), max_size=2)):
        name = draw(st.sampled_from(sorted(doc)))
        if spoil == "drop":
            del doc[name]
        else:
            doc[name] = draw(_JSON)
    return doc


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("channel-fuzz")


@settings(deadline=None, max_examples=150)
@given(doc=st.one_of(channel_docs(), _JSON))
def test_any_channel_file_loads_or_is_a_value_error(fuzz_dir, doc):
    path = fuzz_dir / "channel.json"
    path.write_text(json.dumps(doc))
    try:
        ch = load_channel_file(str(path))
    except ValueError:
        return
    assert isinstance(ch, ChannelWithState)


@pytest.mark.parametrize("ch, n", [
    (builtin_z0z1(), 1),
    (builtin_z0z1(), 6),
    (builtin_product_xs(), 3),
    (make_channel([[[1]], [[1]], [[1]]], [H, 0, H]), 5),
    (make_channel([[[1]], [[1]]], [H, H], BlockStateSource(2, (((0, 1), H), ((1, 1), 0), ((1, 0), H)))), 2),
])
def test_state_block_count_matches_the_walk(ch, n):
    assert state_block_count(ch, n) == sum(1 for _ in state_blocks(ch, n))


def reference_state_blocks(ch, n):
    """The state-block walk as it was: every block's index by the
    range-checking `seq_to_index`, its weight by `iid_block_prob`."""
    if ch.block_state is not None:
        return [(seq_to_index(ss, ch.s_size), ss, p) for ss, p in sorted(ch.block_state.atoms) if p]
    support = [s for s in range(ch.s_size) if ch.state_dist[s]]
    return [(seq_to_index(ss, ch.s_size), ss, ch.iid_block_prob(ss)) for ss in product(support, repeat=n)]


@pytest.mark.parametrize("ch, n", [
    (builtin_z0z1(), 4),
    (make_channel([[[1]]] * 3, [H, 0, H]), 4),  # a zero-probability state
    (make_channel([[[1]]] * 4, [Fraction(1, 3), 0, Fraction(1, 6), H]), 3),
    (make_channel([[[1]]] * 3, [0, 0, 1]), 2),  # one state of positive probability
    (builtin_product_xs(), 3),  # a block state source
    (make_channel([[[1]]] * 3, [H, 0, H], BlockStateSource(2, (((2, 1), H), ((0, 2), 0), ((1, 0), H)))), 2),
    # two letters share a probability: different count vectors weigh the same
    (make_channel([[[1]]] * 3, [Fraction(1, 4), Fraction(1, 4), H]), 4),
])
def test_state_blocks_yield_the_reference_triples(ch, n):
    assert list(state_blocks(ch, n)) == reference_state_blocks(ch, n)


def reference_block_outputs(ch, xs, ss):
    """(index, N^n(y^n|x^n,s^n)) for every output block of positive
    probability, in index order: a depth-first walk over the per-position
    output supports, sharing prefix products between blocks.  The oracle
    behind the tests' per-triple walks; `reference_block_law` in
    `test_classical.py` checks it against `block_law_array`."""
    rows = [[(y, q) for y, q in enumerate(ch.kernel[s][x]) if q] for x, s in zip(xs, ss)]
    stack = [(0, 0, Fraction(1))]
    while stack:
        depth, yi, p = stack.pop()
        if depth == len(rows):
            yield yi, p
            continue
        for y, q in reversed(rows[depth]):
            stack.append((depth + 1, yi * ch.y_size + y, p * q))


def test_state_block_count_is_arithmetic_and_checks_the_length():
    assert state_block_count(builtin_z0z1(), 10**4) == 2**10**4
    with pytest.raises(ValueError, match="n must be >= 1, got 0"):
        state_block_count(builtin_z0z1(), 0)
    with pytest.raises(ValueError, match="does not match block source length 3"):
        state_block_count(builtin_product_xs(), 4)
