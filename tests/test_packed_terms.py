"""Property tests for the packed terms of ``groebner._Codec``.

A packed term is one int: the block, the order's weight rows, the position,
the degree and the exponents, each in a field under a guard bit.  Over lex,
grevlex and the block order, with positions in up to three blocks, packing
must keep ``ModuleOrder.key``'s order, the guard-bit test must be
``mono_divides`` at one position, unpacking must invert packing, and a
product must be the sum of the packed factors.  A term too wide for its
fields must raise ``_Overflow``, and the CLI must then answer in full: two
cases whose answers are known by hand pass 2^15, the degree the first
packing of a span holds."""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groebner_oracle import mono_divides
from truncmod import groebner
from truncmod.arith import MonomialOrder, elim_block, mono_mul
from truncmod.cli import main
from truncmod.groebner import _WIDTH, ModuleOrder, _Codec, _Overflow

SETTINGS = settings(max_examples=120, deadline=None, derandomize=True, database=None)
KINDS = ["lex", "grevlex", "block"]


@st.composite
def packings(draw, kind):
    """(ModuleOrder, codec, nvars, terms): distinct terms over 1 to 4
    variables at positions in up to three blocks."""
    nvars = draw(st.integers(1, 4))
    order = elim_block(draw(st.integers(0, nvars))) if kind == "block" else MonomialOrder(kind)
    blocks = tuple(draw(st.lists(st.integers(0, 2), min_size=1, max_size=4)))
    morder = ModuleOrder(order, blocks)
    width = draw(st.integers(3, 8))
    top = 2 ** width // (2 * nvars) - 1
    terms = st.tuples(st.integers(0, len(blocks) - 1),
                      st.tuples(*[st.integers(0, top)] * nvars))
    return (morder, _Codec(morder, nvars, width), nvars,
            draw(st.lists(terms, min_size=2, max_size=12, unique=True)))


@pytest.mark.parametrize("kind", KINDS)
@SETTINGS
@given(data=st.data())
def test_packed_comparison_is_the_module_order(kind, data):
    morder, codec, _nvars, terms = data.draw(packings(kind))
    for a in terms:
        for b in terms:
            assert (codec.pack(a) < codec.pack(b)) == (morder.key(a) < morder.key(b))


@pytest.mark.parametrize("kind", KINDS)
@SETTINGS
@given(data=st.data())
def test_descending_key_reverses_the_order(kind, data):
    """The heap key ``vec_reduce`` pushes, the negated packing, sorts
    ascending exactly when ``ModuleOrder.key`` sorts descending."""
    morder, codec, _nvars, terms = data.draw(packings(kind))
    assert (sorted(terms, key=lambda t: -codec.pack(t))
            == sorted(terms, key=morder.key, reverse=True))


@pytest.mark.parametrize("kind", KINDS)
@SETTINGS
@given(data=st.data())
def test_guard_bit_test_is_divisibility(kind, data):
    _morder, codec, _nvars, terms = data.draw(packings(kind))
    guard = codec.guard
    for pos, a in terms:
        for _pos, b in terms:
            lead, t = codec.pack((pos, a)), codec.pack((pos, b))
            assert (((t | guard) - lead) & guard == guard) == mono_divides(a, b)


@pytest.mark.parametrize("kind", KINDS)
@SETTINGS
@given(data=st.data())
def test_unpack_inverts_pack(kind, data):
    _morder, codec, _nvars, terms = data.draw(packings(kind))
    for term in terms:
        assert codec.unpack(codec.pack(term)) == term


@pytest.mark.parametrize("kind", KINDS)
@SETTINGS
@given(data=st.data())
def test_a_product_is_the_sum_of_the_packed_factors(kind, data):
    """``(pos, a) * x^b`` packs to ``pack((pos, a)) + pack((0, b)) -
    places[0]``, and raises its degree guard bit exactly when its degree
    outgrows the fields."""
    _morder, codec, nvars, terms = data.draw(packings(kind))
    unit = codec.places[0]
    for pos, a in terms:
        for _pos, b in terms:
            product = codec.pack((pos, a)) + codec.pack((0, b)) - unit
            assert product == codec.pack((pos, mono_mul(a, b)))
            assert not product & codec.top
    x = (1,) + (0,) * (nvars - 1)
    widest = codec.pack((0, (codec.mask,) + x[1:]))
    assert (widest + codec.pack((0, x)) - unit) & codec.top


def test_a_term_too_wide_for_its_fields_overflows():
    codec = _Codec(ModuleOrder(MonomialOrder("lex"), (0,)), 2, _WIDTH)
    assert codec.unpack(codec.pack((0, (2 ** _WIDTH - 1, 0)))) == (0, (2 ** _WIDTH - 1, 0))
    with pytest.raises(_Overflow):
        codec.pack((0, (2 ** _WIDTH, 0)))
    with pytest.raises(_Overflow):
        codec.vector({(0, (1, 2 ** _WIDTH)): 1})


def answer(command, document):
    """(exit code, answer, the field widths of every packing asked for)."""
    widths = []
    lookup = groebner._codec

    def recording(morder, nvars, width):
        widths.append(width)
        return lookup(morder, nvars, width)

    with contextlib.redirect_stdout(io.StringIO()) as out, \
            pytest.MonkeyPatch.context() as patch:
        patch.setattr("sys.stdin", io.StringIO(json.dumps(document)))
        patch.setattr(groebner, "_codec", recording)
        code = main([command])
    return code, json.loads(out.getvalue()), widths


RING = {"variables": ["x", "y"], "n": 1}


def test_a_normal_form_past_the_first_packing_is_redone_wider():
    """x^200 = (x - y^200 + y^200)^200 reduces to y^40000 in lex, past the
    2^15 the basis of x - y^200 was packed for."""
    code, out, widths = answer("nf", {"ring": RING, "options": {"order": "lex"},
                                      "payload": {"generators": ["x - y^200"],
                                                  "element": "x^200"}})
    assert code == 0
    assert out["normal_form"] == ["y^40000"] and out["member"] is False
    assert widths == [_WIDTH, 2 * _WIDTH]


def test_a_generator_past_the_first_packing_is_redone_wider():
    code, out, widths = answer("gb", {"ring": RING,
                                      "payload": {"generators": ["(x^1000)^40"]}})
    assert code == 0
    assert out["basis"] == [["x^40000"], ["t"]]
    assert widths == [_WIDTH, 2 * _WIDTH]
