"""The work ``buchberger`` does, pinned on three fixed spans, and the table
of codecs that spans share.

Each span below runs one basis.  Its work is the sequence of S-pairs taken,
each as ``(sugar, i, j)``, and the count of S-vectors that reduced to zero.
Pair selection, the sugar, the Gebauer-Moeller B update and the chain test
(Gebauer and Moeller, J. Symb. Comput. 6, 1988) all decide that sequence, so
a change to any of them moves it; so does a change to the order in which
the generators enter.  Bookkeeping that keeps the algorithm as it is keeps
the sequence.  The pair keys are read where ``buchberger`` selects a pair,
as the smallest of them, and the zero remainders where ``vec_reduce``
returns inside ``buchberger``."""

import contextlib
import io
import json

import pytest

from truncmod import groebner
from truncmod.arith import PolyRing, grevlex, lex
from truncmod.cli import main
from truncmod.fpmod import PresMod, annihilator_kernel
from truncmod.groebner import _WIDTH, ModuleOrder, SpanGB, _codec, vec_from_polys
from truncmod.multiring import TruncRing

KATSURA3 = ["u0 + 2*u1 + 2*u2 + 2*u3 - 1",
            "u3*u3 + u2*u2 + u1*u1 + u0*u0 + u1*u1 + u2*u2 + u3*u3 - u0",
            "u2*u3 + u1*u2 + u0*u1 + u1*u0 + u2*u1 + u3*u2 - u1",
            "u1*u3 + u0*u2 + u1*u1 + u2*u0 + u3*u1 - u2"]
CYCLIC4 = ["z0 + z1 + z2 + z3", "z0*z1 + z1*z2 + z2*z3 + z3*z0",
           "z0*z1*z2 + z1*z2*z3 + z2*z3*z0 + z3*z0*z1", "z0*z1*z2*z3 - 1"]


def work(monkeypatch, build):
    """``build()``'s result and, for each basis it computed, the selected
    ``(sugar, i, j)`` in order and the count of zero remainders."""
    runs = []
    inside = []
    real_buchberger, real_reduce = groebner.buchberger, groebner.vec_reduce

    def selecting(keys):
        sugar, _lcm, i, j = key = min(keys)
        runs[-1][0].append((sugar, i, j))
        return key

    def recording(*args):
        runs.append([[], 0])
        inside.append(True)
        try:
            return real_buchberger(*args)
        finally:
            inside.pop()

    def reducing(*args):
        r = real_reduce(*args)
        if inside and not r:
            runs[-1][1] += 1
        return r

    monkeypatch.setattr(groebner, "min", selecting, raising=False)
    monkeypatch.setattr(groebner, "buchberger", recording)
    monkeypatch.setattr(groebner, "vec_reduce", reducing)
    return build(), [(pairs, zeros) for pairs, zeros in runs]


def spans_of(ring, texts):
    return [vec_from_polys((ring.parse(s),)) for s in texts]


def test_the_katsura3_graph_basis_takes_its_pairs_in_grevlex(monkeypatch):
    ring = PolyRing(("u0", "u1", "u2", "u3"), grevlex())
    vecs = spans_of(ring, KATSURA3)
    syzygies, runs = work(monkeypatch, lambda: SpanGB(ring, 1, vecs).syzygies(len(vecs)))
    assert syzygies
    assert runs == [([
        (2, 0, 2), (2, 0, 3), (3, 4, 5), (3, 0, 5), (3, 1, 4), (3, 0, 4), (3, 0, 1),
        (4, 9, 10), (4, 7, 9), (4, 5, 8), (4, 4, 6), (4, 4, 8), (4, 0, 8), (4, 1, 6),
        (4, 0, 6), (5, 15, 16), (5, 10, 12), (5, 9, 11), (5, 9, 12), (5, 7, 11),
        (5, 8, 13), (5, 6, 13), (5, 0, 13), (6, 14, 17), (6, 12, 18), (6, 11, 18),
    ], 11)]


def test_the_cyclic4_basis_takes_its_pairs_in_lex(monkeypatch):
    ring = PolyRing(("z0", "z1", "z2", "z3"), lex())
    basis, runs = work(monkeypatch, lambda: SpanGB(ring, 1, spans_of(ring, CYCLIC4)).gb)
    assert basis
    assert runs == [([
        (2, 0, 1), (3, 0, 2), (4, 4, 5), (4, 0, 3), (5, 5, 6), (5, 4, 6), (6, 6, 8),
        (6, 5, 7), (6, 4, 8), (7, 5, 9), (7, 4, 9), (8, 6, 9), (9, 7, 10), (9, 5, 10),
    ], 7)]


def test_an_annihilator_kernel_of_rank_two_takes_its_pairs(monkeypatch):
    tr = TruncRing(("x", "y"), 3)
    P = tr.S.parse
    M = PresMod(tr, 2, [(P("x*t"), P("y^2")), (P("y*t^2"), P("x*t - y"))])
    kernel, runs = work(monkeypatch, lambda: annihilator_kernel(M, 2))
    assert len(kernel) == 6
    assert runs == [([
        (3, 0, 3), (3, 1, 4), (3, 1, 5), (4, 0, 8), (5, 0, 9), (5, 2, 9), (5, 8, 9),
        (6, 6, 11), (6, 1, 12), (7, 6, 13), (7, 11, 13), (8, 10, 15),
    ], 2)]


# -- the codec table -------------------------------------------------------


def test_an_equal_layout_gets_the_same_codec():
    first = _codec(ModuleOrder(grevlex(), (0, 0, 1)), 3, _WIDTH)
    assert _codec(ModuleOrder(grevlex(), (0, 0, 1)), 3, _WIDTH) is first
    # the layout is the order's kind and split, not the order object
    assert _codec(ModuleOrder(lex(), (0, 0, 1)), 3, _WIDTH) is not first
    assert _codec(ModuleOrder(grevlex(), (0, 1, 1)), 3, _WIDTH) is not first
    assert _codec(ModuleOrder(grevlex(), (0, 0, 1)), 2, _WIDTH) is not first


def test_a_doubled_width_gets_a_new_codec():
    morder = ModuleOrder(grevlex(), (0,))
    narrow = _codec(morder, 2, _WIDTH)
    wide = _codec(morder, 2, 2 * _WIDTH)
    assert wide is not narrow
    assert (narrow.width, wide.width) == (_WIDTH, 2 * _WIDTH)
    assert _codec(morder, 2, 2 * _WIDTH) is wide


@pytest.mark.parametrize("command, payload", [
    ("module.filtration", {"presentation": {"generators": 2, "relations": [
        ["x*t", "y^2"], ["y*t^2", "x*t - y"]]}}),
    ("module.balanced", {"presentation": {"generators": 1, "relations": [["x*t"]],
                                          "degrees": [0]}}),
])
def test_the_table_holds_no_more_codecs_than_the_layouts_asked_for(monkeypatch, command,
                                                                   payload):
    table = {}
    asked = []
    lookup = groebner._codec

    def recording(morder, nvars, width):
        order = morder.order
        asked.append((order.kind, order.block_split, morder.blocks, nvars, width))
        return lookup(morder, nvars, width)

    monkeypatch.setattr(groebner, "_CODECS", table)
    monkeypatch.setattr(groebner, "_codec", recording)
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(
        {"ring": {"variables": ["x", "y"], "n": 3}, "payload": payload})))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([command]) == 0
    assert len(asked) > len(set(asked)) > 0  # spans share layouts
    assert len(table) == len(set(asked))
