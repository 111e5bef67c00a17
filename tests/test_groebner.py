"""Module Groebner bases, normal forms, syzygies, and span calculus."""

import contextlib
import importlib.util
import io
import json
import random
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from groebner_oracle import codec, graph_basis, is_groebner, lift, vec_lead
from truncmod import groebner
from truncmod.arith import PolyRing, grevlex, lex
from truncmod.cli import main
from truncmod.fpmod import Submodule, free_module
from truncmod.groebner import (
    ModuleOrder,
    SpanGB,
    _graph_basis,
    _interreduce,
    buchberger,
    kernel_through,
    module_order,
    vec_from_polys,
    vec_to_polys,
)
from truncmod.multiring import TruncRing

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)
COEFFS = st.builds(Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 3))
SCALES = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 9))
# Rank-2 vectors over Q[x, y, t]: terms are (position, (a, b, c)).
TERMS = st.tuples(st.integers(0, 1),
                  st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 1)))
VECTOR = st.dictionaries(TERMS, COEFFS, min_size=1, max_size=3)
VECS = st.lists(VECTOR, min_size=1, max_size=4)
# Graph bases of four such vectors in lex can take minutes, so the graph
# basis check draws at most three.
FEW_VECS = st.lists(VECTOR, min_size=1, max_size=3)
ORDERS = st.sampled_from([lex, grevlex])
R1 = TruncRing(("x", "y"), 1)


def vec(*polys):
    return vec_from_polys(polys)


def spans_equal(ring, rank, a, b):
    """True when ``a`` and ``b`` span the same submodule of S^rank."""
    sa = SpanGB(ring, rank, a)
    sb = SpanGB(ring, rank, b)
    return all(sa.contains(v) for v in b) and all(sb.contains(v) for v in a)


def reduced_basis(order, rank, vecs):
    """The reduced basis of the span of ``vecs`` in rank ``rank`` over
    Q[x, y, t] under ``order``."""
    return SpanGB(PolyRing(("x", "y", "t"), order=order), rank, vecs).gb


def interreduce(basis, morder):
    """``_interreduce`` on ``Fraction`` vectors whose first key is their lead."""
    packing = codec(morder, len(next(iter(basis[0]))[1]))
    return [packing.fractions(g)
            for g in _interreduce([packing.vector(v) for v in basis], packing)]


def fmt_span(ring, rank, vecs):
    return sorted(
        tuple(ring.format(p) for p in vec_to_polys(ring, rank, v)) for v in vecs
    )


def test_lex_groebner_basis_of_plane_pair():
    R = PolyRing(("x", "y"), order=lex())
    x, y = R.gen("x"), R.gen("y")
    S = SpanGB(R, 1, [vec(x * x - R.one()), vec(x * y - R.one())])
    assert fmt_span(R, 1, S.gb) == [("x - y",), ("y^2 - 1",)]


def test_normal_form_reduces_membership():
    R = PolyRing(("x", "y"), order=lex())
    x, y = R.gen("x"), R.gen("y")
    S = SpanGB(R, 1, [vec(x * x - R.one()), vec(x * y - R.one())])
    assert vec_to_polys(R, 1, S.normal_form(vec(x * x)))[0] == R.one()
    assert S.contains(vec(x - y))
    assert not S.contains(vec(R.one()))


def test_normal_form_is_idempotent():
    R = PolyRing(("x", "y"))
    x, y = R.gen("x"), R.gen("y")
    S = SpanGB(R, 1, [vec(x * x), vec(x * y), vec(y * y * y)])
    rng = random.Random(3)
    for _ in range(20):
        exps = (rng.randrange(4), rng.randrange(4))
        v = vec(R.from_terms({exps: 1}) + R.const(rng.randrange(-3, 4)))
        nf = S.normal_form(v)
        assert S.normal_form(nf) == nf


def test_normal_form_vanishes_on_combinations():
    R = PolyRing(("x", "y"), order=lex())
    x, y = R.gen("x"), R.gen("y")
    f1, f2 = x * x - R.one(), x * y - R.one()
    S = SpanGB(R, 1, [vec(f1), vec(f2)])
    rng = random.Random(11)
    for _ in range(12):
        h1 = R.from_terms({(rng.randrange(3), rng.randrange(3)): rng.randrange(-4, 5)})
        h2 = R.from_terms({(rng.randrange(3), rng.randrange(3)): rng.randrange(-4, 5)})
        assert S.contains(vec(h1 * f1 + h2 * f2))


def test_lift_expresses_members():
    R = PolyRing(("x", "y"))
    x, y = R.gen("x"), R.gen("y")
    S = SpanGB(R, 1, [vec(x * x), vec(x * y)])
    coeffs = lift(S, vec(x * x * y))
    assert coeffs is not None
    recon = coeffs[0] * (x * x) + coeffs[1] * (x * y)
    assert recon == x * x * y
    assert lift(S, vec(y)) is None


def test_syzygies_of_coordinate_pair():
    R = PolyRing(("x", "y"))
    x, y = R.gen("x"), R.gen("y")
    syz = SpanGB(R, 1, [vec(x), vec(y)]).syzygies(2)
    assert spans_equal(R, 2, syz, [vec(y, -x)])


def test_syzygies_of_single_nonzerodivisor_vanish():
    R = PolyRing(("x", "y"))
    x = R.gen("x")
    assert SpanGB(R, 1, [vec(x)]).syzygies(1) == []


def test_syzygies_with_common_factor():
    R = PolyRing(("x", "y"))
    x, y = R.gen("x"), R.gen("y")
    syz = SpanGB(R, 1, [vec(x * x), vec(x * y)]).syzygies(2)
    assert spans_equal(R, 2, syz, [vec(y, -x)])


def test_syzygy_columns_annihilate_generators():
    R = PolyRing(("x", "y"))
    x, y = R.gen("x"), R.gen("y")
    gens = [x * x - y, x * y, y * y + R.one()]
    syz = SpanGB(R, 1, [vec(g) for g in gens]).syzygies(len(gens))
    for v in syz:
        coeffs = vec_to_polys(R, 3, v)
        total = sum((c * g for c, g in zip(coeffs, gens)), R.zero())
        assert total.is_zero()


def ideal_in_R1(*gens):
    """The ideal of Q[x, y] = R[1] = Q[x, y][t]/(t), as a ``Submodule``."""
    return Submodule(free_module(R1, 1), [(g,) for g in gens])


def test_ideal_quotient_examples():
    x, y = R1.S.gen("x"), R1.S.gen("y")
    # (I : f) is the kernel through f
    q = ideal_in_R1(x * x, x * y).kernel_through([(x,)])
    assert Submodule(free_module(R1, 1), q).equals(ideal_in_R1(x, y))
    # quotient of an ideal by a nonmember of its associated primes is itself
    q2 = ideal_in_R1(x).kernel_through([(y,)])
    assert Submodule(free_module(R1, 1), q2).equals(ideal_in_R1(x))


def test_saturation_examples():
    x, y = R1.S.gen("x"), R1.S.gen("y")
    assert ideal_in_R1(x * x, x * y).saturation(x).equals(ideal_in_R1(R1.S.one()))
    assert ideal_in_R1(x * x, x * y).saturation(y).equals(ideal_in_R1(x))


def test_kernel_through_target_relations():
    R = PolyRing(("x", "y"))
    x = R.gen("x")
    # kernel of R -> R/(x^2) given by multiplication with x
    ker = kernel_through(R, 1, [vec(x)], [vec(x * x)])
    assert spans_equal(R, 1, ker, [vec(x)])


def test_reduced_basis_is_canonical_under_permutation():
    R = PolyRing(("x", "y"))
    x, y = R.gen("x"), R.gen("y")
    gens = [vec(x * x - y), vec(x * y - R.one()), vec(y * y * y)]
    morder = module_order(R, 1)
    first = SpanGB(R, 1, list(gens)).gb
    rng = random.Random(5)
    for _ in range(5):
        shuffled = list(gens)
        rng.shuffle(shuffled)
        again = SpanGB(R, 1, shuffled).gb
        assert fmt_span(R, 1, again) == fmt_span(R, 1, first)
    assert is_groebner(first, morder)


def test_spans_equal_is_an_equivalence():
    R = PolyRing(("x", "y"))
    x, y = R.gen("x"), R.gen("y")
    a = [vec(x), vec(y)]
    b = [vec(x + y), vec(y)]
    c = [vec(x * x), vec(y)]
    assert spans_equal(R, 1, a, b)
    assert spans_equal(R, 1, b, a)
    assert not spans_equal(R, 1, a, c)


def test_lift_leaves_the_plain_basis_unbuilt():
    R = PolyRing(("x", "y"))
    x, y = R.gen("x"), R.gen("y")
    S = SpanGB(R, 1, [vec(x * x - y), vec(x * y)])
    assert "_gb_index" not in S.__dict__
    coeffs = lift(S, vec(x * x * y))
    assert coeffs is not None and "_gb_index" not in S.__dict__
    assert S.syzygies(2) and "_gb_index" not in S.__dict__
    assert S.contains(vec(x * x * y)) and "_gb_index" in S.__dict__
    # membership reads the integer index; Fractions are built only for gb
    assert "gb" not in S.__dict__


@SETTINGS
@given(ORDERS, VECS, st.randoms(use_true_random=False), st.lists(SCALES, min_size=4, max_size=4))
def test_reduced_basis_ignores_order_and_scaling_of_generators(order, vecs, rng, scales):
    span = SpanGB(PolyRing(("x", "y", "t"), order=order()), 2, vecs)
    first = span.gb
    assert all(span.contains(v) for v in vecs)
    again = [{t: c * k for t, c in v.items()} for v, k in zip(vecs, scales)]
    rng.shuffle(again)
    assert reduced_basis(order(), 2, again) == first


@SETTINGS
@given(ORDERS, FEW_VECS)
def test_every_returned_element_has_its_lead_first(order, vecs):
    morder = ModuleOrder(order(), (0, 0))
    packing = codec(morder, 3)
    returned = ([packing.fractions(g) for g in buchberger(vecs, packing)]
                + reduced_basis(order(), 2, vecs))
    for v in returned:
        assert next(iter(v)) == vec_lead(v, morder)
    span = SpanGB(PolyRing(("x", "y", "t"), order=order()), 2, vecs)
    graph_packing = codec(span.morder, 3)
    syzygies = [graph_packing.fractions(g) for g in _graph_basis(2, vecs, graph_packing)]
    for g in graph_basis(span) + syzygies:
        assert next(iter(g)) == vec_lead(g, span.morder)


CYCLIC4 = ["z0 + z1 + z2 + z3", "z0*z1 + z1*z2 + z2*z3 + z3*z0",
           "z0*z1*z2 + z1*z2*z3 + z2*z3*z0 + z3*z0*z1", "z0*z1*z2*z3 - 1"]


def test_syzygies_of_cyclic4_take_few_spairs(monkeypatch, tmp_path):
    """Sugar selection keeps the graph basis of cyclic-4 in lex at n = 2
    small: normal selection made 221 S-pairs here."""
    made = []
    spair = groebner._spair

    def counting(*args):
        made.append(1)
        return spair(*args)

    monkeypatch.setattr(groebner, "_spair", counting)
    path = tmp_path / "job.json"
    path.write_text(json.dumps({
        "ring": {"variables": ["z0", "z1", "z2", "z3"], "n": 2},
        "payload": {"generators": CYCLIC4}, "options": {"order": "lex"}}))
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(["syz", str(path)]) == 0
    assert json.loads(out.getvalue())["syzygies"]
    assert 0 < len(made) <= 100


def _load_benchmark_checker():
    """``perfbench/check.py``, loaded read-only: its ``reduced_basis`` is a
    Groebner routine that shares no code with ``groebner``."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "check.py"
    spec = importlib.util.spec_from_file_location("perfbench_check", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


CHECK = _load_benchmark_checker()


@st.composite
def grevlex_spans(draw):
    """(rank, vectors) in rank 2 or 3 over Q[x, y, t]."""
    rank = draw(st.integers(2, 3))
    terms = st.tuples(st.integers(0, rank - 1),
                      st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 1)))
    vector = st.dictionaries(terms, COEFFS, min_size=1, max_size=3)
    return rank, draw(st.lists(vector, min_size=1, max_size=4))


@SETTINGS
@given(grevlex_spans())
def test_reduced_basis_matches_the_benchmark_routine(case):
    """Same elements, in the same order and with the same key order, as the
    benchmark's independent routine, which scans every lead of every
    position."""
    rank, vecs = case
    ours = reduced_basis(grevlex(), rank, vecs)
    theirs = CHECK.reduced_basis(vecs)
    assert ours == theirs
    assert [list(g) for g in ours] == [list(g) for g in theirs]


@SETTINGS
@given(grevlex_spans())
def test_reduced_basis_of_ascending_inputs_matches_the_benchmark_routine(case):
    """Inputs whose terms come in ascending key order give the same elements,
    with the same key order, as the benchmark's routine: ``buchberger``
    sorts every input, so an element that ``_interreduce`` returns without
    reducing its tail is still in descending order."""
    rank, vecs = case
    morder = ModuleOrder(grevlex(), (0,) * rank)
    ascending = [dict(sorted(v.items(), key=lambda tc: morder.key(tc[0]))) for v in vecs]
    ours = reduced_basis(grevlex(), rank, ascending)
    theirs = CHECK.reduced_basis(ascending)
    assert ours == theirs
    assert [list(g) for g in ours] == [list(g) for g in theirs]


def test_interreduce_drops_duplicate_leads_at_one_position_only():
    morder = ModuleOrder(grevlex(), (0, 0))
    x, y = (0, (1, 0)), (0, (0, 1))
    x1 = (1, (1, 0))
    one = Fraction(1)
    basis = [
        {x: one, y: one},                # x + y
        {x: one, y: Fraction(2)},        # x + 2y: the same lead, dropped
        {y: one},
        {x: one, y: one},                # a repeat, dropped
        {x1: one},                       # x e_1: kept, x e_0 is at another position
        {x: one, x1: Fraction(3)},       # x + 3x e_1: lead x e_0, dropped
    ]
    assert interreduce(basis, morder) == [{x: one}, {x1: one}, {y: one}]
    # the two leads with one monomial at two positions both stay
    mixed = [{x: one, x1: one}, {x1: one}]
    assert interreduce(mixed, morder) == [{x: one}, {x1: one}]


@SETTINGS
@given(VECTOR, SCALES)
def test_interreduce_of_one_element_keeps_its_key_order(v, scale):
    morder = ModuleOrder(lex(), (0, 0))
    lead = vec_lead(v, morder)
    v = {t: c * scale for t, c in v.items()}
    v = {lead: v[lead], **v}
    [out] = interreduce([v], morder)
    assert list(out) == list(v)
    assert out == {t: c / v[lead] for t, c in v.items()}
