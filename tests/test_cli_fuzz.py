"""Shape fuzzing of the JSON command line.

Each command has one small valid document.  A mutation replaces one field of
it, at any depth, with a JSON value of another shape (or drops the field).
Whatever comes in, the command answers with exactly one JSON document and
exit 0, 2 (schema) or 3 (mathematics), never an ``internal`` error.  Only
shapes are mutated, never sizes: an integer replaces only a field that is
not already one, floats are small, and strings carry no digits.
"""

import io
import json
import math
import signal
import sys

import pytest
from hypothesis import given, settings, strategies as st

from truncmod.cli import COMMANDS, main

RING = {"variables": ["x", "y"], "n": 2}

VALID = {
    "gb": {"ring": RING, "payload": {"generators": ["x^2 - y", "x*y"]},
           "options": {"order": "lex"}},
    "nf": {"ring": RING, "payload": {"vectors": [["x", "y"], ["y", "0"]], "rank": 2,
                                     "element": ["x*y", "y^2"]}},
    "syz": {"ring": RING, "payload": {"vectors": [["x"], ["y"]]}},
    "ring.zerodivisor": {"ring": RING, "payload": {"element": "x*t"}},
    "aut.compose": {"ring": RING, "payload": {
        "first": {"deriv": {"x": "y"}, "alpha": "1 + x"},
        "second": {"images": {"x": "x + t", "y": "y"}, "t_image": "t"}}},
    "aut.cocycle": {"ring": RING, "payload": {
        "ij": {"deriv": {"x": "1"}}, "jk": {"deriv": {"y": "x"}},
        "ik": {"deriv": {"x": "1", "y": "x"}}}},
    "module.filtration": {"ring": RING, "payload": {"presentation": {
        "generators": 2, "relations": [["x", "t"]], "degrees": [1, 1], "t_weight": 1}}},
    "module.balanced": {"ring": RING, "payload": {"ideal": ["x", "y"]}},
    "module.quasifree": {"ring": RING, "payload": {
        "free": {"rank": 2, "degrees": [0, 1], "t_weight": 1}}},
    "module.generictype": {"ring": RING, "payload": {
        "truncated_free": {"level": 1, "degree": 0, "t_weight": 1}}},
    "module.torsion": {"ring": RING, "payload": {"ideal": ["x", "t"]}},
    "module.dual": {"ring": RING, "payload": {
        "presentation": {"generators": 1, "relations": [["t"]]}}},
    "module.ext1": {"ring": RING, "payload": {
        "source": {"truncated_free": {"level": 1}}, "target": {"free": {"rank": 1}}},
        "options": {"degree_bound": 2}},
    "module.extend": {"ring": RING, "payload": {"sigma": "x", "level": 1}},
    "module.refine": {"ring": RING, "payload": {"ideal": ["x", "y + t"]}},
    "regseq.check": {"ring": RING, "payload": {"sequence": ["x", "y"]}},
    "regseq.shadow": {"ring": RING, "payload": {"element": "x", "sequence": ["x + t", "y"]}},
    "ideal.tau": {"ring": RING, "payload": {"a": "1", "b": "0"}},
    "ideal.eq": {"payload": {"first": {"a": "1", "b": "x"}, "second": {"a": "1", "b": "x"}}},
    "ideal.lambda": {"payload": {"a": "1", "b": "2"}},
    "ideal.chart": {"payload": {"a": "5", "b": "11",
                                "chart": {"beta": "2", "gamma": "3", "delta": "7"},
                                "difference_with": {"a": "1", "b": "0"}}},
    "ideal.resolution": {"payload": {"phi1": [["y", "-x"], ["t", "0"], ["0", "t"]]},
                         "options": {"degree_bound": 3}},
    "ideal.extcheck": {"payload": {"psi1": [["y", "-x"], ["0", "0"], ["0", "0"]]},
                       "options": {"degree_bound": 3}},
    "ideal.extend": {"payload": {"tau": [1, 0], "rho": "-1"}},
    "ideal.recover": {"payload": {"tau": ["1", "0"]}},
    "hilbert.poly": {"ring": {"variables": ["x0", "x1", "x2"], "n": 1},
                     "payload": {"ideal": ["x0", "x1"]}},
    "hilbert.pred": {"ring": {"variables": ["x0", "x1"], "n": 2},
                     "payload": {"free": {"rank": 1}}},
}

_ABSENT = object()

# One strategy per JSON shape; "absent" drops the field.
SHAPES = {
    "int": st.integers(-3, 3) | st.sampled_from([10 ** 30, -(10 ** 30)]),
    "float": st.floats(-4, 4) | st.sampled_from([math.nan, math.inf]),
    "bool": st.booleans(),
    "null": st.none(),
    "string": st.text(alphabet="xyzt+-*^()/ ", max_size=4),
    "list": st.lists(st.sampled_from([0, 1, "x", None, [], {}]), max_size=3),
    "object": st.dictionaries(st.sampled_from(["a", "x", "rank", "level", "deriv"]),
                              st.sampled_from([0, 1, "x", None]), max_size=2),
    "absent": st.just(_ABSENT),
}


def shape(value) -> str:
    return {bool: "bool", int: "int", float: "float", str: "string", list: "list",
            dict: "object", type(None): "null"}[type(value)]


def paths(doc, prefix=()):
    """Every (path, value) below the document root."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield prefix + (key,), value
        if isinstance(value, (dict, list)):
            yield from paths(value, prefix + (key,))


def mutated(doc, path, value):
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is _ABSENT:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


# Every document here answers in well under a second; one that runs
# without bound fails the test instead of holding it.
SECONDS_PER_JOB = 10


def _no_answer(signum, frame):
    raise TimeoutError(f"no answer within {SECONDS_PER_JOB} s")


def run(command, text):
    """(exit code, stdout) of one in-process CLI call on ``text``."""
    stdin, stdout = sys.stdin, sys.stdout
    sys.stdin, sys.stdout = io.StringIO(text), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _no_answer)
    signal.alarm(SECONDS_PER_JOB)
    try:
        code = main([command])
        return code, sys.stdout.getvalue()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
        sys.stdin, sys.stdout = stdin, stdout


def check_answer(command, document):
    """Run one document and check the contract; returns (code, answer)."""
    code, text = run(command, json.dumps(document))
    # json.loads rejects anything after the first document
    answer = json.loads(text)
    assert isinstance(answer, dict)
    if code == 0:
        assert "error" not in answer
    else:
        assert code in (2, 3), (code, answer)
        assert set(answer) == {"error"}
        kind = answer["error"]["kind"]
        assert kind != "internal", answer
        assert (kind == "schema") == (code == 2), answer
    return code, answer


def test_every_command_has_a_valid_document():
    assert set(VALID) == set(COMMANDS)


@pytest.mark.parametrize("command", COMMANDS)
def test_valid_documents_are_answered(command):
    code, _ = check_answer(command, VALID[command])
    assert code == 0


@pytest.mark.parametrize("command", COMMANDS)
@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(data=st.data())
def test_a_field_of_another_shape_is_never_an_internal_error(command, data):
    document = VALID[command]
    path, original = data.draw(st.sampled_from(list(paths(document))), label="field")
    value = data.draw(st.one_of(*(strategy for name, strategy in SHAPES.items()
                                  if name != shape(original))), label="value")
    check_answer(command, mutated(document, path, value))


IDEAL_COMMANDS = [c for c in COMMANDS if c.startswith("ideal.")]


@pytest.mark.parametrize("command, document, field", [
    ("aut.compose", {"ring": RING, "payload": {
        "first": 5, "second": VALID["aut.compose"]["payload"]["second"]}}, "first"),
    ("aut.compose", {"ring": RING, "payload": {
        "first": {"deriv": 5}, "second": VALID["aut.compose"]["payload"]["second"]}},
     "first.deriv"),
    ("aut.compose", {"ring": RING, "payload": {
        "first": {"images": 5, "t_image": "t"},
        "second": VALID["aut.compose"]["payload"]["second"]}}, "first.images"),
    ("aut.cocycle", {"ring": RING, "payload": {
        **VALID["aut.cocycle"]["payload"], "jk": 5}}, "jk"),
    ("aut.cocycle", {"ring": RING, "payload": {
        **VALID["aut.cocycle"]["payload"], "jk": {"deriv": 5}}}, "jk.deriv"),
    ("aut.cocycle", {"ring": RING, "payload": {
        **VALID["aut.cocycle"]["payload"], "ik": {"images": 5, "t_image": "t"}}},
     "ik.images"),
    *[(command, {**VALID[command], "ring": ring}, "ring")
      for command in IDEAL_COMMANDS for ring in (5, "abc")],
    ("ideal.chart", {"payload": {**VALID["ideal.chart"]["payload"], "chart": 5}},
     "chart"),
    ("regseq.shadow", {"ring": RING, "payload": {"element": "x", "sequence": 5}},
     "sequence"),
    *[(command, {"ring": RING, "payload": {"vectors": [5], "element": ["x"]}},
       "vectors") for command in ("gb", "nf", "syz")],
    ("module.filtration", {"ring": {"variables": ["x"], "n": 10 ** 30},
                           "payload": {"free": {"rank": 1}}}, "ring.n"),
    ("hilbert.pred", {"ring": {"variables": ["x"], "n": 17},
                      "payload": {"free": {"rank": 1}}}, "ring.n"),
])
def test_documents_that_once_were_internal_errors(command, document, field):
    code, answer = check_answer(command, document)
    assert code == 2
    assert field in answer["error"]["message"]


@pytest.mark.parametrize("command", ["gb", "nf", "syz"])
@pytest.mark.parametrize("rank", [1.0, "1"])
def test_span_rank_is_read_as_an_integer(command, rank):
    code, answer = check_answer(command, {"ring": RING, "payload": {
        "vectors": [["x"]], "rank": rank, "element": ["x"]}})
    assert code == 0
    if command == "gb":
        assert answer["rank"] == 1 and type(answer["rank"]) is int


@pytest.mark.parametrize("command", ["gb", "nf", "syz"])
def test_span_rank_refuses_a_boolean(command):
    code, answer = check_answer(command, {"ring": RING, "payload": {
        "vectors": [["x"]], "rank": True, "element": ["x"]}})
    assert code == 2
    assert "payload.rank" in answer["error"]["message"]


def test_ring_n_up_to_the_bound_is_answered():
    code, _ = check_answer("module.filtration", {
        "ring": {"variables": ["x"], "n": 16}, "payload": {"free": {"rank": 1}}})
    assert code == 0


def test_unreadable_input_is_a_schema_error(tmp_path, capsys):
    # an integer literal of more digits than int() converts
    code, out = run("ideal.tau", '{"payload": {"a": ' + "1" * 5000 + "}}")
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "schema"
    # a file that is not UTF-8
    path = tmp_path / "job.json"
    path.write_bytes(b'{"payload": {"a": "\xff"}}')
    assert main(["ideal.tau", str(path)]) == 2
    assert json.loads(capsys.readouterr().out)["error"]["kind"] == "schema"


# Sizes: the fuzz above never grows a number in place, so each size field
# of a module document has an explicit case beyond its bound, answered as a
# schema error naming the field, and one at its bound, answered.
HUGE = 10 ** 30


@pytest.mark.parametrize("command, payload, field", [
    ("module.filtration", {"free": {"rank": HUGE}}, "free.rank"),
    ("module.filtration", {"free": {"rank": 65}}, "free.rank"),
    ("module.filtration", {"presentation": {"generators": HUGE, "relations": []}},
     "presentation.generators"),
    ("hilbert.poly", {"free": {"rank": 1, "t_weight": HUGE}}, "free.t_weight"),
    ("hilbert.poly", {"free": {"rank": 2, "degrees": [0, HUGE]}}, "free.degrees"),
    ("hilbert.poly", {"free": {"rank": 2, "degrees": [0, -65]}}, "free.degrees"),
    ("hilbert.poly", {"presentation": {"generators": 1, "degrees": [0], "t_weight": -65}},
     "presentation.t_weight"),
    ("hilbert.pred", {"truncated_free": {"level": 1, "degree": 65}},
     "truncated_free.degree"),
    # a span's rank is given or read off its first vector
    ("gb", {"vectors": [["x"] * 65]}, "payload.rank"),
    ("syz", {"rank": 65, "vectors": [["x"] * 65]}, "payload.rank"),
    ("nf", {"rank": HUGE, "vectors": [["x"]], "element": ["x"]}, "payload.rank"),
])
def test_a_size_beyond_its_bound_is_a_schema_error(command, payload, field):
    code, answer = check_answer(command, {"ring": RING, "payload": payload})
    assert code == 2
    assert field in answer["error"]["message"]


# A ring has at most cli.MAX_VARIABLES (16) variables.
def ring_over(count):
    return {"variables": [f"x{i}" for i in range(count)], "n": 2}


def test_a_variable_count_beyond_its_bound_is_a_schema_error():
    code, answer = check_answer("hilbert.poly", {"ring": ring_over(17),
                                                 "payload": {"ideal": ["x0", "x1"]}})
    assert code == 2
    assert "ring.variables" in answer["error"]["message"]


def test_a_variable_count_at_its_bound_is_answered():
    code, _ = check_answer("hilbert.poly", {"ring": ring_over(16),
                                            "payload": {"ideal": ["x0", "x1"]}})
    assert code == 0


@pytest.mark.parametrize("command, payload", [
    ("module.filtration", {"free": {"rank": 64}}),
    ("module.filtration", {"presentation": {"generators": 64, "relations": []}}),
    ("hilbert.poly", {"free": {"rank": 2, "degrees": [-64, 64], "t_weight": 64}}),
    ("hilbert.pred", {"presentation": {"generators": 2, "relations": [["x", "y"]],
                                       "degrees": [64, 64], "t_weight": -64}}),
    ("hilbert.poly", {"truncated_free": {"level": 1, "degree": -64, "t_weight": 64}}),
    ("gb", {"vectors": [["x"] * 64]}),
])
def test_a_size_at_its_bound_is_answered(command, payload):
    code, _ = check_answer(command, {"ring": RING, "payload": payload})
    assert code == 0
