"""End-to-end checks for the JSON command line interface."""

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile

import pytest

from truncmod.cli import main


def run(command, document, *flags):
    """Invoke the CLI on a JSON document, returning (exit code, parsed output)."""
    text = document if isinstance(document, str) else json.dumps(document)
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as handle:
        handle.write(text)
        path = handle.name
    buffer = io.StringIO()
    try:
        with contextlib.redirect_stdout(buffer):
            code = main([command, path, *flags])
    finally:
        os.unlink(path)
    return code, json.loads(buffer.getvalue())


RING_PLAIN = {"variables": ["x", "y"], "n": 1}
RING_DOUBLE = {"variables": ["x", "y"], "n": 2}
RING_UPPER = {"variables": ["X", "Y"], "n": 2}


def test_groebner_basis_command():
    code, out = run("gb", {
        "ring": RING_PLAIN,
        "payload": {"generators": ["x^2 - 1", "x*y - 1"]},
        "options": {"order": "lex"},
    })
    assert code == 0
    assert out["basis"] == [["x - y"], ["y^2 - 1"], ["t"]]
    assert out["rank"] == 1
    assert out["meta"]["command"] == "gb"
    assert isinstance(out["meta"]["elapsed_ms"], (int, float))


def test_calls_share_the_parser_built_at_import(monkeypatch):
    """``main`` builds no argument parser per call, and flags still parse."""
    def refuse(*args, **kwargs):
        raise AssertionError("an argument parser was built per call")

    monkeypatch.setattr(argparse, "ArgumentParser", refuse)
    doc = {"ring": RING_PLAIN, "payload": {"generators": ["x^2 - 1", "x*y - 1"]}}
    for _ in range(2):
        code, out = run("gb", doc, "--order", "lex")
        assert code == 0
        assert out["basis"] == [["x - y"], ["y^2 - 1"], ["t"]]
    with pytest.raises(SystemExit) as exit_info, \
            contextlib.redirect_stderr(io.StringIO()):
        main(["gb", "-", "--order", "revlex"])
    assert exit_info.value.code == 2


def test_order_flag_overrides_document():
    doc = {"ring": RING_PLAIN, "payload": {"generators": ["x^2 - 1", "x*y - 1"]}}
    code, out = run("gb", doc, "--order", "lex")
    assert code == 0
    assert out["basis"] == [["x - y"], ["y^2 - 1"], ["t"]]


def test_normal_form_and_membership():
    doc = {
        "ring": RING_PLAIN,
        "payload": {"generators": ["x^2 - 1", "x*y - 1"], "element": "x^2"},
        "options": {"order": "lex"},
    }
    code, out = run("nf", doc)
    assert code == 0
    assert out["normal_form"] == ["1"]
    assert out["member"] is False

    doc["payload"]["element"] = "x^2 - 1"
    code, out = run("nf", doc)
    assert code == 0
    assert out["normal_form"] == ["0"]
    assert out["member"] is True


@pytest.mark.parametrize("ring, generators, expected", [
    # at n = 1 the rows t*e_i are zero in R[1]^2
    (RING_PLAIN, ["x", "y"], {("-y", "x")}),
    # over S the kernel also holds t^2*e_1, which is zero in R[2]^2; t*e_2
    # is not zero there, and t*t = t^2 = 0
    (RING_DOUBLE, ["x", "t"], {("-t", "x"), ("0", "t")}),
], ids=["n1", "n2"])
def test_syzygies_are_nonzero_vectors_of_R_n(ring, generators, expected):
    code, out = run("syz", {"ring": ring, "payload": {"generators": generators}})
    assert code == 0
    assert {tuple(row) for row in out["syzygies"]} == expected


def test_zero_divisor_command():
    code, out = run("ring.zerodivisor", {"ring": RING_UPPER, "payload": {"element": "t*X"}})
    assert code == 0
    assert out["zerodivisor"] is True
    assert out["witness"] == "t"

    code, out = run("ring.zerodivisor", {"ring": RING_UPPER, "payload": {"element": "1 + X*t"}})
    assert code == 0
    assert out["zerodivisor"] is False
    assert out["witness"] is None


def test_element_with_trailing_whitespace_is_read():
    code, out = run("ring.zerodivisor", {"ring": RING_DOUBLE, "payload": {"element": "x*t "}})
    assert code == 0
    assert out["zerodivisor"] is True
    assert out["witness"] == "t"


def test_automorphism_composition():
    code, out = run("aut.compose", {
        "ring": RING_DOUBLE,
        "payload": {
            "first": {"deriv": {"x": "x^2", "y": "0"}, "alpha": "1"},
            "second": {"deriv": {"x": "y", "y": "x"}, "alpha": "1"},
        },
    })
    assert code == 0
    composite = out["composite"]
    assert composite["alpha"] == "1"
    assert composite["deriv"] == {"x": "x^2 + y", "y": "x"}
    assert composite["images"]["x"] == "x^2*t + y*t + x"
    assert composite["t_image"] == "t"


@pytest.mark.parametrize("first, key", [
    ({"images": {"t": "x"}, "t_image": "t"}, "t"),
    ({"images": {"q": "x^2"}, "t_image": "2*t"}, "q"),
    ({"deriv": {"t": "1"}}, "t"),
])
def test_an_image_keyed_by_a_name_that_is_not_a_base_variable_is_refused(first, key):
    # these once composed to the identity, the stray image silently dropped
    code, out = run("aut.compose", {"ring": RING_DOUBLE, "payload": {
        "first": first, "second": {"images": {}, "t_image": "t"}}})
    assert code == 2
    assert out["error"]["kind"] == "schema"
    assert f"{key!r}" in out["error"]["message"]


def test_cocycle_accept_and_reject():
    base = {
        "ij": {"deriv": {"x": "1", "y": "0"}, "alpha": "1"},
        "jk": {"deriv": {"x": "0", "y": "1"}, "alpha": "1"},
        "ik": {"deriv": {"x": "1", "y": "1"}, "alpha": "1"},
    }
    code, out = run("aut.cocycle", {"ring": RING_DOUBLE, "payload": base})
    assert code == 0
    assert out["consistent"] is True

    broken = dict(base)
    broken["ik"] = {"deriv": {"x": "1", "y": "2"}, "alpha": "1"}
    code, out = run("aut.cocycle", {"ring": RING_DOUBLE, "payload": broken})
    assert code == 0
    assert out["consistent"] is False


def test_filtration_summary():
    code, out = run("module.filtration", {"ring": RING_DOUBLE, "payload": {"free": {"rank": 1}}})
    assert code == 0
    for side in ("first", "second"):
        assert out[side]["members"] == 3
        layers = out[side]["layers"]
        assert len(layers) == 2
        assert all(layer["t_annihilated"] for layer in layers)
        assert all(not layer["zero"] for layer in layers)


def test_balance_verdict_and_witness():
    code, out = run("module.balanced", {
        "ring": RING_UPPER,
        "payload": {"ideal": ["X^2", "Y^2 + t", "X*Y"]},
    })
    assert code == 0
    assert out["balanced"] is False
    assert out["by_composite"] is False
    assert out["by_filtration"] is False
    assert out["witness"] == "X*t"
    assert out["witness_level"] == 1

    code, out = run("module.balanced", {
        "ring": RING_UPPER,
        "payload": {"ideal": ["X^2", "Y^2", "X*Y"]},
    })
    assert code == 0
    assert out["balanced"] is True
    assert out["by_composite"] is True
    assert out["by_filtration"] is True
    assert out["witness"] is None


def test_an_unbalanced_ideal_parses_each_generator_once(monkeypatch):
    # the witness is written through the generators the module was built from
    from truncmod.multiring import TruncRing

    parsed = []
    parse = TruncRing.parse

    def counted(self, text):
        parsed.append(text)
        return parse(self, text)

    monkeypatch.setattr(TruncRing, "parse", counted)
    gens = ["X^2", "Y^2 + t", "X*Y"]
    code, out = run("module.balanced", {"ring": RING_UPPER, "payload": {"ideal": gens}})
    assert code == 0
    assert out["balanced"] is False and out["witness"] == "X*t"
    assert parsed == gens


def test_balance_at_n_1_is_immediate():
    # no comparison maps exist for n = 1; the verdict needs no layers
    code, out = run("module.balanced", {"ring": RING_PLAIN, "payload": {"free": {"rank": 1}}})
    assert code == 0
    assert out["balanced"] is True
    assert out["witness"] is None
    assert out["note"] == "all comparison kernels and cokernels vanish"


def test_quasifree_and_generic_type():
    code, out = run("module.quasifree", {"ring": RING_DOUBLE, "payload": {"truncated_free": {"level": 1}}})
    assert code == 0
    assert out["quasi_free"] is True
    assert out["type"] == [1, 0]
    assert out["layer_ranks"] == [1, 0]
    assert out["first_nonfree"] is None

    code, out = run("module.generictype", {"ring": RING_DOUBLE, "payload": {"free": {"rank": 2}}})
    assert code == 0
    assert out["type"] == [0, 2]


def test_torsion_report():
    code, out = run("module.torsion", {
        "ring": {"variables": ["x"], "n": 2},
        "payload": {"presentation": {"generators": 1, "relations": [["x*t"]], "degrees": [0]}},
    })
    assert code == 0
    assert out["torsion_free"] is False
    assert out["generators"] == [["t"]]
    assert out["witnesses"] == [{"annihilator": "x", "element": ["t"]}]


def test_dual_presentation():
    code, out = run("module.dual", {"ring": RING_DOUBLE, "payload": {"truncated_free": {"level": 1}}})
    assert code == 0
    assert out["dual"] == {"degrees": [1], "generators": 1, "relations": [["t"]], "t_weight": 1}


def test_ext_dimensions_with_degree_bound_flag():
    doc = {
        "ring": RING_DOUBLE,
        "payload": {
            "source": {"truncated_free": {"level": 1}},
            "target": {"truncated_free": {"level": 1}},
        },
    }
    code, out = run("module.ext1", doc, "--degree-bound", "4")
    assert code == 0
    assert out["dimensions"] == [1, 2, 3, 4, 5]
    assert out["ext1"]["generators"] == 1
    assert out["ext1"]["relations"] == [["t"]]


def test_extension_construction():
    code, out = run("module.extend", {"ring": RING_DOUBLE, "payload": {"sigma": "1", "level": 1}})
    assert code == 0
    assert out["generic_type"] == [0, 1]
    assert out["module"]["generators"] == 2
    assert out["module"]["relations"] == [["t", "0"], ["1", "t"]]

    code, out = run("module.extend", {"ring": RING_DOUBLE, "payload": {"sigma": "0", "level": 1}})
    assert code == 0
    assert out["generic_type"] == [2, 0]


def test_refinement_matching():
    code, out = run("module.refine", {"ring": RING_DOUBLE, "payload": {"free": {"rank": 1}}})
    assert code == 0
    assert out["first_refined_members"] == 3
    assert out["second_refined_members"] == 3
    assert out["matched_layers"] == [[0, 0], [1, 1]]


def test_refinement_is_the_same_at_every_t_weight():
    # t-weight 1 compares series over Q[x, y, t]; 0 and 2 restrict to Q[x, y]
    answers = []
    for t_weight in (0, 1, 2):
        code, out = run("module.refine", {
            "ring": {"variables": ["x", "y"], "n": 3},
            "payload": {"presentation": {
                "generators": 2, "relations": [["t", "0"], ["0", "t^2"]],
                "degrees": [0, 0], "t_weight": t_weight}},
        })
        assert code == 0
        out.pop("meta")
        answers.append(out)
    assert answers[0]["matched_layers"] == [[0, 1], [0, 2], [1, 2]]
    assert answers[0] == answers[1] == answers[2]


def test_regular_sequence_check():
    code, out = run("regseq.check", {"ring": RING_DOUBLE, "payload": {"sequence": ["x + t", "y + x*t"]}})
    assert code == 0
    assert out["regular"] is True
    assert out["reductions"] == ["x", "y"]
    assert out["witness"] is None
    assert out["witness_index"] is None

    code, out = run("regseq.check", {"ring": RING_DOUBLE, "payload": {"sequence": ["t", "x"]}})
    assert code == 0
    assert out["regular"] is False
    assert out["witness_index"] == 1
    assert out["witness"] == "t"


def test_shadow_membership():
    doc = {"ring": RING_DOUBLE, "payload": {"element": "x^2", "sequence": ["x + t", "y"]}}
    code, out = run("regseq.shadow", doc)
    assert code == 0
    assert out["member"] is True

    doc["payload"]["element"] = "1"
    code, out = run("regseq.shadow", doc)
    assert code == 0
    assert out["member"] is False


def test_point_ideal_commands():
    code, out = run("ideal.tau", {"payload": {"a": "1", "b": "0"}})
    assert code == 0
    assert out["tau"] == [0, -1]

    code, out = run("ideal.eq", {"payload": {"first": {"a": "y^2", "b": "0"}, "second": {"a": "0", "b": "0"}}})
    assert code == 0
    assert out["equal"] is True

    code, out = run("ideal.lambda", {"payload": {"a": "1", "b": "0"}})
    assert code == 0
    assert out["lambda"] == [-1, 0]
    assert out["chart"] == "x,y"

    code, out = run("ideal.recover", {"payload": {"tau": "-y*t"}})
    assert code == 0
    assert out["a"] == "1"
    assert out["b"] == "0"
    assert out["generators"] == ["x + t", "y"]


def test_chart_change_and_difference():
    chart = {"alpha": "1", "beta": "2", "gamma": "3", "delta": "7"}
    code, out = run("ideal.chart", {"payload": {"a": "5", "b": "11", "chart": chart}})
    assert code == 0
    assert out["lambda"] == [-27, -92]
    assert out["chart"] == "chart"

    code, out = run("ideal.chart", {
        "payload": {"a": "5", "b": "11", "chart": chart, "difference_with": {"a": "1", "b": "0"}},
    })
    assert code == 0
    assert out["difference"] == [-4, -11]


def test_resolution_and_ext_tables():
    code, out = run("ideal.resolution", {"payload": {}}, "--degree-bound", "3")
    assert code == 0
    assert out["ok"] is True
    assert out["failures"] == []
    assert out["table"] == [[2, 3, 3, 0, 0], [3, 6, 6, 3, 3]]

    code, out = run("ideal.extcheck", {"payload": {}}, "--degree-bound", "3")
    assert code == 0
    assert out["ok"] is True
    assert out["failures"] == []
    assert out["table"] == [[2, 3, 0, 3, 3], [3, 5, 3, 2, 2]]


def test_resolution_map_outside_the_degree_basis_is_a_math_error():
    code, out = run("ideal.resolution", {
        "options": {"degree_bound": 5},
        "payload": {"phi1": [["y", "-x"], ["t", "0"], ["0", "x*t"]]},
    })
    assert code == 3
    assert out["error"]["kind"] == "DoublePointError"
    message = out["error"]["message"]
    assert "column 2" in message
    assert "x*t" in message


def test_resolution_column_of_two_degrees_is_a_math_error():
    code, out = run("ideal.resolution", {
        "payload": {"phi1": [["y", "-x"], ["t", "0"], ["0", "t + x*y"]]},
    })
    assert code == 3
    assert out["error"]["kind"] == "DoublePointError"
    assert "column 2" in out["error"]["message"]


@pytest.mark.parametrize("command, payload", [
    ("ideal.resolution", {"phi1": [["y", "-x"]]}),
    ("ideal.resolution", {"phi2": 5}),
    ("ideal.extcheck", {"psi1": 3}),
    ("ideal.extcheck", {"psi2": [["0", "y", "-x"], ["0", "0", "0"], ["0", "0", "0"],
                                 ["0", "x", "0"]]}),
])
def test_resolution_maps_of_the_wrong_shape_are_schema_errors(command, payload):
    code, out = run(command, {"payload": payload})
    assert code == 2
    assert out["error"]["kind"] == "schema"


def test_ideal_extend_builds_its_extension_module_once(monkeypatch):
    from truncmod import cli, doublepoint

    calls = []
    build = doublepoint.extension_module

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(doublepoint, "extension_module", counted)
    monkeypatch.setattr(cli, "extension_module", counted)
    code, out = run("ideal.extend", {"payload": {"tau": [1, 0], "rho": "-1"}})
    assert code == 0
    assert out["balanced"] is True
    assert len(calls) == 1


def test_ideal_extend_computes_the_kernel_of_t_once(monkeypatch):
    """The gap route and ``is_balanced`` both read ann(t) at n = 2; the
    module keeps it, so its graph basis is built once per job."""
    from truncmod import fpmod

    t_columns = [{(j, (0, 0, 1)): 1} for j in range(4)]
    kernels = []
    inner = fpmod.kernel_through

    def counted(ring, rank, columns, relations):
        kernels.append(columns == t_columns)
        return inner(ring, rank, columns, relations)

    monkeypatch.setattr(fpmod, "kernel_through", counted)
    for rho, balanced in (("-1", True), ("x", False)):
        kernels.clear()
        code, out = run("ideal.extend", {"payload": {"tau": [1, 0], "rho": rho}})
        assert code == 0
        assert out["balanced"] is balanced
        assert kernels.count(True) == 1


def test_double_point_extension_balance():
    code, out = run("ideal.extend", {"payload": {"tau": [1, 0], "rho": "-1"}})
    assert code == 0
    assert out["balanced"] is True
    assert out["module"]["generators"] == 4

    code, out = run("ideal.extend", {"payload": {"tau": [1, 0], "rho": "x"}})
    assert code == 0
    assert out["balanced"] is False


def test_ideal_commands_follow_the_ring_order():
    doc = {"payload": {"tau": [1, 0], "rho": "x + y^2"}}
    by_order = {}
    for flags in ((), ("--order", "lex")):
        code, out = run("ideal.extend", doc, *flags)
        assert code == 0
        by_order[flags] = out["module"]["relations"][1][2]
    assert by_order[()] == "y^2 + x"
    assert by_order[("--order", "lex")] == "x + y^2"
    code, out = run("ideal.extend", {**doc, "options": {"order": "lex"}})
    assert code == 0
    assert out["module"]["relations"][1][2] == "x + y^2"


def test_hilbert_commands():
    code, out = run("hilbert.poly", {
        "ring": {"variables": ["x0", "x1", "x2"], "n": 1},
        "payload": {"ideal": ["x0", "x1"]},
    })
    assert code == 0
    assert out["coefficients"] == [0, "3/2", "1/2"]
    assert out["degree"] == 2

    code, out = run("hilbert.pred", {
        "ring": {"variables": ["x0", "x1", "x2"], "n": 2},
        "payload": {"free": {"rank": 1}},
    })
    assert code == 0
    assert out["coefficients"] == [1, 2, 1]
    assert out["degree"] == 2
    assert out["support_dimension"] == 2
    assert out["rank_coefficient"] == 2
    assert out["degree_coefficient"] == 2


def test_schema_errors_exit_two():
    code, out = run("gb", "{not json")
    assert code == 2
    assert out["error"]["kind"] == "schema"

    code, out = run("gb", {"ring": {"variables": ["x"], "n": 1}, "payload": {}})
    assert code == 2
    assert out["error"]["kind"] == "schema"
    assert "vectors" in out["error"]["message"]

    code, out = run("nf", {
        "command": "gb",
        "ring": {"variables": ["x"], "n": 1},
        "payload": {"generators": ["x"]},
    })
    assert code == 2
    assert "invoked as 'nf'" in out["error"]["message"]

    code, out = run("gb", {"ring": {"variables": ["x"], "n": 1}, "payload": {"generators": ["x^-1"]}})
    assert code == 2
    assert out["error"]["kind"] == "schema"

    # the twist coefficients of a point ideal live in the base plane ring,
    # which has no t
    code, out = run("ideal.tau", {"payload": {"a": "t", "b": "0"}})
    assert code == 2
    assert out["error"]["kind"] == "schema"
    assert "payload.a" in out["error"]["message"]


def test_deep_nesting_is_a_json_error():
    ring = {"variables": ["x"], "n": 1}
    for text in ("(" * 1200 + "x" + ")" * 1200, "x*" + "-" * 1200 + "x"):
        code, out = run("gb", {"ring": ring, "payload": {"generators": [text]}})
        assert code == 2
        assert out["error"]["kind"] == "schema"
        assert "nested deeper" in out["error"]["message"]

    code, out = run("gb", {"ring": ring, "payload": {"generators": ["(" * 50 + "x" + ")" * 50]}})
    assert code == 0
    assert out["basis"] == [["x"], ["t"]]

    code, out = run("gb", "[" * 100000 + "]" * 100000)
    assert code == 2
    assert out["error"]["kind"] == "schema"


def test_math_errors_exit_three():
    code, out = run("hilbert.poly", {
        "ring": RING_DOUBLE,
        "payload": {"ideal": ["x^2", "y^2 + t", "x*y"]},
    })
    assert code == 3
    assert out["error"]["kind"] == "HilbertError"
    assert "grading" in out["error"]["message"]


def test_stdin_and_output_format():
    document = json.dumps({"payload": {"a": "1", "b": "0"}})
    proc = subprocess.run(
        [sys.executable, "-m", "truncmod.cli", "ideal.tau"],
        input=document, capture_output=True, text=True,
    )
    assert proc.returncode == 0
    parsed = json.loads(proc.stdout)
    assert parsed["tau"] == [0, -1]
    assert proc.stdout == json.dumps(parsed, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("module, field", [
    ({"free": {"rank": "abc"}}, "free.rank"),
    ({"free": {"rank": float("inf")}}, "free.rank"),
    ({"free": {"rank": 2, "degrees": ["a", 0]}}, "free.degrees"),
    ({"free": {"rank": 1, "degrees": 5}}, "free.degrees"),
    ({"free": {"rank": 1, "t_weight": [1]}}, "free.t_weight"),
    ({"presentation": {"generators": 1, "degrees": ["a"]}}, "presentation.degrees"),
    ({"presentation": {"generators": 1, "degrees": [0], "t_weight": "w"}},
     "presentation.t_weight"),
    ({"truncated_free": {"level": "one"}}, "truncated_free.level"),
    ({"truncated_free": {"level": 1, "degree": None}}, "truncated_free.degree"),
    ({"truncated_free": {"level": 1, "t_weight": {}}}, "truncated_free.t_weight"),
    # degree lists of the wrong length
    ({"free": {"rank": 2, "degrees": [0]}}, "free.degrees"),
    ({"free": {"rank": 1, "degrees": [0, 1, 2]}}, "free.degrees"),
])
def test_non_integer_shape_fields_are_schema_errors(module, field):
    code, out = run("module.filtration", {"ring": RING_DOUBLE, "payload": module})
    assert code == 2
    assert out["error"]["kind"] == "schema"
    assert f"payload.{field}" in out["error"]["message"]


def test_an_empty_degree_list_means_every_degree_is_0():
    answers = []
    for free in ({"rank": 2, "degrees": []}, {"rank": 2, "degrees": [0, 0]}):
        code, out = run("hilbert.poly", {"ring": RING_DOUBLE, "payload": {"free": free}})
        assert code == 0
        out.pop("meta")
        answers.append(out)
    assert answers[0] == answers[1]


@pytest.mark.parametrize("command, document", [
    ("regseq.check", {"ring": RING_DOUBLE, "payload": {"sequence": ["x", "y"]},
                      "options": {"jet_order": "a"}}),
    ("regseq.check", {"ring": RING_DOUBLE, "payload": {"sequence": ["x", "y"]},
                      "options": {"jet_order": True}}),
    ("ideal.resolution", {"payload": {}, "options": {"degree_bound": "a"}}),
    ("module.ext1", {"ring": RING_DOUBLE,
                     "payload": {"source": {"truncated_free": {"level": 1}},
                                 "target": {"truncated_free": {"level": 1}}},
                     "options": {"degree_bound": "2"}}),
    ("module.balanced", {"ring": RING_DOUBLE, "payload": {"ideal": ["x", "y"]},
                         "options": [1]}),
    # out of 0..cli.MAX_OPTION_BOUND: the first would run without bound
    ("module.ext1", {"ring": RING_DOUBLE,
                     "payload": {"source": {"truncated_free": {"level": 1}},
                                 "target": {"truncated_free": {"level": 1}}},
                     "options": {"degree_bound": 100000}}),
    ("regseq.check", {"ring": RING_DOUBLE, "payload": {"sequence": ["x", "y"]},
                      "options": {"jet_order": -3}}),
])
def test_bad_options_are_schema_errors(command, document):
    code, out = run(command, document)
    assert code == 2
    assert out["error"]["kind"] == "schema"
    assert "options" in out["error"]["message"]


@pytest.mark.parametrize("command, document, message", [
    ("ideal.resolution", {"payload": {}, "options": {"degree_bound": 0}},
     "degree bound must be at least 2"),
    ("ideal.extcheck", {"payload": {}, "options": {"degree_bound": 0}},
     "degree bound must be at least 2"),
])
def test_explicit_zero_option_is_not_the_default(command, document, message):
    code, out = run(command, document)
    assert code == 3
    assert out["error"]["kind"] == "DoublePointError"
    assert message in out["error"]["message"]


@pytest.mark.parametrize("command, document", [
    ("ideal.tau", {"payload": {"a": "1 + x", "b": "-2"}}),
    ("ideal.eq", {"payload": {"first": {"a": "1", "b": "x"},
                              "second": {"a": "1 + y^2", "b": "x*y"}}}),
    ("ideal.eq", {"payload": {"first": {"a": "1", "b": "0"}, "second": {"a": "0", "b": "0"}}}),
    ("regseq.check", {"ring": RING_DOUBLE, "payload": {"sequence": ["x", "y"]}}),
    ("regseq.shadow", {"ring": RING_DOUBLE,
                       "payload": {"sequence": ["x", "y"], "element": "x"}}),
])
def test_an_unknown_option_is_a_schema_error(command, document):
    """``options`` holds ``order`` and ``degree_bound`` only: a jet order
    (which no command reads) or a misspelled key is refused by name, not
    ignored."""
    code, out = run(command, document)
    assert code == 0
    for options in ({"jet_order": 0}, {"jet_order": 3}, {"degre_bound": 4},
                    {"degree_bound": 4, "jet_order": None}):
        code, out = run(command, {**document, "options": options})
        assert code == 2
        assert out["error"]["kind"] == "schema"
        key = next(k for k in options if k != "degree_bound")
        assert out["error"]["message"] == f"options.{key} is not an option"


def test_the_jet_order_flag_is_gone(tmp_path):
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"ring": RING_DOUBLE, "payload": {"sequence": ["x", "y"]}}))
    with pytest.raises(SystemExit) as exit_info, \
            contextlib.redirect_stderr(io.StringIO()):
        main(["regseq.check", str(path), "--jet-order", "3"])
    assert exit_info.value.code == 2


def test_huge_exponent_is_a_schema_error():
    for text in ("x^99999999999999999999", "(1+x)^99999999999999999999"):
        code, out = run("gb", {"ring": RING_DOUBLE, "payload": {"generators": [text]}})
        assert code == 2
        assert out["error"]["kind"] == "schema"
        assert "exponent" in out["error"]["message"]


def test_negative_free_rank_is_a_schema_error():
    code, out = run("module.filtration", {
        "ring": RING_DOUBLE, "payload": {"free": {"rank": -1}},
    })
    assert code == 2
    assert out["error"]["kind"] == "schema"
    assert "payload.free.rank" in out["error"]["message"]


def test_shape_fields_accept_integer_strings_and_floats():
    code, out = run("module.filtration", {
        "ring": RING_DOUBLE,
        "payload": {"free": {"rank": "2", "degrees": ["0", 1.0], "t_weight": "1"}},
    })
    assert code == 0


@pytest.mark.parametrize("command, document, field", [
    ("module.filtration", {"ring": {"variables": ["x", "y"], "n": True},
                           "payload": {"free": {"rank": 1}}}, "ring.n"),
    ("module.extend", {"ring": RING_DOUBLE, "payload": {"sigma": "x", "level": True}},
     "payload.level"),
    ("module.filtration", {"ring": RING_DOUBLE, "payload": {"free": {"rank": True}}},
     "payload.free.rank"),
    ("module.filtration", {"ring": RING_DOUBLE,
                           "payload": {"free": {"rank": 1, "t_weight": True}}},
     "payload.free.t_weight"),
    ("module.filtration", {"ring": RING_DOUBLE, "payload": {"presentation": {
        "generators": True, "degrees": [False]}}}, "payload.presentation.generators"),
    ("module.filtration", {"ring": RING_DOUBLE, "payload": {"presentation": {
        "generators": 1, "degrees": [False]}}}, "payload.presentation.degrees"),
    ("module.filtration", {"ring": RING_DOUBLE,
                           "payload": {"truncated_free": {"level": True}}},
     "payload.truncated_free.level"),
    # nor are numbers with a fractional part, which int() would truncate
    ("module.filtration", {"ring": RING_DOUBLE, "payload": {"free": {"rank": 2.7}}},
     "payload.free.rank"),
    ("module.filtration", {"ring": RING_DOUBLE,
                           "payload": {"free": {"rank": 1, "degrees": [0.6]}}},
     "payload.free.degrees"),
    ("module.filtration", {"ring": RING_DOUBLE,
                           "payload": {"truncated_free": {"level": 1.5}}},
     "payload.truncated_free.level"),
    ("gb", {"ring": RING_DOUBLE, "payload": {"vectors": [["x"]], "rank": 1.5}},
     "payload.rank"),
])
def test_json_booleans_are_not_integers(command, document, field):
    code, out = run(command, document)
    assert code == 2
    assert out["error"]["kind"] == "schema"
    assert field in out["error"]["message"]


@pytest.mark.parametrize("relations", [5, "x", {"0": ["x"]}, None])
def test_non_list_relations_are_schema_errors(relations):
    code, out = run("module.filtration", {
        "ring": RING_DOUBLE,
        "payload": {"presentation": {"generators": 1, "relations": relations}},
    })
    assert code == 2
    assert out["error"]["kind"] == "schema"
    assert "payload.presentation.relations" in out["error"]["message"]


@pytest.mark.parametrize("command, payload, where", [
    ("module.filtration", 5, "payload"),
    ("gb", ["x"], "payload"),
    ("module.ext1", {"source": 5, "target": {"truncated_free": {"level": 1}}}, "source"),
])
def test_non_object_payloads_are_schema_errors(command, payload, where):
    code, out = run(command, {"ring": RING_DOUBLE, "payload": payload})
    assert code == 2
    assert out["error"]["kind"] == "schema"
    assert where in out["error"]["message"]


def test_a_fault_of_the_program_is_an_internal_error(monkeypatch):
    """No exception leaves ``main``: one that no schema or math check
    names becomes an ``internal`` error document with its own exit code."""
    from truncmod import cli

    def broken(job, payload, options):
        return {}["missing"]

    monkeypatch.setitem(cli._HANDLERS, "gb", broken)
    code, out = run("gb", {"ring": RING_PLAIN, "payload": {"generators": ["x"]}})
    assert code == cli.EXIT_INTERNAL == 4
    assert set(out) == {"error"} and out["error"]["kind"] == "internal"
    assert out["error"]["message"].startswith("KeyError: 'missing' (test_cli.py:")
    assert out["error"]["message"].endswith(" in broken)")
