"""The verification policy: every cross-check runs on every call, and a
disagreement between routes is reported through ``arith.agree``."""

import contextlib
import io
import json
from fractions import Fraction

import pytest

from truncmod import doublepoint, fpmod
from truncmod.arith import ArithError, agree
from truncmod.cli import main
from truncmod.doublepoint import DoublePointError, LocalDoubleRing, TauClass, extension_module
from truncmod.fpmod import ModuleError, extension_R_by_Ri
from truncmod.hilbert import HilbertError
from truncmod.multiring import TruncRing
from truncmod.regseq import SequenceError

UNIT_CLASS = TauClass(Fraction(1), Fraction(0))


def test_agree_returns_the_common_answer_of_two_routes():
    assert agree(ModuleError, "q", first=True, second=True) is True
    assert agree(ModuleError, "q", first=(1, Fraction(1, 2)),
                 second=(1, Fraction(1, 2))) == (1, Fraction(1, 2))


def test_agree_returns_the_common_answer_of_three_routes():
    assert agree(HilbertError, "q", a=Fraction(3), b=3, c=Fraction(6, 2)) == 3


@pytest.mark.parametrize("error", [ModuleError, HilbertError, SequenceError,
                                   DoublePointError])
def test_agree_raises_the_given_error_naming_every_route(error):
    with pytest.raises(ArithError) as caught:
        agree(error, "is it so", composite=True, filtration=False, third=True)
    assert type(caught.value) is error
    message = str(caught.value)
    assert "is it so" in message
    for said in ("composite=True", "filtration=False", "third=True"):
        assert said in message


def test_agree_names_unequal_values_of_any_type():
    with pytest.raises(DoublePointError) as caught:
        agree(DoublePointError, "class", closed_form=(0, -1), reduction=(0, 1))
    assert "closed_form=(0, -1)" in str(caught.value)
    assert "reduction=(0, 1)" in str(caught.value)


def _failing_inclusion(monkeypatch):
    """Make ``check_inclusion`` fail wherever a constructor reaches it, and
    record the error type each call was given."""
    errors = []

    def fail(E, first, N, error):
        errors.append(error)
        raise error("extension inclusion failed injectivity")

    for module in (fpmod, doublepoint):
        monkeypatch.setattr(module, "check_inclusion", fail)
    return errors


def test_extension_of_R_by_Ri_always_checks_exactness(monkeypatch):
    tr = TruncRing(("x", "y"), 3)
    errors = _failing_inclusion(monkeypatch)
    for _ in range(2):
        with pytest.raises(ModuleError, match="injectivity"):
            extension_R_by_Ri(tr, tr.parse("1"), 1)
    assert errors == [ModuleError, ModuleError]


def test_double_point_extension_always_checks_exactness(monkeypatch):
    ring = LocalDoubleRing()
    errors = _failing_inclusion(monkeypatch)
    for _ in range(2):
        with pytest.raises(DoublePointError, match="injectivity"):
            extension_module(ring, UNIT_CLASS, ring.base.parse("-1"))
    assert errors == [DoublePointError, DoublePointError]


def _joined_extension():
    tr = TruncRing(("x", "y"), 3)
    return extension_R_by_Ri(tr, tr.parse("1"), 1)


@pytest.mark.parametrize("build, block", [
    (_joined_extension, 1),
    (lambda: extension_module(LocalDoubleRing(), UNIT_CLASS, LocalDoubleRing().base.parse("-1")),
     2),
], ids=["extension_R_by_Ri", "extension_module"])
def test_each_extension_takes_one_kernel(monkeypatch, build, block):
    """Exactness is one injectivity certificate: the kernel through the
    included block's unit columns, and no kernel of a projection."""
    kernels = []
    kernel_through = fpmod.Submodule.kernel_through

    def counted(self, columns):
        kernels.append(len(columns))
        return kernel_through(self, columns)

    monkeypatch.setattr(fpmod.Submodule, "kernel_through", counted)
    build()
    assert kernels == [block]


def test_cli_reports_a_route_disagreement_as_a_math_error(monkeypatch):
    local_test = doublepoint.vanishes_locally
    monkeypatch.setattr(doublepoint, "vanishes_locally",
                        lambda Q: not local_test(Q))
    document = json.dumps({"payload": {"tau": [1, 0], "rho": "-1"}})
    monkeypatch.setattr("sys.stdin", io.StringIO(document))
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(["ideal.extend"])
    out = json.loads(buffer.getvalue())
    assert code == 3
    assert out["error"]["kind"] == "DoublePointError"
    message = out["error"]["message"]
    assert "formula=True" in message
    assert "local_test=False" in message
