"""The twelve acceptance criteria, run as one test."""

import linecache
import re
import sys

import pytest

from surgery_algebra import acceptance, matrices


def test_every_acceptance_criterion_passes():
    reports = acceptance.run_all()
    assert [r["criterion"] for r in reports] == list(range(1, 13))
    failed = [f"{r['criterion']} ({r['name']}): {r['detail']}" for r in reports if not r["passed"]]
    assert not failed, failed


def crash_in_the_package():
    matrices.inverse(matrices.int_matrix([[2]]))


def crash_here():
    raise ValueError("boom")


@pytest.mark.parametrize("fn, kind, module, function, message", [
    (crash_in_the_package, "SingularMatrixError", "surgery_algebra.matrices", "inverse",
     "matrix has no inverse over its ring"),
    (crash_here, "ValueError", "surgery_algebra.acceptance", "run_criterion", "boom"),
], ids=["raised-in-the-package", "raised-outside-the-package"])
def test_a_crash_names_its_type_and_innermost_package_frame(monkeypatch, fn, kind, module,
                                                            function, message):
    monkeypatch.setattr(acceptance, "CRITERIA", ((99, "crash", fn),))
    report = acceptance.run_criterion(99)
    assert report["passed"] is False
    found = re.fullmatch(r"exception (\w+) at ([\w.]+):(\w+):(\d+): (.*)", report["detail"])
    assert found is not None, report["detail"]
    assert found.group(1, 2, 3, 5) == (kind, module, function, message)
    source = linecache.getline(sys.modules[module].__file__, int(found.group(4)))
    assert ("raise" if fn is crash_in_the_package else "fn()") in source
