"""The twelve acceptance criteria, run as one test."""

import hashlib
import linecache
import random
import re
import sys

import pytest

from surgery_algebra import acceptance, matrices

# (seed, number of draws, sha256 of the draws) of each criterion that draws, in
# order.  The criteria's instances and the benchmark's suite workload follow from
# these, so a builder in surgery_algebra.generators that changes its draws fails here.
DRAW_PINS = [(3003, 3037, "bf37508e9be1dac0"), (4004, 9389, "ea59a02169f0e454"),  # criteria 3, 4
             (5005, 10699, "209284be459b0f34"), (9009, 7767, "38ea26b08983346d"),  # criteria 5, 9
             (1010, 1460, "82cbf93e9d2a3fa4"), (1111, 3098, "8258123f50f3510e")]  # criteria 10, 11


class RecordingRandom(random.Random):
    """A Random that counts and hashes the bits it draws; each new one joins ``made``."""

    def __init__(self, seed):
        self.seed_value, self.draws, self.digest = seed, 0, hashlib.sha256()
        super().__init__(seed)
        self.made.append(self)

    def getrandbits(self, k):  # randrange, randint and choice all draw through this
        r = super().getrandbits(k)
        self.draws += 1
        self.digest.update(f"{r};".encode())
        return r


def test_every_acceptance_criterion_passes(monkeypatch):
    monkeypatch.setattr(RecordingRandom, "made", [], raising=False)
    monkeypatch.setattr(acceptance.random, "Random", RecordingRandom)
    reports = acceptance.run_all()
    assert [r["criterion"] for r in reports] == list(range(1, 13))
    failed = [f"{r['criterion']} ({r['name']}): {r['detail']}" for r in reports if not r["passed"]]
    assert not failed, failed
    drawn = [(r.seed_value, r.draws, r.digest.hexdigest()[:16]) for r in RecordingRandom.made]
    assert drawn == DRAW_PINS


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
