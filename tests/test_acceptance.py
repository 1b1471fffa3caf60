"""The twelve acceptance criteria, run as one test."""

from surgery_algebra import acceptance


def test_every_acceptance_criterion_passes():
    reports = acceptance.run_all()
    assert [r["criterion"] for r in reports] == list(range(1, 13))
    failed = [f"{r['criterion']} ({r['name']}): {r['detail']}" for r in reports if not r["passed"]]
    assert not failed, failed
