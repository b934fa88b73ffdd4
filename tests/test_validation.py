import pytest

import eseem.validation
from eseem.validation import CHECKS, run_checks


def test_all_checks_pass():
    results = run_checks()
    failed = [r.check_id for r in results if not r.passed]
    assert failed == []
    assert len(results) == len(CHECKS)
    total = sum(r.seconds for r in results)
    assert total < 30.0


def test_failing_check_is_reported(monkeypatch):
    monkeypatch.setattr(eseem.validation, "CHECKS", [
        CHECKS[2], ("stub.fail", "always over its bound", lambda: (2.0, 1.0))])
    results = run_checks()
    failed = [r.check_id for r in results if not r.passed]
    assert [r.check_id for r in results] == ["spin.kron-mixed-product",
                                             "stub.fail"]
    assert failed == ["stub.fail"]
    row = next(r for r in results if not r.passed).row()
    assert row.startswith("[FAIL]")


def test_fit_engine_check_sees_the_experiment_t2(monkeypatch):
    # the trace of spectral.fit-engine is damped once, by the experiment's
    # t2_s = 210 us
    fit_decay = eseem.validation.fit_decay
    fits = []

    def recording_fit_decay(*args, **kwargs):
        fits.append(fit_decay(*args, **kwargs))
        return fits[-1]

    monkeypatch.setattr(eseem.validation, "fit_decay", recording_fit_decay)
    check = {cid: fn for cid, _, fn in CHECKS}["spectral.fit-engine"]
    measured, bound = check()
    assert measured <= bound
    assert len(fits) == 1
    assert fits[0].params["t2_s"] == pytest.approx(210e-6, rel=0.02)


def test_check_ids_unique_and_described():
    ids = [check_id for check_id, _, _ in CHECKS]
    assert len(set(ids)) == len(ids)
    assert all(desc for _, desc, _ in CHECKS)
