"""Pinned selftest reports under injected faults.

Each fault wraps one function that ``ordsim.selftest`` calls, so some
properties fail at known trials. The expected reports give every failing
property's failure count, the head of its first failure text (up to the
inputs) and the sha256 of the whole text, which holds the input vectors.
A random draw that moves changes one of them.
"""

import hashlib

import pytest

import ordsim.selftest as selftest
from ordsim import BoundViolationError

FAULTS = {
    "recos": lambda f: lambda u, v: f(u, v) * 0.9,
    "decos": lambda f: lambda u, v: f(u, v) * 0.999,
    "cosine": lambda f: lambda u, v: min(1.0, f(u, v) * 1.01),
    "tanimoto": lambda f: lambda u, v: f(u, v) * 0.99,
    "rearrangement_bound": lambda f: lambda u, v: f(u, v) * 1.001,
}

# run_selftest(seed=5, trials=60) under each fault: property -> (failures,
# first failure up to "; u=", sha256 of the first failure). Unlisted
# properties pass.
EXPECTED = {
    "recos": {
        "metric-hierarchy": (
            37,
            "trial 1 (d=3): |decos|=0.4634856350923019 |cos|=0.5115993037600123 "
            "|recos|=0.47530526412427726",
            "f8e09322dd79bd8d641a29185f64f0833df11ed69936f4d99a5c3a7fb23d4ae6",
        ),
        "saturation": (
            48,
            "trial 0 (d=2): similarly ordered pair gave recos=0.9",
            "1d5caa013113e4087a32ad4a62113d8610f9fe5952efd263ac46820c036e6c6a",
        ),
    },
    "decos": {
        "saturation": (
            24,
            "trial 3 (d=64): |recos|=0.1813331049794447 != |decos|=0.18115177187446527",
            "ab02efec9de53db860e1118f44b997762f476c24a7b330c401643317ef4ba331",
        ),
        "norm-identity": (
            60,
            "trial 0 (d=2): unit-norm decos/cos gap 0.0007856039291276318",
            "f3d2d1ddcbcdf9453ccd5ad49f13a423138f659e08ff4b03c98518b1fcb70d6d",
        ),
        "tanimoto-bijection": (
            60,
            "trial 0 (d=2): bijection gap 0.0001879772098175303 at t=0.10373887725693437",
            "b04181cbc330c371a409cea8cb2db0c6632edfe8bc32ab6300a252efda5a4a84",
        ),
    },
    "cosine": {
        "metric-hierarchy": (
            12,
            "trial 9 (d=512): |decos|=0.025902725486949003 |cos|=0.026162074470108338 "
            "|recos|=0.026028251957546256",
            "f272deb1dd1ce4ae12b039b70e5a2d7e02b102d6e6a181c8030247f2408e056a",
        ),
        "saturation": (
            12,
            "trial 2 (d=8): |recos|=0.22385155130047651 != |cos|=0.2260900668134813",
            "92ba455ed14b87d3c04b46afb88dea5935c777c33e3837c004c75aa9dfc87384",
        ),
        "norm-identity": (
            60,
            "trial 0 (d=2): unit-norm decos/cos gap 0.007856039291276429",
            "f77c71d5c0c7965f87adcfbc3e6ba97f89f71936912dee2e835467d9ab68aaea",
        ),
    },
    "tanimoto": {
        "tanimoto-bijection": (
            60,
            "trial 0 (d=2): bijection gap 0.0017046971622018958 at t=0.10270148848436503",
            "ca8b29eb94478ab9b45f1de2e626adca0d228383939b757c5fed6285b6e1c6c3",
        ),
    },
    "rearrangement_bound": {
        "rearrangement-oracle": (
            60,
            "trial 0 (d=2): sort route 1.4259958343070138 != brute 1.42457126304397",
            "22c8b759b8eff9387d4cb2e72c7972e6363290bcdd7cd9dd8d69e7bcca27b852",
        ),
    },
}


def _summary(report):
    out = {}
    for r in report.results:
        assert r.trials == 60
        if r.failures:
            head = r.first_failure.partition("; u=")[0]
            out[r.name] = (r.failures, head, hashlib.sha256(r.first_failure.encode()).hexdigest())
        else:
            assert r.first_failure is None
    return out


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_fault_report_is_pinned(monkeypatch, fault):
    monkeypatch.setattr(selftest, fault, FAULTS[fault](getattr(selftest, fault)))
    report = selftest.run_selftest(seed=5, trials=60)
    assert not report.passed
    assert _summary(report) == EXPECTED[fault]


def test_typed_error_is_a_property_failure(monkeypatch):
    # bound-chain reports a violation with its inputs; saturation sub-cases
    # 2 and 3 call bound_chain too, and the error fails that trial only.
    def violated(u, v):
        raise BoundViolationError("injected")

    monkeypatch.setattr(selftest, "bound_chain", violated)
    results = {r.name: r for r in selftest.run_selftest(seed=5, trials=60).results}
    assert results["bound-chain"].failures == 60
    assert results["bound-chain"].first_failure == (
        "trial 0 (d=2): injected; u=[-0.8019314252534474, -1.324358995628145]; "
        "v=[-0.24836162209524854, 0.4204452380655215]"
    )
    assert results["saturation"].failures == 24
    assert results["saturation"].first_failure == (
        "trial 2 (d=8): BoundViolationError: injected"
    )
    others = [r for name, r in results.items() if name not in ("bound-chain", "saturation")]
    assert all(r.failures == 0 for r in others)


def test_untyped_error_still_propagates(monkeypatch):
    def broken(u, v):
        raise ZeroDivisionError("float division by zero")

    monkeypatch.setattr(selftest, "tanimoto", broken)
    with pytest.raises(ZeroDivisionError):
        selftest.run_selftest(seed=5, trials=3)
