"""The robustness protocol's settings are module constants; this pins the
report they give, so a changed constant shows here and not only as a
weaker or stronger drift result."""

import hashlib

from landseg.experiment import dump_report, robustness_experiment


def test_robustness_report_is_pinned():
    report, details = robustness_experiment(
        seed=5, n_pairs=1, n_trees=10, epochs=1, keep_details=True)
    assert len(details) == 1
    assert hashlib.sha256(dump_report(report).encode()).hexdigest() == (
        "072b5817a3fb0062518cc10b8bafdc1ae8575e9d73fa883ff3b80b44338431ed")
