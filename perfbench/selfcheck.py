"""Shows that every output check catches a deliberately tampered output.

Usage: ``python3 perfbench/selfcheck.py``.

It runs a small seeded trace through an in-process serial session, builds
the output record a round produces, confirms that the genuine output passes
every check, then tampers with it one way at a time (a dropped record, a
missing timeunit, altered alerts) and confirms that the intended check, and
not only some check, reports each one.  Exits 1 if any tampering goes
unnoticed.
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import inputs  # noqa: E402
import run  # noqa: E402


def genuine_output(prepared) -> dict:
    reference = run.serial_reference(prepared)
    return {
        "accepted": prepared.records,
        "processed": prepared.records,
        "units_closed": {t.name: t.units_expected() for t in prepared.tenants},
        "alerts": [(tenant, anomaly, 0.0) for tenant, anomaly in reference],
    }


def _alter(out: dict, change) -> dict:
    tampered = copy.deepcopy(out)
    tenant, anomaly, emitted = tampered["alerts"][0]
    change(anomaly)
    tampered["alerts"][0] = (tenant, anomaly, emitted)
    return tampered


def tamperings(out: dict) -> list:
    """(description, expected failure prefix, tampered output)."""
    dropped = copy.deepcopy(out)
    dropped["processed"] -= 1
    missing = copy.deepcopy(out)
    name = next(iter(missing["units_closed"]))
    missing["units_closed"][name] -= 1
    lost = copy.deepcopy(out)
    del lost["alerts"][0]
    return [
        ("a dropped record", "records", dropped),
        ("a missing timeunit", "units", missing),
        (
            "an alert whose actual no longer clears RT/DT",
            "rule",
            _alter(out, lambda a: a.update(actual=a["forecast"])),
        ),
        (
            "an alert whose actual exceeds the records under its path",
            "actual",
            _alter(out, lambda a: a.update(actual=a["actual"] + 10_000)),
        ),
        (
            "an alert whose actual is not a whole number",
            "actual",
            _alter(out, lambda a: a.update(actual=a["actual"] + 0.5)),
        ),
        (
            "an alert moved to another timeunit",
            "serial reference",
            _alter(out, lambda a: a.update(timeunit=a["timeunit"] + 1)),
        ),
        ("a lost alert", "serial reference", lost),
    ]


def main() -> int:
    tenant = inputs.generated_tenant(
        "ccd-trouble", "trouble", 11, days=4, rate=60, delta=3600, theta=6,
        anomalies=12, extra_rate=(0.005, 0.03),
    )
    prepared = inputs.Prepared("selfcheck", 11, [tenant])
    judge = run.Judge(prepared, run.serial_reference(prepared))
    out = genuine_output(prepared)
    if not out["alerts"]:
        print("selfcheck: the genuine output has no alerts to tamper with")
        return 1
    genuine = judge.failures(out)
    print(f"genuine output ({len(out['alerts'])} alerts): "
          f"{'passes' if not genuine else genuine}")
    ok = not genuine
    for what, expected, tampered in tamperings(out):
        found = judge.failures(tampered)
        caught = any(failure.startswith(expected) for failure in found)
        ok &= caught
        print(f"{'caught' if caught else 'MISSED'}: {what} -> {found[:2]}")
    print("every tampering caught" if ok else "some tampering went unnoticed")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
