"""Output checks, computed by the benchmark apart from the program.

Each check returns a list of failure messages (empty = pass).  Alerts are
``(tenant, anomaly_dict)`` pairs as read from the JSONL alert log.
"""

from __future__ import annotations

import json

#: Forecast floor of the dual-threshold rule (Definition 4 as configured).
FORECAST_FLOOR = 0.5


def check_records(offered: int, acknowledged: int, processed: int) -> list:
    if offered == acknowledged == processed:
        return []
    return [
        f"records: offered {offered}, acknowledged {acknowledged}, "
        f"processed {processed}"
    ]


def check_units(closed: dict, expected: dict) -> list:
    return [
        f"units: tenant {name} closed {closed.get(name)} of {units}"
        for name, units in sorted(expected.items())
        if closed.get(name) != units
    ]


def check_rule(alerts: list, configs: dict) -> list:
    """Every alert satisfies actual/max(forecast, floor) > RT and
    actual - forecast > DT under its tenant's config."""
    failures = []
    for tenant, anomaly in alerts:
        config = configs[tenant]
        actual, forecast = anomaly["actual"], anomaly["forecast"]
        ratio = actual / max(forecast, FORECAST_FLOOR)
        if not (
            ratio > config.ratio_threshold
            and actual - forecast > config.difference_threshold
        ):
            failures.append(
                f"rule: {tenant} {anomaly['node_path']} unit {anomaly['timeunit']} "
                f"actual {actual} forecast {forecast} breaks RT/DT"
            )
    return failures


def check_actuals(alerts: list, counts: dict) -> list:
    """Every alert's actual is a whole number no larger than the records of
    the trace under its path in its unit."""
    failures = []
    for tenant, anomaly in alerts:
        actual = anomaly["actual"]
        limit = counts[tenant].get((tuple(anomaly["node_path"]), anomaly["timeunit"]), 0)
        if actual != int(actual) or actual > limit:
            failures.append(
                f"actual: {tenant} {anomaly['node_path']} unit {anomaly['timeunit']} "
                f"actual {actual} against {limit} records"
            )
    return failures


def canonical(alerts: list) -> list:
    return sorted(json.dumps([tenant, anomaly], sort_keys=True) for tenant, anomaly in alerts)


def check_same(alerts: list, reference: list, label: str) -> list:
    ours, theirs = canonical(alerts), canonical(reference)
    if ours == theirs:
        return []
    missing = len(set(theirs) - set(ours))
    extra = len(set(ours) - set(theirs))
    return [
        f"{label}: {len(ours)} alerts against {len(theirs)} "
        f"({missing} missing, {extra} unexpected)"
    ]


def _related(a: tuple, b: tuple) -> bool:
    """Same path, or one on the other's ancestor/descendant line."""
    shorter = min(len(a), len(b))
    return a[:shorter] == b[:shorter]


def accuracy(alerts: list, cases: dict) -> tuple:
    """(recall, precision) against injected ground truth.

    ``cases`` maps a tenant to its injected anomalies, each a
    ``(path, units)`` pair.  A case is matched when an alert of the same
    tenant, in one of the case's timeunits, names the case's path or a path
    on its ancestor or descendant line.  An alert is a true positive when it
    matches some case.
    """
    by_unit: dict = {}
    for tenant, anomaly in alerts:
        key = (tenant, anomaly["timeunit"])
        by_unit.setdefault(key, []).append(tuple(anomaly["node_path"]))
    total = matched = 0
    hits = set()
    for tenant, tenant_cases in cases.items():
        for path, units in tenant_cases:
            total += 1
            found = False
            for unit in units:
                for alerted in by_unit.get((tenant, unit), ()):
                    if _related(path, alerted):
                        found = True
                        hits.add((tenant, unit, alerted))
            matched += found
    positives = sum(
        1
        for tenant, anomaly in alerts
        if (tenant, anomaly["timeunit"], tuple(anomaly["node_path"])) in hits
    )
    recall = matched / total if total else 0.0
    precision = positives / len(alerts) if alerts else 0.0
    return recall, precision
