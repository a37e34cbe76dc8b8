"""Seeded inputs of the benchmark: traces, detector configs, encodings.

Everything a workload feeds the system under test is generated here from the
run's ``--seed`` with :mod:`repro.datagen`, then encoded (NDJSON bytes or a
``.rcol`` file) before any clock starts.  The same seed gives the same bytes;
:meth:`Prepared.fingerprints` reports per-tenant record and unit counts and
the SHA-256 of the encoded inputs.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field

DAY = 86400.0


@dataclass
class Tenant:
    """One tenant's trace plus what the output checks need to judge it."""

    name: str
    tree: object
    clock: object
    config: object
    records: list
    anomalies: tuple

    def unit(self, timestamp: float) -> int:
        return int(timestamp // self.clock.delta)

    def units_expected(self) -> int:
        """Timeunits a flushed run closes: first to last record, inclusive."""
        return self.unit(self.records[-1].timestamp) - self.unit(
            self.records[0].timestamp
        ) + 1

    def counts_under(self) -> dict:
        """(path, unit) -> records at or below ``path`` in ``unit``."""
        counts: dict = {}
        for record in self.records:
            unit = self.unit(record.timestamp)
            category = record.category
            for depth in range(1, len(category) + 1):
                key = (category[:depth], unit)
                counts[key] = counts.get(key, 0) + 1
        return counts

    def cases(self) -> list:
        """Injected ground truth: one (path, timeunits) pair per anomaly that
        outlasts the warm-up, during which the detector reports nothing."""
        reported_from = self.unit(self.records[0].timestamp) + (
            self.config.forecast.min_history
        )
        cases = []
        for anomaly in self.anomalies:
            units = tuple(anomaly.timeunits(self.clock))
            if units and units[-1] >= reported_from:
                cases.append((tuple(anomaly.node_path), units))
        return cases

    def spec(self):
        from repro.service.config import TenantSpec

        return TenantSpec(
            name=self.name, tree=self.tree, config=self.config, clock=self.clock
        )


def detector_config(days: float, delta: float, theta: float):
    from repro.core.config import ForecastConfig, TiresiasConfig

    per_day = int(DAY / delta)
    return TiresiasConfig(
        theta=theta,
        ratio_threshold=2.8,
        difference_threshold=8.0,
        delta_seconds=delta,
        window_units=max(8, int(min(6.0, days) * per_day)),
        reference_levels=2,
        # Subtree sharding needs the root excluded; every tenant runs the
        # same rule so the legs stay comparable.
        track_root=False,
        allow_root_heavy=False,
        forecast=ForecastConfig(season_lengths=(per_day,), fallback_alpha=0.3),
    )


def _tenant(name, dataset, days, theta) -> Tenant:
    records = sorted(dataset.record_list(), key=lambda record: record.timestamp)
    return Tenant(
        name=name,
        tree=dataset.tree,
        clock=dataset.clock,
        config=detector_config(days, dataset.clock.delta, theta),
        records=records,
        anomalies=tuple(dataset.anomalies),
    )


def generated_tenant(
    name, kind, seed, days, rate, delta, theta, anomalies, extra_rate=(0.02, 0.2)
) -> Tenant:
    """A ``repro.datagen`` CCD (``kind`` "trouble"/"network") or SCD trace
    with ``anomalies`` injected cases of ``extra_rate`` extra records per
    second each, placed after a 2.5-day warm-up."""
    import dataclasses

    from repro.datagen import (
        CCDConfig,
        SCDConfig,
        make_ccd_dataset,
        make_scd_dataset,
        random_injection_plan,
    )

    common = dict(
        duration_days=days, delta_seconds=delta, base_rate_per_hour=rate,
        num_anomalies=0, seed=seed,
    )
    if kind == "scd":
        dataset = make_scd_dataset(SCDConfig(**common))
    else:
        dataset = make_ccd_dataset(CCDConfig(dimension=kind, **common))
    plan = random_injection_plan(
        dataset.tree,
        dataset.clock,
        trace_duration=days * DAY,
        count=anomalies,
        min_depth=1,
        extra_rate_range=extra_rate,
        seed=seed + 13,
        warmup=2.5 * DAY,
    )
    dataset.generator = dataclasses.replace(dataset.generator, anomalies=plan)
    dataset.anomalies = tuple(plan)
    return _tenant(name, dataset, days, theta)


def churn_tenant(
    name, seed, days, rate, delta, theta, rotation_units=16, crowds=3
) -> Tenant:
    """Rotating flash-crowd CCD trouble trace (the ``build_churn_workload``
    design of ``benchmarks/perf/bench_ingest.py``): ``crowds`` concurrent
    bursts at random depth-2/3 subtrees move to fresh subtrees every
    ``rotation_units`` timeunits, so SPLIT cascades and MERGE folds run
    throughout."""
    from repro.datagen import CCD_TICKET_MIX, CCDConfig, CCDDataset
    from repro.datagen.anomalies import InjectedAnomaly
    from repro.datagen.arrival import SeasonalRateModel
    from repro.datagen.generator import TraceGenerator
    from repro.hierarchy.builders import build_ccd_trouble_tree
    from repro.streaming.clock import HOUR, SimulationClock

    config = CCDConfig(
        dimension="trouble",
        duration_days=days,
        delta_seconds=delta,
        base_rate_per_hour=rate,
        num_anomalies=0,
        zipf_exponent=1.3,
        volatility=0.1,
        seed=seed,
    )
    tree = build_ccd_trouble_tree(seed=seed)
    clock = SimulationClock(delta=delta, epoch=0.0, epoch_weekday=5, epoch_hour=0.0)
    rate_model = SeasonalRateModel(
        base_rate=rate / HOUR,
        diurnal_strength=0.4,
        peak_hour=16.0,
        weekly_strength=0.1,
        volatility=0.1,
    )
    rng = random.Random(seed + 99)
    candidates = [node for node in tree.iter_nodes() if node.depth in (2, 3)]
    duration = config.duration_seconds
    anomalies = []
    for start_unit in range(0, int(duration // delta), rotation_units):
        start = start_unit * delta
        span = min(rotation_units * delta, duration - start)
        for _ in range(crowds):
            anomalies.append(
                InjectedAnomaly(
                    node_path=rng.choice(candidates).path,
                    start=start,
                    duration=span,
                    extra_rate=rate / HOUR * 0.15,
                    label=f"flash-{start_unit}",
                )
            )
    anomalies.sort(key=lambda anomaly: anomaly.start)
    generator = TraceGenerator(
        tree=tree,
        rate_model=rate_model,
        clock=clock,
        top_level_weights=CCD_TICKET_MIX,
        zipf_exponent=1.3,
        seed=seed,
        anomalies=anomalies,
    )
    dataset = CCDDataset(
        config=config,
        tree=tree,
        clock=clock,
        generator=generator,
        anomalies=tuple(anomalies),
    )
    return _tenant(name, dataset, days, theta)


# ----------------------------------------------------------------------
# Merged stream and encodings
# ----------------------------------------------------------------------
def record_line(record, tenant: "str | None" = None) -> bytes:
    doc = {"timestamp": record.timestamp, "category": list(record.category)}
    if tenant is not None:
        doc["tenant"] = tenant
    return json.dumps(doc, separators=(",", ":")).encode() + b"\n"


@dataclass
class Prepared:
    """A workload's tenants, merged stream and encoded inputs."""

    workload: str
    seed: int
    tenants: list
    #: (tenant name, record) in offer order.
    stream: list = field(default_factory=list)
    #: Encoded inputs by name (bytes), hashed into the fingerprint.
    encoded: dict = field(default_factory=dict)
    #: Workload-specific extras (socket chunks, POST schedule, rcol path).
    extra: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        tagged = [
            (record.timestamp, order, tenant.name, record)
            for order, tenant in enumerate(self.tenants)
            for record in tenant.records
        ]
        tagged.sort(key=lambda item: (item[0], item[1]))
        self.stream = [(name, record) for _, _, name, record in tagged]
        # Per tenant: stream index of the first record past each unit, i.e.
        # the record whose arrival closes that unit.
        self.closing: dict = {}
        last_unit: dict = {}
        by_name = {tenant.name: tenant for tenant in self.tenants}
        for index, (name, record) in enumerate(self.stream):
            unit = by_name[name].unit(record.timestamp)
            previous = last_unit.get(name)
            if previous is not None and unit > previous:
                for closed in range(previous, unit):
                    self.closing[(name, closed)] = index
            last_unit[name] = unit

    @property
    def records(self) -> int:
        return len(self.stream)

    def tenant(self, name: str) -> Tenant:
        return next(tenant for tenant in self.tenants if tenant.name == name)

    def fingerprints(self) -> dict:
        return {
            "workload": self.workload,
            "seed": self.seed,
            "tenants": {
                tenant.name: {
                    "records": len(tenant.records),
                    "units": tenant.units_expected(),
                    "injected": len(tenant.anomalies),
                }
                for tenant in self.tenants
            },
            "sha256": {
                name: hashlib.sha256(payload).hexdigest()
                for name, payload in sorted(self.encoded.items())
            },
        }
