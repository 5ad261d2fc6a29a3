"""Seeded synthetic flow traces with planted changes.

A trace is background traffic drawn the way
:class:`repro.traffic.TrafficGenerator` draws it for a router profile --
a population of public addresses, Zipf popularity over it
(:func:`~repro.traffic.distributions.zipf_probabilities`), Pareto byte
counts with the profile's tail (:func:`~repro.traffic.distributions.pareto_bytes`)
-- plus two planted changes built with :mod:`repro.traffic.anomalies`
and sized as :func:`repro.experiments.datasets.router_trace` sizes them:
a DoS flood at one victim and a flash crowd at one target, both in the
reserved ``10.0.0.0/8`` block the background never emits.

Unlike the generator, every interval carries the same number of
background records (no diurnal or AR(1) modulation), so a run's work
does not depend on the seed; the seed only moves which keys, byte counts
and arrival times appear, and (by a few intervals) where the changes land.

Byte counts are integral, so per-bucket sums are exact in float64 and a
sketch built from 64-record chunks equals one built from a whole
interval bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.streams.records import concat_records, empty_records
from repro.traffic import RouterProfile, TrafficGenerator
from repro.traffic.anomalies import inject_dos, inject_flash_crowd
from repro.traffic.distributions import pareto_bytes, zipf_probabilities

DOS_VICTIM = 0x0A000001  # 10.0.0.1
FLASH_TARGET = 0x0A000002  # 10.0.0.2
#: Profile rates are per interval of this many seconds.
PROFILE_INTERVAL = 300.0
#: Planted-change shapes, after ``router_trace``: both run at up to
#: ``records_per_interval / 600`` records per second (there, per 300 s
#: interval -- here, scaled to the trace's interval), the DoS at 4000
#: bytes per record, the flash crowd at a mean of 6000.  Its windows,
#: 720 s and 1440 s, are 2.4 and 4.8 of its intervals; rounded to whole
#: intervals here so the planted intervals are exact.
DOS_INTERVALS = 2
DOS_BYTES = 4000.0
FLASH_INTERVALS = 5
FLASH_MEAN_BYTES = 6000.0


@dataclass(frozen=True)
class TraceSpec:
    """Shape of a generated trace.

    ``profile`` gives the key population, its Zipf skew (0 draws keys
    uniformly) and the byte tail; its per-300-second record rate is
    scaled to ``interval_seconds``.  The DoS starts at ``dos_at`` and the
    flash crowd at ``flash_at``, as fractions of the trace.
    """

    profile: RouterProfile
    n_intervals: int
    interval_seconds: float
    dos_at: float
    flash_at: float

    @property
    def records_per_interval(self) -> int:
        return round(
            self.profile.records_per_interval
            * self.interval_seconds / PROFILE_INTERVAL
        )

    @property
    def n_background(self) -> int:
        return self.records_per_interval * self.n_intervals


@dataclass(frozen=True)
class PlantedChange:
    """Ground truth: ``key`` changes over intervals ``[first, end)``."""

    kind: str
    key: int
    first: int
    end: int


def make_trace(
    spec: TraceSpec, seed: int, *, plant: Tuple[str, ...] = ("dos", "flash_crowd")
) -> Tuple[np.ndarray, List[PlantedChange]]:
    """Generate ``(records, planted)`` from ``seed``.

    ``planted`` always lists both changes; ``plant`` names the ones whose
    records are actually added (leaving one out lets a test check that
    the correctness gate notices a change that never happened).
    """
    rng = np.random.default_rng(seed)
    profile = spec.profile
    width = spec.interval_seconds
    n = spec.n_background
    records = empty_records(n)
    interval_of = np.repeat(
        np.arange(spec.n_intervals, dtype=np.float64), spec.records_per_interval
    )
    # Sorting keeps each interval's records together: offsets stay in [0, width).
    records["timestamp"] = np.sort(
        interval_of * width + rng.uniform(0.0, width, n)
    )
    del interval_of
    # The session keys on dst_ip and sums bytes; other fields stay zero.
    population = TrafficGenerator(profile, seed=seed).population
    popularity = zipf_probabilities(profile.key_population, profile.zipf_exponent)
    records["dst_ip"] = population[
        rng.choice(profile.key_population, size=n, p=popularity)
    ]
    byte_counts = pareto_bytes(rng, n, shape=profile.pareto_shape)
    records["bytes"] = byte_counts.astype(np.uint64)
    records["packets"] = np.maximum((byte_counts / 1000.0).astype(np.uint32), 1)
    del byte_counts

    rate = spec.records_per_interval / (2.0 * width)
    jitter = rng.integers(0, 4, 2)
    dos_first = int(spec.dos_at * spec.n_intervals) + int(jitter[0])
    flash_first = int(spec.flash_at * spec.n_intervals) + int(jitter[1])
    planted = [
        PlantedChange("dos", DOS_VICTIM, dos_first, dos_first + DOS_INTERVALS),
        PlantedChange(
            "flash_crowd", FLASH_TARGET, flash_first,
            flash_first + FLASH_INTERVALS,
        ),
    ]
    parts = [records]
    if "dos" in plant:
        dos, _ = inject_dos(
            rng,
            dos_first * width,
            (dos_first + DOS_INTERVALS) * width,
            victim_ip=DOS_VICTIM,
            records_per_second=rate,
            bytes_per_record=DOS_BYTES,
        )
        parts.append(dos)
    if "flash_crowd" in plant:
        flash, _ = inject_flash_crowd(
            rng,
            flash_first * width,
            (flash_first + FLASH_INTERVALS) * width,
            target_ip=FLASH_TARGET,
            peak_records_per_second=rate,
            mean_bytes=FLASH_MEAN_BYTES,
        )
        parts.append(flash)
    return concat_records(parts), planted


def probe_keys(records: np.ndarray, planted, count: int, seed: int) -> np.ndarray:
    """A fixed, seeded probe key set: the planted keys plus seen keys."""
    rng = np.random.default_rng(seed)
    wanted = np.array(sorted({p.key for p in planted}), dtype=np.uint64)
    seen = np.unique(
        records["dst_ip"][rng.integers(0, len(records), 4 * count)]
    ).astype(np.uint64)
    seen = rng.permutation(seen[~np.isin(seen, wanted)])
    return np.unique(np.concatenate([wanted, seen[: count - len(wanted)]]))
