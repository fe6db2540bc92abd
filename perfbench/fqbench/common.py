"""Pieces every workload shares: deployment config, cipher, memory, and
the run's result record."""

from __future__ import annotations

import gc
import resource
import time
from dataclasses import dataclass, field

from repro.core.config import FresqueConfig
from repro.crypto.cipher import SimulatedCipher
from repro.crypto.keys import KeyStore
from repro.index.domain import gowalla_domain, nasa_domain
from repro.records.schema import gowalla_schema, nasa_log_schema

#: Deployment shape of every workload.
BATCH_SIZE = 64
COMPUTING_NODES = 3

clock = time.perf_counter


def gowalla_config() -> FresqueConfig:
    return FresqueConfig(
        schema=gowalla_schema(),
        domain=gowalla_domain(),
        num_computing_nodes=COMPUTING_NODES,
        batch_size=BATCH_SIZE,
    )


def nasa_config() -> FresqueConfig:
    return FresqueConfig(
        schema=nasa_log_schema(),
        domain=nasa_domain(),
        num_computing_nodes=COMPUTING_NODES,
        batch_size=BATCH_SIZE,
    )


def cipher_for(key: bytes) -> SimulatedCipher:
    """The documented throughput stand-in for AES (DESIGN.md §2): pure
    Python AES would be over 90% of every run and hide every other
    layer."""
    return SimulatedCipher(KeyStore(key, key_size=16))


def freeze_inputs() -> None:
    """Move the generated inputs out of the collector's view, so the
    program's own garbage collections do not rescan the benchmark's
    lines on every pass."""
    gc.collect()
    gc.freeze()


def peak_rss_mb() -> float:
    """Peak resident set of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Result:
    """What one run reports: metrics, operation counts, failed checks."""

    metrics: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

    def absorb(self, other: "Result") -> None:
        """Count another pass's operations and failed checks as ours."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems[:0] = other.problems

    @property
    def correct(self) -> bool:
        return not self.problems
