"""Seeded inputs: raw lines and range queries.

The benchmark owns its generators, so a change to ``repro.datasets``
cannot change what a workload feeds the program.  Lines follow the
repository's raw-line format (tab-separated fields, parsed by the
computing nodes); value distributions follow the paper's datasets:
Gowalla check-in times have a diurnal cycle over 626 one-hour bins,
NASA reply sizes are log-normal over 3,421 one-kilobyte bins.

Every generator draws from :class:`Seeds`, so the one ``--seed``
argument fixes every input and every seed handed to the program.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

GOWALLA_BINS = 626
GOWALLA_BIN = 3600
NASA_BINS = 3421
NASA_BIN = 1024
#: NASA queries start in the first 256 KB of the domain.
NASA_QUERIED_BINS = 256

#: Query widths in bins, drawn uniformly.
QUERY_WIDTHS = (1, 4, 16)

_NASA_PATHS = (
    "/shuttle/missions/sts-71/mission-sts-71.html",
    "/shuttle/countdown/",
    "/images/NASA-logosmall.gif",
    "/images/KSC-logosmall.gif",
    "/history/apollo/apollo-13/apollo-13.html",
    "/shuttle/missions/sts-70/images/images.html",
    "/cgi-bin/imagemap/countdown",
    "/ksc.html",
)
_NASA_STATUS = (200, 200, 200, 200, 200, 304, 302, 404)
#: Log-normal reply sizes: median 6 KB.
_NASA_MU, _NASA_SIGMA = math.log(6 * 1024), 1.6


class Seeds:
    """Derives one independent stream per named purpose from ``seed``."""

    def __init__(self, seed: int):
        self.seed = seed

    def rng(self, purpose: str) -> random.Random:
        return random.Random(f"{self.seed}/{purpose}")

    def system_seed(self) -> int:
        """Seed handed to the deployment (noise, randomer, padding)."""
        return self.rng("system").randrange(2**31)

    def master_key(self) -> bytes:
        return self.rng("key").randbytes(32)


@dataclass(frozen=True)
class Stream:
    """Publications of raw lines plus the record each line encodes."""

    lines: list[list[str]]
    records: list[list[tuple]]

    @property
    def total(self) -> int:
        return sum(len(pub) for pub in self.lines)


def gowalla_stream(
    rng: random.Random, publications: int, per_publication: int
) -> Stream:
    """Check-ins ``user \\t seconds \\t location`` with a diurnal cycle."""
    lines, records = [], []
    randrange, uniform = rng.randrange, rng.random
    for _ in range(publications):
        pub_lines, pub_records = [], []
        for _ in range(per_publication):
            while True:
                hour = randrange(GOWALLA_BINS)
                # Evening peak: intensity in [0.2, 1.0] over 24 hours.
                if uniform() <= 0.6 + 0.4 * math.sin(
                    2 * math.pi * (hour % 24 - 14) / 24
                ):
                    break
            seconds = hour * GOWALLA_BIN + randrange(GOWALLA_BIN)
            record = (randrange(200_000), seconds, randrange(1_300_000))
            pub_lines.append("%d\t%d\t%d" % record)
            pub_records.append(record)
        lines.append(pub_lines)
        records.append(pub_records)
    return Stream(lines, records)


def nasa_stream(
    rng: random.Random, publications: int, per_publication: int
) -> Stream:
    """Common-log-like lines indexed on a log-normal reply size."""
    lines, records = [], []
    top = NASA_BINS * NASA_BIN
    for _ in range(publications):
        pub_lines, pub_records = [], []
        for _ in range(per_publication):
            host = "host%05d.net%02d.example.com" % (
                rng.randrange(100_000),
                rng.randrange(100),
            )
            stamp = 804_571_200 + rng.randrange(31 * 24 * 3600)
            request = "GET %s HTTP/1.0" % rng.choice(_NASA_PATHS)
            status = rng.choice(_NASA_STATUS)
            reply = int(min(max(rng.lognormvariate(_NASA_MU, _NASA_SIGMA), 0.0), top))
            record = (host, stamp, request, status, reply)
            pub_lines.append("%s\t%d\t%s\t%d\t%d" % record)
            pub_records.append(record)
        lines.append(pub_lines)
        records.append(pub_records)
    return Stream(lines, records)


@dataclass(frozen=True)
class Query:
    """A closed range ``[low, high]`` of the indexed attribute."""

    low: int
    high: int


def uniform_start(bins: int, bin_size: int):
    """Query starts drawn uniformly over the domain (Gowalla: check-ins
    cover every hour)."""
    top = bins * bin_size

    def start(rng: random.Random, span: int) -> int:
        return rng.randrange(top - span + 1)

    return start


def nasa_start(rng: random.Random, span: int) -> int:
    """Query starts drawn uniformly over the first :data:`NASA_QUERIED_BINS`
    bins, which hold about 99% of the reply sizes: uniform starts over
    the whole domain would leave almost every query in the empty upper
    part, and starts drawn from the data would make most queries return
    the dense first few bins."""
    return rng.randrange(NASA_QUERIED_BINS * NASA_BIN - span + 1)


def queries(rng: random.Random, count: int, bin_size: int, start) -> list[Query]:
    """Ranges ``width`` bins wide from ``start(rng, span)``; starts fall
    anywhere inside a bin, so most ranges cut through their end bins and
    the client must drop the records the cloud returns from outside the
    range."""
    out = []
    for _ in range(count):
        span = rng.choice(QUERY_WIDTHS) * bin_size
        low = start(rng, span)
        out.append(Query(low, low + span - 1))
    return out
