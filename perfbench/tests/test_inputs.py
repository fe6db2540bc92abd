"""The ``--seed`` argument reaches every generator and every seed the
program receives; the same seed gives the same inputs."""

import dataclasses

from repro.records.schema import gowalla_schema, nasa_log_schema
from repro.records.serialize import parse_raw_line

from fqbench import inputs, stream
from fqbench.inputs import Seeds


def _small(name):
    # Small publications keep the test fast; the drawing code is the same.
    return dataclasses.replace(
        stream.WORKLOADS[name], per_publication=600, query_every=20
    )


def _fingerprint(data):
    return (data.stream.lines[0][:50], data.key, data.system_seed, data.queries)


def test_every_workload_input_follows_the_seed():
    for name in stream.WORKLOADS:
        workload = _small(name)
        build = lambda seed: stream.Inputs(workload, Seeds(seed), 1)
        assert _fingerprint(build(7)) == _fingerprint(build(7))
        one, two = build(7), build(8)
        assert one.stream.lines != two.stream.lines
        assert one.key != two.key
        assert one.system_seed != two.system_seed
        assert one.queries != two.queries


def test_lines_parse_back_to_their_records():
    rng = Seeds(3).rng("x")
    for drawn, schema in (
        (inputs.gowalla_stream(rng, 1, 200), gowalla_schema()),
        (inputs.nasa_stream(rng, 1, 200), nasa_log_schema()),
    ):
        for line, record in zip(drawn.lines[0], drawn.records[0]):
            assert parse_raw_line(line, schema).values == record


def test_queries_stay_in_the_domain_and_span_whole_bins():
    for name in stream.WORKLOADS:
        workload = stream.WORKLOADS[name]
        bins, size = workload.bins, workload.bin_size
        drawn = inputs.queries(Seeds(1).rng("q"), 300, size, workload.query_start)
        for query in drawn:
            assert 0 <= query.low <= query.high < bins * size
            assert (query.high - query.low + 1) // size in inputs.QUERY_WIDTHS
        # Most ranges cut through their end bins.
        assert sum(query.low % size != 0 for query in drawn) > 200


def test_nasa_queries_cover_records():
    # Starts follow the reply-size distribution, so most ranges hold data.
    workload = _small("nasa-stream")
    data = stream.Inputs(workload, Seeds(5), 1)
    assert sum(count > 0 for count in data.expected) > len(data.expected) / 4
