"""Which public methods each layer's spans wrap, and the per-layer
metrics read back from a finished trace.

Span names are the layer names of ``BENCHMARK.json``: ``dispatcher``,
``computing_node``, ``checking``, ``merger``, ``cloud.receive``,
``cloud.match``, ``cloud.query``, ``client``, ``crypto.*``.  Per-record calls are leaves (see :mod:`fqbench.spans`).
"""

from __future__ import annotations

from fqbench.common import clock
from fqbench.spans import Patches, Tracer

#: Dispatcher entry points a deployment calls; one or more per record.
DISPATCHER_CALLS = (
    "on_raw",
    "due_dummies",
    "flush_batch",
    "flush_due",
    "start_publication",
    "end_publication",
)


def wrap_dispatcher(tracer: Tracer, patches: Patches, dispatcher) -> None:
    for name in DISPATCHER_CALLS:
        patches.set(dispatcher, name, tracer.leaf("dispatcher", getattr(dispatcher, name)))


def wrap_cipher(tracer: Tracer, patches: Patches, cipher) -> None:
    for name in ("encrypt_batch", "encrypt_batch_seeded"):
        patches.set(cipher, name, tracer.spanned("crypto.encrypt_batch", getattr(cipher, name)))
    for name in ("encrypt", "encrypt_seeded"):
        patches.set(cipher, name, tracer.leaf("crypto.encrypt", getattr(cipher, name)))
    patches.set(cipher, "decrypt", tracer.leaf("crypto.decrypt", cipher.decrypt))


def wrap_sync_system(tracer: Tracer, patches: Patches, system) -> None:
    """Every in-process layer of a :class:`FresqueSystem`."""
    wrap_dispatcher(tracer, patches, system.dispatcher)
    for node in system.computing_nodes:
        patches.set(
            node,
            "on_raw_batch",
            tracer.spanned(
                "computing_node",
                node.on_raw_batch,
                units=lambda message: len(message.items),
            ),
        )
        for name in ("on_publishing", "on_done"):
            patches.set(node, name, tracer.spanned("computing_node", getattr(node, name)))
    checking = system.checking
    for name in (
        "on_pair_batch",
        "on_new_publication",
        "on_publishing",
        "on_cn_publishing",
    ):
        patches.set(checking, name, tracer.spanned("checking", getattr(checking, name)))
    merger = system.merger
    patches.set(merger, "on_al", tracer.spanned("merger", merger.on_al))
    for name in ("on_template", "on_removed"):
        patches.set(merger, name, tracer.leaf("merger", getattr(merger, name)))
    cloud = system.cloud
    patches.set(
        cloud,
        "receive_pairs",
        tracer.spanned(
            "cloud.receive",
            cloud.receive_pairs,
            units=lambda publication, pairs: len(pairs),
        ),
    )
    patches.set(
        cloud,
        "announce_publication",
        tracer.leaf("cloud.receive", cloud.announce_publication),
    )
    patches.set(
        cloud,
        "receive_publication",
        tracer.spanned("cloud.match", cloud.receive_publication),
    )
    patches.set(cloud, "query", tracer.spanned("cloud.query", cloud.query))
    wrap_cipher(tracer, patches, system.cipher)


def record_receipts(patches: Patches, cloud) -> dict:
    """Publication → (time the cloud installed it, records matched),
    filled in as ``cloud.receive_publication`` returns."""
    receipts: dict[int, tuple[float, int]] = {}
    receive = cloud.receive_publication

    def on_publication(publication, tree, overflow):
        receipt = receive(publication, tree, overflow)
        receipts[publication] = (clock(), receipt.records_matched)
        return receipt

    patches.set(cloud, "receive_publication", on_publication)
    return receipts


def pipeline_metrics(result, tracer: Tracer, system) -> None:
    """The core, crypto and cloud per-layer metrics of a sync run."""
    layers = tracer.layers()
    result.metric("dispatcher.self_s", layers["dispatcher"].self_s, "s")
    result.metric("dispatcher.calls", layers["dispatcher"].calls, "count")
    result.metric("computing_node.self_s", layers["computing_node"].self_s, "s")
    result.metric("computing_node.records", layers["computing_node"].units, "count")
    result.metric("checking.self_s", layers["checking"].self_s, "s")
    result.metric("checking.dummies", system.checking.dummies_passed, "count")
    result.metric("checking.removed", system.checking.records_removed, "count")
    result.metric(
        "crypto.encrypt_batch.self_s", layers["crypto.encrypt_batch"].self_s, "s"
    )
    calls, seconds = tracer.leaves_under("merger", "crypto.encrypt")
    result.metric("crypto.encrypt.calls", calls, "count")
    result.metric("crypto.encrypt.self_s", seconds, "s")
    reports = system.merger.reports
    result.metric("merger.self_s", layers["merger"].self_s, "s")
    result.metric(
        "merger.padding_encrypts",
        sum(report.padding_encrypts for report in reports),
        "count",
    )
    result.metric("merger.truncated", truncated(system), "count")
    result.metric("cloud.match.self_s", layers["cloud.match"].self_s, "s")
    result.metric("cloud.receive.self_s", layers["cloud.receive"].self_s, "s")
    result.metric("cloud.pairs", layers["cloud.receive"].units, "count")


def truncated(system) -> int:
    """Removed records the merge dropped: the merger keeps at most the
    overflow capacity per leaf (``Merger.on_al`` slices ``[:capacity]``)."""
    return system.checking.records_removed - sum(
        report.removed_records for report in system.merger.reports
    )


def refused(system) -> int:
    """Lines the computing nodes rejected as malformed."""
    return sum(node.rejected for node in system.computing_nodes)
