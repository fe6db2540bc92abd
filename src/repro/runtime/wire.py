"""Wire encoding of the FRESQUE protocol messages.

Serialises every message of :mod:`repro.core.messages` to length-prefixed
JSON frames (ciphertexts base64-encoded, index trees as level-count
arrays) so components can run in separate processes connected by real TCP
sockets — the transport of the paper's 17-node cluster.

Frame layout: ``length (uint32, little endian) | utf-8 JSON``.
"""

from __future__ import annotations

import json
import struct

from repro.core.messages import (
    AlSnapshot,
    AnnouncePublication,
    BufferFlush,
    CnPublishing,
    CreditGrant,
    DoneMsg,
    MembershipMsg,
    MergedPublication,
    NewPublication,
    NodeDown,
    Pair,
    PairBatch,
    PublishingMsg,
    RawBatch,
    RawData,
    RemovedRecord,
    RingAttach,
    TemplateMsg,
    ToCloudBatch,
    ToCloudPair,
)
from repro.index.domain import AttributeDomain
from repro.index.overflow import OverflowArray
from repro.index.tree import IndexTree
from repro.records.codec import (  # noqa: F401  (re-exported API)
    decode_encrypted,
    decode_plan,
    decode_record,
    encode_encrypted,
    encode_plan,
    encode_record,
)

_FRAME_HEADER = struct.Struct("<I")

#: Upper bound on one frame, to stop a malicious peer exhausting memory.
MAX_FRAME_BYTES = 64 * 1024 * 1024


class WireError(ValueError):
    """Raised for malformed frames or unknown message types."""


# ---------------------------------------------------------------------------
# Payload helpers (record/plan codecs live in repro.records.codec — a leaf
# module — so the core pipeline and the durability journal can use them
# without importing the transport; re-exported above for wire users)
# ---------------------------------------------------------------------------


def encode_tree(tree: IndexTree) -> dict:
    """Serialise an index tree as domain parameters plus level counts."""
    return {
        "dmin": tree.domain.dmin,
        "dmax": tree.domain.dmax,
        "bin": tree.domain.bin_interval,
        "fanout": tree.fanout,
        "levels": [[node.count for node in level] for level in tree.levels],
    }


def decode_tree(payload: dict) -> IndexTree:
    """Rebuild an index tree from :func:`encode_tree` output."""
    domain = AttributeDomain(payload["dmin"], payload["dmax"], payload["bin"])
    tree = IndexTree(domain, fanout=payload["fanout"])
    if [len(level) for level in tree.levels] != [
        len(level) for level in payload["levels"]
    ]:
        raise WireError("level shape does not match the encoded domain")
    for level_nodes, level_counts in zip(tree.levels, payload["levels"]):
        for node, count in zip(level_nodes, level_counts):
            node.count = count
    return tree


def _encode_overflow(overflow: dict[int, OverflowArray]) -> list:
    return [
        {
            "leaf": array.leaf_offset,
            "capacity": array.capacity,
            "entries": [encode_encrypted(entry) for entry in array.entries],
        }
        for array in overflow.values()
    ]


def _decode_overflow(payload: list) -> dict[int, OverflowArray]:
    overflow = {}
    for item in payload:
        # Reconstruct the sealed array verbatim (contents already padded
        # and shuffled by the sender).
        overflow[item["leaf"]] = OverflowArray.sealed(
            item["leaf"],
            item["capacity"],
            [decode_encrypted(e) for e in item["entries"]],
        )
    return overflow


# ---------------------------------------------------------------------------
# Message table
# ---------------------------------------------------------------------------

_ENCODERS = {
    NewPublication: lambda m: {"pub": m.publication, "plan": encode_plan(m.plan)},
    TemplateMsg: lambda m: {"pub": m.publication, "plan": encode_plan(m.plan)},
    AnnouncePublication: lambda m: {"pub": m.publication},
    RawData: lambda m: {
        "pub": m.publication,
        "line": m.line,
        "record": None if m.record is None else encode_record(m.record),
    },
    RawBatch: lambda m: {
        "pub": m.publication,
        # Ordered, type-tagged items: ["l", line] or ["r", record] —
        # order is the arrival order the randomer's mixing relies on.
        "items": [
            ["l", item] if isinstance(item, str) else ["r", encode_record(item)]
            for item in m.items
        ],
        "seq": m.seq,
        "ord": m.ordinal,
        "epoch": m.epoch,
    },
    Pair: lambda m: {
        "pub": m.publication,
        "leaf": m.leaf_offset,
        "enc": encode_encrypted(m.encrypted),
        "dummy": m.dummy,
    },
    PairBatch: lambda m: {
        "pub": m.publication,
        "seq": m.seq,
        "epoch": m.epoch,
        "node": m.node,
        "pairs": [
            {
                "leaf": pair.leaf_offset,
                "enc": encode_encrypted(pair.encrypted),
                "dummy": pair.dummy,
            }
            for pair in m.pairs
        ],
    },
    ToCloudBatch: lambda m: {
        "pub": m.publication,
        "pairs": [
            {"leaf": leaf, "enc": encode_encrypted(enc)}
            for leaf, enc in m.pairs
        ],
    },
    ToCloudPair: lambda m: {
        "pub": m.publication,
        "leaf": m.leaf_offset,
        "enc": encode_encrypted(m.encrypted),
    },
    RemovedRecord: lambda m: {
        "pub": m.publication,
        "leaf": m.leaf_offset,
        "enc": encode_encrypted(m.encrypted),
    },
    PublishingMsg: lambda m: {
        "pub": m.publication,
        "last": m.last_seq,
        "epoch": m.epoch,
        "nodes": list(m.nodes),
    },
    CreditGrant: lambda m: {"pub": m.publication, "records": m.records},
    CnPublishing: lambda m: {"pub": m.publication, "node": m.node_id},
    NodeDown: lambda m: {"pub": m.publication, "node": m.node_id},
    MembershipMsg: lambda m: {
        "epoch": m.epoch,
        "members": list(m.members),
        "retired": list(m.retired),
        "down": list(m.down),
        "joined": [list(pair) for pair in m.joined],
    },
    RingAttach: lambda m: {
        "node": m.node_id,
        "in": m.inbound,
        "out": m.outbound,
    },
    AlSnapshot: lambda m: {"pub": m.publication, "al": list(m.al)},
    BufferFlush: lambda m: {
        "pub": m.publication,
        "pairs": [
            {"leaf": leaf, "enc": encode_encrypted(enc)}
            for leaf, enc in m.pairs
        ],
    },
    DoneMsg: lambda m: {"pub": m.publication},
    MergedPublication: lambda m: {
        "pub": m.publication,
        "tree": encode_tree(m.tree),
        "overflow": _encode_overflow(m.overflow),
    },
}

_DECODERS = {
    "NewPublication": lambda p: NewPublication(p["pub"], decode_plan(p["plan"])),
    "TemplateMsg": lambda p: TemplateMsg(p["pub"], decode_plan(p["plan"])),
    "AnnouncePublication": lambda p: AnnouncePublication(p["pub"]),
    "RawData": lambda p: RawData(
        p["pub"],
        line=p["line"],
        record=None if p["record"] is None else decode_record(p["record"]),
    ),
    # Stamps decode with .get so frames from pre-stamp peers (no
    # seq/ord/last keys) still parse, as unstamped (-1) messages.
    "RawBatch": lambda p: RawBatch(
        p["pub"],
        tuple(
            item if kind == "l" else decode_record(item)
            for kind, item in p["items"]
        ),
        seq=p.get("seq", -1),
        ordinal=p.get("ord", -1),
        epoch=p.get("epoch", -1),
    ),
    "Pair": lambda p: Pair(
        p["pub"], p["leaf"], decode_encrypted(p["enc"]), dummy=p["dummy"]
    ),
    "PairBatch": lambda p: PairBatch(
        p["pub"],
        tuple(
            Pair(
                p["pub"],
                item["leaf"],
                decode_encrypted(item["enc"]),
                dummy=item["dummy"],
            )
            for item in p["pairs"]
        ),
        seq=p.get("seq", -1),
        epoch=p.get("epoch", -1),
        node=p.get("node", -1),
    ),
    "ToCloudBatch": lambda p: ToCloudBatch(
        p["pub"],
        tuple(
            (item["leaf"], decode_encrypted(item["enc"]))
            for item in p["pairs"]
        ),
    ),
    "ToCloudPair": lambda p: ToCloudPair(
        p["pub"], p["leaf"], decode_encrypted(p["enc"])
    ),
    "RemovedRecord": lambda p: RemovedRecord(
        p["pub"], p["leaf"], decode_encrypted(p["enc"])
    ),
    "PublishingMsg": lambda p: PublishingMsg(
        p["pub"],
        last_seq=p.get("last", -1),
        epoch=p.get("epoch", -1),
        nodes=tuple(p.get("nodes", ())),
    ),
    "CreditGrant": lambda p: CreditGrant(p["pub"], p["records"]),
    "CnPublishing": lambda p: CnPublishing(p["pub"], p["node"]),
    "NodeDown": lambda p: NodeDown(p["pub"], p["node"]),
    "MembershipMsg": lambda p: MembershipMsg(
        p["epoch"],
        members=tuple(p.get("members", ())),
        retired=tuple(p.get("retired", ())),
        down=tuple(p.get("down", ())),
        joined=tuple((n, e) for n, e in p.get("joined", ())),
    ),
    "RingAttach": lambda p: RingAttach(p["node"], p["in"], p["out"]),
    "AlSnapshot": lambda p: AlSnapshot(p["pub"], tuple(p["al"])),
    "BufferFlush": lambda p: BufferFlush(
        p["pub"],
        tuple(
            (item["leaf"], decode_encrypted(item["enc"]))
            for item in p["pairs"]
        ),
    ),
    "DoneMsg": lambda p: DoneMsg(p["pub"]),
    "MergedPublication": lambda p: MergedPublication(
        p["pub"], decode_tree(p["tree"]), _decode_overflow(p["overflow"])
    ),
}


def encode_message(destination: str, message) -> bytes:
    """Serialise one routed message into a framed byte string."""
    encoder = _ENCODERS.get(type(message))
    if encoder is None:
        raise WireError(f"cannot encode {type(message).__name__}")
    body = json.dumps(
        {
            "to": destination,
            "type": type(message).__name__,
            "payload": encoder(message),
        },
        separators=(",", ":"),
    ).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise WireError(f"frame of {len(body)} bytes exceeds the maximum")
    return _FRAME_HEADER.pack(len(body)) + body


def decode_message(frame: bytes) -> tuple[str, object]:
    """Inverse of :func:`encode_message` for one complete frame body."""
    try:
        envelope = json.loads(frame.decode("utf-8"))
        decoder = _DECODERS[envelope["type"]]
        return envelope["to"], decoder(envelope["payload"])
    except (KeyError, ValueError, TypeError) as exc:
        raise WireError(f"malformed frame: {exc}") from exc


def read_frames(buffer: bytearray):
    """Yield complete frame bodies from ``buffer``, consuming them.

    Raises
    ------
    WireError
        If a frame announces more than :data:`MAX_FRAME_BYTES`.
    """
    while len(buffer) >= _FRAME_HEADER.size:
        (length,) = _FRAME_HEADER.unpack_from(buffer, 0)
        if length > MAX_FRAME_BYTES:
            raise WireError(f"frame of {length} bytes exceeds the maximum")
        if len(buffer) < _FRAME_HEADER.size + length:
            return
        body = bytes(buffer[_FRAME_HEADER.size : _FRAME_HEADER.size + length])
        del buffer[: _FRAME_HEADER.size + length]
        yield body
