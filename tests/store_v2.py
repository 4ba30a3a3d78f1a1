"""Writer of the v2 binary store layout, which deo still loads but no longer
writes: magic `DEOEMB2\\0`, dim (uint32), count (uint64) and the ids block's
length (uint64), the ids as one JSON array, zero padding to a 64-byte
boundary and the (count, dim) float32 matrix, all little-endian. v2 carries
no model, norms or id rank. tests/fixtures/corpus.v2.bin was written in this
layout from corpus.emb.jsonl."""

import json
import struct

import numpy as np

from deo.ioutil import atomic_write_bytes

V2_MAGIC = b"DEOEMB2\x00"
V2_IDS_START = 28  # magic, then <IQQ dim, count, ids-block length


def save_binary_v2(store, path) -> None:
    ids_block = json.dumps(store.ids, separators=(",", ":")).encode()
    atomic_write_bytes(path, b"".join((
        V2_MAGIC,
        struct.pack("<IQQ", store.dim, len(store), len(ids_block)),
        ids_block,
        bytes(-(V2_IDS_START + len(ids_block)) % 64),
        memoryview(np.ascontiguousarray(store.matrix, dtype="<f4")),
    )))


def v2_bytes(dim, count, ids_block, padding=None):
    """A v2 file whose header states dim, count and len(ids_block), padded to
    64 bytes and followed by count * dim float32 ones: the size is always
    right, so only the part under test is wrong."""
    head = V2_MAGIC + struct.pack("<IQQ", dim, count, len(ids_block))
    if padding is None:
        padding = bytes(-(V2_IDS_START + len(ids_block)) % 64)
    return head + ids_block + padding + np.ones(count * dim, dtype="<f4").tobytes()
