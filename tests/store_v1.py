"""Writer of the v1 binary store layout, which deo still loads but no longer
writes: magic `DEOEMB1\\0`, dim (uint32) and count (uint64), then per record
the id's UTF-8 length (uint16), the id and its float32 vector, all
little-endian. tests/fixtures/corpus.v1.bin was written in this layout from
corpus.emb.jsonl."""

import io
import struct

from deo.errors import FormatError
from deo.ioutil import atomic_write_bytes

V1_MAGIC = b"DEOEMB1\x00"


def save_binary_v1(store, path) -> None:
    buf = io.BytesIO()
    buf.write(V1_MAGIC)
    buf.write(struct.pack("<I", store.dim))
    buf.write(struct.pack("<Q", len(store)))
    for record_id, vec in zip(store.ids, store.matrix):
        encoded = record_id.encode("utf-8")
        if len(encoded) > 0xFFFF:
            raise FormatError(f"id {record_id!r} exceeds 65535 encoded bytes")
        buf.write(struct.pack("<H", len(encoded)))
        buf.write(encoded)
        buf.write(vec.astype("<f4").tobytes())
    atomic_write_bytes(path, buf.getvalue())
