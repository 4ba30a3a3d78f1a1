"""On-disk embedding stores: line-oriented JSON and a compact binary layout.

Both formats store float32 vectors; arithmetic elsewhere runs in float64.
The JSONL format opens with a header object, the binary format with a magic
string, so either loader can reject the wrong file with a line/offset
diagnostic instead of garbage.

Binary saves write v2: a header, the ids as one JSON array and the raw
float32 matrix, which a load maps read-only instead of reading it record by
record. v1 files (an id and a vector per record) still load.
"""

from __future__ import annotations

import json
import mmap
import os
import struct
import time
from dataclasses import dataclass, field

import numpy as np
import orjson

from .errors import DimensionMismatchError, DuplicateIdError, EmptyInputError, FormatError
from .ioutil import atomic_write_bytes, loads, read_id, read_jsonl

JSONL_FORMAT_NAME = "deo-emb"
JSONL_FORMAT_VERSION = 1
BINARY_MAGIC = b"DEOEMB2\x00"
_V1_HEADER = struct.Struct("<IQ")  # dim, count
_V2_HEADER = struct.Struct("<IQQ")  # dim, count, ids-block length
_V2_ALIGN = 64  # the matrix starts at a multiple of this offset


@dataclass
class EmbeddingStore:
    """Ordered id -> float32 vector map with fixed dimension.

    The vectors live in one contiguous float32 array whose first len(self)
    rows are in use; add() grows it by doubling.
    """

    dim: int
    model: str = ""
    _ids: list[str] = field(default_factory=list, repr=False)
    _index: dict[str, int] = field(default_factory=dict, repr=False)
    _vectors: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self._vectors is None:
            self._vectors = np.empty((0, self.dim), dtype=np.float32)

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, record_id: str) -> bool:
        return record_id in self._index

    @property
    def ids(self) -> list[str]:
        return list(self._ids)

    @property
    def matrix(self) -> np.ndarray:
        """Read-only (len(self), dim) float32 view, row order = ids."""
        view = self._vectors[: len(self._ids)]
        view.flags.writeable = False
        return view

    def add(self, record_id: str, vector) -> None:
        if record_id in self._index:
            raise DuplicateIdError(f"id {record_id!r} already stored")
        row = np.asarray(vector, dtype=np.float32)
        if row.ndim != 1:
            raise FormatError(f"vector for {record_id!r} is not one-dimensional")
        if row.shape[0] != self.dim:
            raise FormatError(
                f"vector for {record_id!r} has dimension {row.shape[0]}, store has {self.dim}"
            )
        n = len(self._ids)
        if n == self._vectors.shape[0]:
            grown = np.empty((max(8, 2 * n), self.dim), dtype=np.float32)
            grown[:n] = self._vectors
            self._vectors = grown
        self._vectors[n] = row
        self._index[record_id] = n
        self._ids.append(record_id)

    def get(self, record_id: str) -> np.ndarray:
        """Return the vector as float64 for downstream arithmetic."""
        try:
            pos = self._index[record_id]
        except KeyError:
            raise KeyError(f"id {record_id!r} not in store") from None
        return self._vectors[pos].astype(np.float64)

    # -- JSONL ---------------------------------------------------------

    def save_jsonl(self, path) -> None:
        """Write each finite row as its shortest float32 text, which reads
        back as the same float32; rows with NaN or inf keep json's tokens,
        since orjson would write them as null."""
        header = {
            "format": JSONL_FORMAT_NAME,
            "version": JSONL_FORMAT_VERSION,
            "dim": self.dim,
            "model": self.model,
        }
        lines = [json.dumps(header, separators=(",", ":")).encode()]
        finite = np.isfinite(self.matrix).all(axis=1)
        for record_id, vec, ok in zip(self._ids, self._vectors, finite):
            if ok:
                vector = orjson.dumps(vec, option=orjson.OPT_SERIALIZE_NUMPY)
            else:
                vector = json.dumps([float(x) for x in vec], separators=(",", ":")).encode()
            # json.dumps escapes lone surrogates in ids, which orjson refuses
            lines.append(b'{"id":%s,"vector":%s}' % (json.dumps(record_id).encode(), vector))
        lines.append(b"")
        atomic_write_bytes(path, b"\n".join(lines))

    @classmethod
    def load_jsonl(cls, path) -> "EmbeddingStore":
        rows = read_jsonl(path)
        try:
            lineno, header = next(rows)
        except StopIteration:
            raise FormatError(f"{path}: empty embedding file") from None
        if not isinstance(header, dict) or header.get("format") != JSONL_FORMAT_NAME:
            raise FormatError(f"{path}:{lineno}: missing {JSONL_FORMAT_NAME!r} header")
        if header.get("version") != JSONL_FORMAT_VERSION:
            raise FormatError(
                f"{path}:{lineno}: unsupported version {header.get('version')!r}"
            )
        dim = header.get("dim")
        if not isinstance(dim, int) or dim <= 0:
            raise FormatError(f"{path}:{lineno}: header dim must be a positive integer")
        store = cls(dim=dim, model=str(header.get("model", "")))
        for lineno, obj in rows:
            if not isinstance(obj, dict) or "id" not in obj or "vector" not in obj:
                raise FormatError(f"{path}:{lineno}: expected 'id' and 'vector' fields")
            vector = obj["vector"]
            if not isinstance(vector, list) or len(vector) != dim:
                raise FormatError(
                    f"{path}:{lineno}: vector length {len(vector) if isinstance(vector, list) else '?'}"
                    f" does not match header dim {dim}"
                )
            try:
                row = np.asarray(vector)
            except ValueError:  # ragged nesting
                row = None
            if row is None or row.ndim != 1 or row.dtype.kind not in "iuf":
                raise FormatError(f"{path}:{lineno}: vector components must be numbers")
            try:
                store.add(read_id(obj["id"], path, lineno), row)
            except DuplicateIdError:
                raise FormatError(f"{path}:{lineno}: duplicate id {obj['id']!r}") from None
        return store

    # -- binary --------------------------------------------------------

    def save_binary(self, path) -> None:
        """Write the v2 layout; json.dumps escapes lone surrogates in ids."""
        if not set(map(type, self._ids)) <= {str}:
            raise FormatError("a binary store's ids must all be strings")
        ids_block = json.dumps(self._ids, separators=(",", ":")).encode()
        ids_end = len(BINARY_MAGIC) + _V2_HEADER.size + len(ids_block)
        atomic_write_bytes(path, b"".join((
            BINARY_MAGIC,
            _V2_HEADER.pack(self.dim, len(self._ids), len(ids_block)),
            ids_block,
            bytes(-ids_end % _V2_ALIGN),
            memoryview(np.ascontiguousarray(self.matrix, dtype="<f4")),
        )))

    @classmethod
    def _load_v2(cls, path, fh, size: int) -> "EmbeddingStore":
        """A v2 file must have exactly the size its header implies before
        anything is read or mapped, so a header that overstates the count
        fails without allocating."""
        head = fh.read(_V2_HEADER.size)
        ids_start = len(BINARY_MAGIC) + _V2_HEADER.size
        if len(head) < _V2_HEADER.size:
            raise FormatError(f"{path}: truncated header: {size} bytes, expected at least {ids_start}")
        dim, count, ids_len = _V2_HEADER.unpack(head)
        if dim <= 0:
            raise FormatError(f"{path}: header dim must be positive")
        ids_end = ids_start + ids_len
        offset = ids_end + -ids_end % _V2_ALIGN
        expected = offset + 4 * dim * count
        if size < expected:
            raise FormatError(f"{path}: truncated: {size} bytes, header implies {expected}")
        if size > expected:
            raise FormatError(
                f"{path}: {size - expected} trailing bytes: {size} bytes, header implies {expected}"
            )
        block = fh.read(offset - ids_start)
        if any(block[ids_len:]):
            raise FormatError(f"{path}: nonzero padding after the ids block")
        try:
            ids = loads(block[:ids_len])
        except ValueError:  # bad JSON or bad UTF-8
            ids = None
        if type(ids) is not list or len(ids) != count or not set(map(type, ids)) <= {str}:
            raise FormatError(f"{path}: ids block is not a JSON array of {count} strings")
        index = dict(zip(ids, range(count)))
        if len(index) < count:
            seen: set[str] = set()
            for i, record_id in enumerate(ids):
                if record_id in seen:
                    raise FormatError(f"{path}: duplicate id {record_id!r} in record {i}")
                seen.add(record_id)
        # the array holds the mapping open after the file is closed; saves
        # replace the file by rename, so the mapped inode never changes
        mapped = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        vectors = np.frombuffer(mapped, "<f4", count * dim, offset).reshape(count, dim)
        return cls(dim=dim, _ids=ids, _index=index,
                   _vectors=vectors.astype(np.float32, copy=False))

    @classmethod
    def _load_v1(cls, path, fh, size: int) -> "EmbeddingStore":
        """Read the records straight into one (count, dim) float32 matrix.

        Every record is checked against the file size before its row is
        read, and the matrix has at most as many rows as the file can hold,
        so a header that overstates the count fails at the first missing
        record instead of forcing a huge allocation.
        """
        head = fh.read(_V1_HEADER.size)
        if len(head) < _V1_HEADER.size:
            raise FormatError(f"{path}: truncated header at offset {size}")
        dim, count = _V1_HEADER.unpack(head)
        if dim <= 0:
            raise FormatError(f"{path}: header dim must be positive")
        offset = len(BINARY_MAGIC) + _V1_HEADER.size
        vec_bytes = 4 * dim
        # a record takes at least 2 + vec_bytes bytes
        vectors = np.empty((min(count, (size - offset) // (2 + vec_bytes)), dim), dtype="<f4")
        ids: list[str] = []
        index: dict[str, int] = {}
        read, readinto = fh.read, fh.readinto
        for i in range(count):
            if offset + 2 > size:
                raise FormatError(f"{path}: truncated record {i} at offset {offset}")
            id_len = int.from_bytes(read(2), "little")
            offset += 2
            if offset + id_len + vec_bytes > size:
                raise FormatError(f"{path}: truncated record {i} at offset {offset}")
            raw_id = read(id_len)
            if readinto(vectors[i]) < vec_bytes:
                raise FormatError(f"{path}: truncated record {i} at offset {offset}")
            try:
                record_id = raw_id.decode("utf-8")
            except UnicodeDecodeError:
                raise FormatError(
                    f"{path}: id of record {i} at offset {offset} is not valid UTF-8"
                ) from None
            if record_id in index:
                raise FormatError(f"{path}: duplicate id {record_id!r} in record {i}")
            index[record_id] = i
            ids.append(record_id)
            offset += id_len + vec_bytes
        if offset != size:
            raise FormatError(f"{path}: {size - offset} trailing bytes after records")
        return cls(dim=dim, _ids=ids, _index=index,
                   _vectors=vectors.astype(np.float32, copy=False))


_BINARY_LOADERS = {b"DEOEMB1\x00": EmbeddingStore._load_v1, BINARY_MAGIC: EmbeddingStore._load_v2}


def load_store(path) -> EmbeddingStore:
    """Load a store, its format told by its first 8 bytes: a binary magic
    passes the open file to that version's loader, a binary store of an
    unknown version raises, anything else is read as JSONL."""
    with open(path, "rb") as fh:
        head = fh.read(len(BINARY_MAGIC))
        loader = _BINARY_LOADERS.get(head)
        if loader is not None:
            return loader(path, fh, os.fstat(fh.fileno()).st_size)
        if len(head) == len(BINARY_MAGIC) and head.startswith(b"DEOEMB"):
            raise FormatError(f"{path}: unsupported binary store version {head[6:]!r}")
    return EmbeddingStore.load_jsonl(path)


def save_store(store: EmbeddingStore, path, fmt: str = "jsonl") -> None:
    if fmt == "jsonl":
        store.save_jsonl(path)
    elif fmt == "binary":
        store.save_binary(path)
    else:
        raise ValueError(f"unknown store format {fmt!r}")


def embed_texts(embed_fn, texts: list[str], batch_size: int = 64) -> list[np.ndarray]:
    """Embed texts in batches through embed_fn, which takes a list of strings
    and returns a list of vectors; the result keeps the input order.

    Dimension consistency is enforced across the whole call, not just within
    a batch, since a flaky endpoint can change models mid-stream.
    """
    if not texts:
        raise EmptyInputError("embed_texts requires at least one text")
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    out: list[np.ndarray] = []
    dim: int | None = None
    for start in range(0, len(texts), batch_size):
        batch = texts[start : start + batch_size]
        vectors = embed_fn(batch)
        if len(vectors) != len(batch):
            raise FormatError(
                f"endpoint returned {len(vectors)} vectors for {len(batch)} texts"
            )
        for vec in vectors:
            row = np.asarray(vec, dtype=np.float64)
            if row.ndim != 1:
                raise FormatError(f"endpoint returned a vector of shape {row.shape}")
            if dim is None:
                dim = row.shape[0]
            elif row.shape[0] != dim:
                raise DimensionMismatchError(
                    f"endpoint returned dimension {row.shape[0]} after {dim}"
                )
            out.append(row)
    return out


@dataclass(frozen=True)
class IngestReport:
    """Outcome of one corpus ingest: how much was embedded vs reused."""

    total: int
    embedded: int
    reused: int
    dim: int
    elapsed_seconds: float


def ingest_corpus(
    texts: dict[str, str],
    embed_fn,
    out_path,
    batch_size: int = 64,
    fmt: str = "jsonl",
    model: str = "",
    resume: bool = False,
) -> tuple[IngestReport, EmbeddingStore]:
    """Embed texts in batches and persist the store.

    embed_fn takes a list of strings and returns a list of vectors. With
    resume=True and an existing store at out_path, records already present
    (matching id) are not re-embedded. The store is written atomically once
    at the end.
    """
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    started = time.monotonic()
    existing: EmbeddingStore | None = None
    if resume and os.path.exists(os.fspath(out_path)):
        existing = load_store(out_path)

    pending = [(doc_id, text) for doc_id, text in texts.items()
               if existing is None or doc_id not in existing]
    reused = len(texts) - len(pending)

    vectors = embed_texts(embed_fn, [text for _, text in pending], batch_size) if pending else []
    if existing is not None:
        dim = existing.dim
    elif vectors:
        dim = vectors[0].shape[0]
    else:
        raise FormatError("nothing to ingest and no existing store to reuse")

    fresh = dict(zip((doc_id for doc_id, _ in pending), vectors))
    store = EmbeddingStore(dim=dim, model=model or (existing.model if existing else ""))
    for doc_id in texts:
        store.add(doc_id, fresh[doc_id] if doc_id in fresh else existing.get(doc_id))
    save_store(store, out_path, fmt=fmt)
    report = IngestReport(
        total=len(store),
        embedded=len(pending),
        reused=reused,
        dim=dim,
        elapsed_seconds=time.monotonic() - started,
    )
    return report, store
