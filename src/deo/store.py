"""On-disk embedding stores: line-oriented JSON and a compact binary layout.

Both formats store float32 vectors; arithmetic elsewhere runs in float64.
The JSONL format opens with a header object, the binary format with a magic
string, so either loader can reject the wrong file with a line/offset
diagnostic instead of garbage.

Binary saves write v3: a header, one JSON block of the model and the ids,
the raw float32 matrix, each row's float64 norm and the int64 id rank (each
row's place in ascending id order). A load maps the last three read-only, so
indexing a v3 store recomputes neither the norms nor the id order. v2 files
(no model, norms or id rank) and v1 files (an id and a vector per record)
still load.
"""

from __future__ import annotations

import json
import mmap
import os
import struct
from dataclasses import dataclass, field
from functools import partial

import numpy as np
import orjson

from .errors import DimensionMismatchError, DuplicateIdError, EmptyInputError, FormatError
from .ioutil import SHALLOW_TEXT, atomic_write_bytes, jsonl_lines, loads, parse_line, read_id
from .vecmath import raw_row_norms

JSONL_FORMAT_NAME = "deo-emb"
JSONL_FORMAT_VERSION = 1
BINARY_MAGIC = b"DEOEMB3\x00"
_V1_HEADER = struct.Struct("<IQ")  # dim, count
_HEADER = struct.Struct("<IQQ")  # v2 and v3: dim, count, ids-block length
_ALIGN = 64  # every block after the ids block starts at a multiple of this offset


@dataclass
class EmbeddingStore:
    """Ordered id -> float32 vector map with fixed dimension.

    The vectors live in one contiguous float32 array whose first len(self)
    rows are in use; a JSONL load leaves rows to spare, and add() grows the
    array by doubling once they run out. A store loaded from a v3
    file also holds the file's raw_row_norms and id_rank of its rows, which
    add() drops.
    """

    dim: int
    model: str = ""
    _ids: list[str] = field(default_factory=list, repr=False)
    _index: dict[str, int] = field(default_factory=dict, repr=False)
    _vectors: np.ndarray | None = field(default=None, repr=False)
    _norms: np.ndarray | None = field(default=None, repr=False)
    _id_rank: np.ndarray | None = field(default=None, repr=False)
    _unchecked: str = field(default="", repr=False)  # the v3 file stored_norms has yet to check

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
        self._norms = self._id_rank = None
        self._unchecked = ""
        n = len(self._ids)
        if n == self._vectors.shape[0]:
            grown = np.empty((max(8, 2 * n), self.dim), dtype=np.float32)
            grown[:n] = self._vectors
            self._vectors = grown
        self._vectors[n] = row
        self._index[record_id] = n
        self._ids.append(record_id)

    def stored_norms(self) -> np.ndarray | None:
        """The raw_row_norms a v3 file stored for these rows, or None.

        The first call checks that no row with a finite stored norm holds a
        NaN or Inf, raising FormatError naming the file. A load does not, so
        a store only read by id, like a query store, touches no other rows.
        Beyond that the norms are trusted, as the matrix itself is.
        """
        if self._unchecked:
            _check_finite_rows(self._unchecked, self.matrix, self._norms)
            self._unchecked = ""
        return self._norms

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
        """Read every record into one float32 matrix, sized once for as many
        rows as the file could hold. _quick_record parses a record line; a
        line it leaves goes through ioutil.loads and _record_row, so any
        line a check rejects raises the FormatError naming its line."""
        with open(path, "r", encoding="utf-8") as fh:
            lines = jsonl_lines(fh)
            try:
                lineno, line = next(lines)
            except StopIteration:
                raise FormatError(f"{path}: empty embedding file") from None
            header = parse_line(path, lineno, line)
            if not isinstance(header, dict) or header.get("format") != JSONL_FORMAT_NAME:
                raise FormatError(f"{path}:{lineno}: missing {JSONL_FORMAT_NAME!r} header")
            version, dim = header.get("version"), header.get("dim")
            if type(version) is not int or version != JSONL_FORMAT_VERSION:
                raise FormatError(f"{path}:{lineno}: unsupported version {version!r}")
            if type(dim) is not int or dim <= 0:
                raise FormatError(f"{path}:{lineno}: header dim must be a positive integer")
            model = str(header.get("model", ""))
            # a record line holds at least 2 * dim + 19 characters and a line
            # end. An anonymous map commits only the rows written; numpy asks
            # for huge pages for an array this large, which raised the peak
            # RSS of the online-cold benchmark by 5-7 MiB.
            rows = os.fstat(fh.fileno()).st_size // (2 * dim + 20)
            vectors = np.frombuffer(mmap.mmap(-1, 4 * dim * rows or 1), np.float32, dim * rows)
            vectors = vectors.reshape(rows, dim)
            # a line of more than SHALLOW_TEXT numbers is never packed
            pack = struct.Struct(f"{min(dim, SHALLOW_TEXT)}d").pack
            ids: list[str] = []
            index: dict[str, int] = {}
            for lineno, line in lines:
                obj, row = _quick_record(line, pack)
                if row is None:
                    obj = parse_line(path, lineno, line)
                    row = _record_row(path, lineno, obj, dim)
                record_id = read_id(obj["id"], path, lineno)
                if record_id in index:
                    raise FormatError(f"{path}:{lineno}: duplicate id {obj['id']!r}")
                vectors[len(ids)] = row
                index[record_id] = len(ids)
                ids.append(record_id)
        return cls(dim=dim, model=model, _ids=ids, _index=index, _vectors=vectors)

    # -- binary --------------------------------------------------------

    def save_binary(self, path) -> None:
        """Write the v3 layout; json.dumps escapes lone surrogates in ids.

        The stored norms are raw_row_norms, so a zero or non-finite row
        still saves and raises only when the store is indexed, as it would
        from any other format.
        """
        if not set(map(type, self._ids)) <= {str}:
            raise FormatError("a binary store's ids must all be strings")
        meta = json.dumps({"model": self.model, "ids": self._ids}, separators=(",", ":")).encode()
        matrix = np.ascontiguousarray(self.matrix, dtype="<f4")
        parts = [BINARY_MAGIC, _HEADER.pack(self.dim, len(self._ids), len(meta)), meta]
        end = len(BINARY_MAGIC) + _HEADER.size + len(meta)
        for block in (matrix, raw_row_norms(matrix).astype("<f8"), id_rank(self._ids).astype("<i8")):
            parts += [bytes(-end % _ALIGN), memoryview(block)]
            end += -end % _ALIGN + block.nbytes
        atomic_write_bytes(path, b"".join(parts))

    @classmethod
    def _load_mapped(cls, path, fh, size: int, v3: bool) -> "EmbeddingStore":
        """Load a v2 or v3 file. It must have exactly the size its header
        implies before anything is read or mapped, so a header that
        overstates the count fails without allocating. A v3 file's norms
        and id rank are mapped, not recomputed; see _map_v3_tail."""
        head = fh.read(_HEADER.size)
        ids_start = len(BINARY_MAGIC) + _HEADER.size
        if len(head) < _HEADER.size:
            raise FormatError(f"{path}: truncated header: {size} bytes, expected at least {ids_start}")
        dim, count, ids_len = _HEADER.unpack(head)
        if dim <= 0:
            raise FormatError(f"{path}: header dim must be positive")
        # (start, end) of the matrix, then in v3 of the norms and the id rank
        blocks: list[tuple[int, int]] = []
        end = ids_start + ids_len
        for nbytes in (4 * dim * count, 8 * count, 8 * count)[: 3 if v3 else 1]:
            start = end + -end % _ALIGN
            end = start + nbytes
            blocks.append((start, end))
        if size < end:
            raise FormatError(f"{path}: truncated: {size} bytes, header implies {end}")
        if size > end:
            raise FormatError(
                f"{path}: {size - end} trailing bytes: {size} bytes, header implies {end}"
            )
        offset = blocks[0][0]
        block = fh.read(offset - ids_start)
        if any(block[ids_len:]):
            raise FormatError(f"{path}: nonzero padding after the ids block")
        try:
            ids = loads(block[:ids_len])
        except ValueError:  # bad JSON or bad UTF-8
            ids = None
        model = ""
        if v3:
            if type(ids) is not dict or ids.keys() != {"model", "ids"} or type(ids["model"]) is not str:
                raise FormatError(f"{path}: ids block is not a JSON object of a model string and ids")
            model, ids = ids["model"], ids["ids"]
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
        store = cls(dim=dim, model=model, _ids=ids, _index=index,
                    _vectors=vectors.astype(np.float32, copy=False))
        if v3:
            store._norms, store._id_rank = _map_v3_tail(path, mapped, blocks, count)
            store._unchecked = f"{path}"
        return store

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


def _quick_record(line: str, pack):
    """(object, row) for a record line that orjson alone may parse, else
    (None, None). pack packs the store's dim doubles.

    orjson agrees with json.loads on every text it accepts, except that it
    reads an integer wider than 64 bits as a float. pack takes dim numbers
    and bools, but no string, null or list. So a row is taken as it is when
    the id is a string, the first component no bool (a row of bools is no
    vector) and every component below 2**53 in magnitude: then each integer
    is exact as a double, and the float32 row is the one np.asarray gives
    from json.loads. A line longer than SHALLOW_TEXT is left to
    ioutil.loads, which guards orjson's depth.
    """
    if len(line) <= SHALLOW_TEXT:
        try:
            obj = orjson.loads(line)
            vector = obj["vector"]
            row = np.frombuffer(pack(*vector), dtype=np.float64)
            if type(obj["id"]) is str and type(vector[0]) is not bool and abs(row).max() < 2.0**53:
                return obj, row
        except (ValueError, TypeError, KeyError, struct.error):  # no JSON, record or numbers
            pass
    return None, None


def _record_row(path, lineno: int, obj, dim: int) -> np.ndarray:
    """obj's vector as np.asarray reads it, or FormatError naming the line."""
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
    return row


def _map_v3_tail(path, mapped, blocks, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Map a v3 file's norms and id rank read-only, after checking the
    padding before each and that the id rank is a permutation."""
    (_, matrix_end), (norms_at, norms_end), (rank_at, _) = blocks
    if any(mapped[matrix_end:norms_at]) or any(mapped[norms_end:rank_at]):
        raise FormatError(f"{path}: nonzero padding after the matrix or the norms")
    norms = np.frombuffer(mapped, "<f8", count, norms_at).astype(np.float64, copy=False)
    rank = np.frombuffer(mapped, "<i8", count, rank_at).astype(np.int64, copy=False)
    if count and (rank.min() < 0 or rank.max() >= count
                  or np.count_nonzero(np.bincount(rank, minlength=count)) < count):
        raise FormatError(f"{path}: id rank block is not a permutation of the {count} rows")
    return norms, rank


def _check_finite_rows(path: str, matrix: np.ndarray, norms: np.ndarray) -> None:
    """Raise FormatError naming path if a row with a finite stored norm has
    a NaN or Inf component. Such a component makes its row's sum NaN or Inf,
    so a finite sum clears the row; only rows whose sum is not finite (an
    overflow, say) are checked component by component. The sums take one
    float32 per row, so nothing the size of the matrix is allocated."""
    with np.errstate(over="ignore", invalid="ignore"):
        sums = matrix @ np.ones(matrix.shape[1], dtype=np.float32)
    for i in np.flatnonzero(~np.isfinite(sums) & np.isfinite(norms)):
        if not np.isfinite(matrix[i]).all():
            raise FormatError(f"{path}: record {i} has a NaN or Inf component but a finite stored norm")


def id_rank(ids: list[str]) -> np.ndarray:
    """Each row's place in ascending id order, as int64: the tie-break key
    of every ranking."""
    rank = np.empty(len(ids), dtype=np.int64)
    rank[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
    return rank


_BINARY_LOADERS = {
    b"DEOEMB1\x00": EmbeddingStore._load_v1,
    b"DEOEMB2\x00": partial(EmbeddingStore._load_mapped, v3=False),
    BINARY_MAGIC: partial(EmbeddingStore._load_mapped, v3=True),
}


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
            try:
                row = np.asarray(vec)
            except ValueError:  # ragged nesting
                row = None
            if row is None or row.dtype.kind not in "iuf":
                raise FormatError("endpoint returned a vector whose components are not numbers")
            if row.ndim != 1:
                raise FormatError(f"endpoint returned a vector of shape {row.shape}")
            row = row.astype(np.float64, copy=False)
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
    )
    return report, store
