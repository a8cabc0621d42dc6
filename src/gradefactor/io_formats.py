"""On-disk formats: response CSV, model/truth JSON, mask JSON, DOT graphs,
and run manifests.

The response CSV has a header row of learner ids, question ids in the
first column, 0/1 entries, and empty strings for unobserved cells.  A
plain response file (no quotes, no padded cells, one cell per learner on
every row) is decoded in row blocks with numpy; every other file goes
through csv.reader, which gives the same result on a plain file and
raises the message for a malformed one.  Every reader raises a malformed
file, undecodable text included, as ValueError naming the file.  The
model JSON stores W as (question, concept, value) triplets so the sparse
support is explicit.  Every JSON artifact goes through write_json, which
also writes numpy values, enums and the library's dataclass records, with
sorted keys and repr-exact floats so rerunning a command with the same
inputs writes byte-identical files.
"""

from __future__ import annotations

import csv
import dataclasses
import enum
import hashlib
import io
import json
from itertools import islice, repeat

import numpy as np

from .links import LinkKind
from .model import FactorModel, ResponseMatrix


def default_question_ids(Q):
    return [f"q{i + 1}" for i in range(Q)]


def default_learner_ids(N):
    return [f"l{j + 1}" for j in range(N)]


# byte code of a response cell: missing, observed 0, observed 1; _BAD_CELL
# marks a cell that is none of these before stripping
_CELL_CODE = {"": 0, "0": 1, "1": 2}
_CODE_CELL = tuple(_CELL_CODE)
_BAD_CELL = 3
# bytes of one row block of the plain-file decoder, which bounds its
# temporaries
_BLOCK_BYTES = 1 << 20
# a block of at most this many bytes counts its rows' commas in int32 in
# one call, a temporary of 4 bytes a byte (256 KiB at most); a larger one
# counts them in uint8 pieces, which cost more calls: 15 against 5 us for
# an 18 KB block (100 x 100, p_obs 0.8), 25 against 23 us at 120 KB
_INT32_COUNT_BYTES = 1 << 16
_COMMA, _LF, _CR = b",\n\r"


def write_response_csv(path, data: ResponseMatrix, question_ids=None,
                       learner_ids=None):
    question_ids = question_ids or default_question_ids(data.Q)
    learner_ids = learner_ids or default_learner_ids(data.N)
    # entries are False wherever the mask is, so mask + entries is the cell
    # code; the uint8 cast makes + add, as bool + bool is a logical or
    codes = data.mask + data.entries.astype(np.uint8)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["question_id", *learner_ids])
        for qid, row in zip(question_ids, codes, strict=True):
            writer.writerow([qid, *map(_CODE_CELL.__getitem__, row.tolist())])


def read_text(path):
    """The text of the file at path, line endings kept; undecodable bytes
    raise ValueError naming the file."""
    try:
        with open(path, newline="") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None


def csv_rows(path, text):
    """The rows of text read from path as CSV; a csv error raises
    ValueError naming the file and line."""
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        return list(reader)
    except csv.Error as exc:
        raise ValueError(f"{path}:{reader.line_num}: {exc}") from None


def read_response_csv(path):
    """Returns (ResponseMatrix, question_ids, learner_ids).

    A file that `_decode_plain` does not take goes through `_decode_csv`.
    """
    learner_ids, question_ids, codes = _decode(path)
    _reject_duplicate(path, "question", question_ids)
    # the mask first, then the codes turned into the correct flags in
    # place: the matrix copies both, with no third Q x N array beside them
    mask = codes != _CELL_CODE[""]
    correct = np.equal(codes, _CELL_CODE["1"], out=codes.view(bool))
    return ResponseMatrix(correct, mask), question_ids, learner_ids


def _decode(path):
    """(learner_ids, question_ids, codes) of the response file at path,
    its text freed on return."""
    text = read_text(path)
    plain = _decode_plain(text)
    if plain is None:
        return _decode_csv(path, text)
    _reject_duplicate(path, "learner", plain[0])
    return plain


def _decode_csv(path, text):
    """(learner_ids, question_ids, codes) through csv.reader; raises at the
    first malformed row."""
    rows = csv_rows(path, text)
    if not rows or len(rows[0]) < 2:
        raise ValueError(f"{path}: expected a header with at least one learner")
    learner_ids = rows[0][1:]
    _reject_duplicate(path, "learner", learner_ids)
    question_ids = []
    codes = bytearray()
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(learner_ids) + 1:
            raise ValueError(
                f"{path}:{lineno}: expected {len(learner_ids) + 1} cells, got {len(row)}"
            )
        question_ids.append(row[0])
        row_codes = bytes(map(_CELL_CODE.get, islice(row, 1, None), repeat(_BAD_CELL)))
        if _BAD_CELL in row_codes:
            row_codes = _padded_row_codes(path, lineno, row)
        codes += row_codes
    codes = np.frombuffer(codes, dtype=np.uint8).reshape(len(question_ids),
                                                         len(learner_ids))
    return learner_ids, question_ids, codes


def _decode_plain(text):
    """(learner_ids, question_ids, codes) of a plain file, else None.

    A plain file has no quote or NUL, ends every line in LF or every line in
    CRLF, has a header with at least one learner and at least one question
    row, exactly one comma per learner on every row, every cell exactly
    empty, 0 or 1, and no field longer than csv.field_size_limit() bytes.
    The separators are ASCII, so they never occur inside a multi-byte
    UTF-8 sequence.  Rows are decoded in blocks of about _BLOCK_BYTES, so
    the only array with one element per cell is the code array.
    """
    # csv.reader before Python 3.11 rejects a NUL anywhere
    if '"' in text or "\0" in text:
        return None
    raw = text.encode("utf-8")
    eol = b"\r\n" if b"\r" in raw else b"\n"
    if not raw.endswith(b"\n"):
        raw += eol
    n_lines = raw.count(b"\n")
    # with as many CRs as LFs, a CR before every LF leaves no other CR
    if eol == b"\r\n" and raw.count(b"\r") != n_lines:
        return None
    header_end = raw.index(b"\n") + 1
    header = raw[:header_end]
    if not header.endswith(eol):
        return None
    header = header[:-len(eol)].split(b",")
    limit = csv.field_size_limit()
    Q, N = n_lines - 1, len(header) - 1
    if N < 1 or Q < 1 or max(map(len, header)) > limit:
        return None
    raw_array = np.frombuffer(raw, dtype=np.uint8)
    codes = np.empty((Q, N), dtype=np.uint8)
    question_ids = []
    start = header_end
    while start < len(raw):
        # the block ends at the last LF in the window, or at the end of a
        # row longer than the window
        end = raw.rfind(b"\n", start, start + _BLOCK_BYTES) + 1
        if end == 0:
            end = raw.index(b"\n", start) + 1
        block = raw_array[start:end]
        newlines = np.flatnonzero(block == _LF)
        if eol == b"\r\n" and (raw_array[start - 1 + newlines] != _CR).any():
            return None
        row_starts = np.concatenate(([0], newlines[:-1] + 1))
        is_comma = block == _COMMA
        if (_commas_per_row(is_comma, row_starts) != N).any():
            return None
        ids = [raw[s:raw.index(b",", s)] for s in (start + row_starts).tolist()]
        if max(map(len, ids)) > limit:
            return None
        R = len(ids)
        cells = codes[len(question_ids):len(question_ids) + R].reshape(-1)
        # the byte after each comma: "0" and "1" become codes 1 and 2, and a
        # separator (an empty cell) or any other byte becomes 0
        np.subtract(block[1:][is_comma[:-1]], ord("0") - _CELL_CODE["0"], out=cells)
        cells *= cells <= _CELL_CODE["1"]
        # the cells hold this many bytes, which equals the count of
        # non-empty cells only when every cell is empty, 0 or 1
        cell_bytes = block.size - R * (len(eol) + N) - sum(map(len, ids))
        if np.count_nonzero(cells) != cell_bytes:
            return None
        question_ids += [ident.decode("utf-8") for ident in ids]
        start = end
    return [ident.decode("utf-8") for ident in header[1:]], question_ids, codes


def _commas_per_row(is_comma, row_starts):
    """The number of commas in each row of a block whose rows start at
    row_starts.  Past _INT32_COUNT_BYTES the commas are counted in uint8
    over pieces of at most 255 bytes, which cannot overflow, with a piece
    starting at every row start, and the pieces' counts are then summed
    per row: a count in int32 would cast the whole block to 4 bytes a byte
    first."""
    if is_comma.size <= _INT32_COUNT_BYTES:
        return np.add.reduceat(is_comma, row_starts, dtype=np.int32)
    pieces = np.sort(np.concatenate((row_starts, np.arange(0, is_comma.size, 255))))
    # reduceat sums a piece only up to a strictly greater next start
    pieces = pieces[np.append(pieces[1:] != pieces[:-1], True)]
    counts = np.add.reduceat(is_comma.view(np.uint8), pieces, dtype=np.uint8)
    return np.add.reduceat(counts, np.searchsorted(pieces, row_starts), dtype=np.int64)


def _padded_row_codes(path, lineno, row):
    """Cell codes of a row with padded or bad cells; raises at the first
    cell that is not blank, 0 or 1 once stripped."""
    row_codes = bytearray()
    for cell in row[1:]:
        cell = cell.strip()
        if cell not in _CELL_CODE:
            raise ValueError(f"{path}:{lineno}: bad response value {cell!r}")
        row_codes.append(_CELL_CODE[cell])
    return row_codes


def _reject_duplicate(path, kind, ids):
    seen = set()
    for ident in ids:
        if ident in seen:
            raise ValueError(f"{path}: duplicate {kind} id {ident!r}")
        seen.add(ident)


def _encode(obj):
    """json's hook for what it cannot write itself: a numpy array or scalar
    as its list or value, an enum as its value, and a dataclass instance as
    one key per field, whose values json encodes in turn."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    if isinstance(obj, enum.Enum):
        return obj.value
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {field.name: getattr(obj, field.name) for field in dataclasses.fields(obj)}
    raise TypeError(f"cannot write a {type(obj).__name__} as JSON")


def write_json(path, payload, indent=1):
    """Write payload as JSON with sorted keys and a trailing newline; numpy
    values, enums and dataclass instances go through _encode."""
    with open(path, "w") as fh:
        # dumps, not dump: the same text in one write; dump writes token by
        # token and, unlike an unindented dumps, never uses the C encoder
        fh.write(json.dumps(payload, sort_keys=True, indent=indent, default=_encode)
                 + "\n")


def write_mask_json(path, data: ResponseMatrix):
    payload = {"n_observed": data.n_observed, "pairs": np.argwhere(data.mask).tolist()}
    write_json(path, payload, indent=None)


def model_to_dict(model: FactorModel, extras=None):
    rows, cols = np.nonzero(model.W)
    payload = {
        "Q": model.Q,
        "N": model.N,
        "K": model.K,
        "link": model.link.value,
        "W": [list(triplet) for triplet in
              zip(rows.tolist(), cols.tolist(), model.W[rows, cols].tolist())],
        "C": model.C.tolist(),
        "mu": model.mu.tolist(),
    }
    if extras:
        payload.update(extras)
    return payload


def write_model_json(path, model: FactorModel, extras=None):
    write_json(path, model_to_dict(model, extras))


def read_model_json(path):
    """Returns (FactorModel, full payload dict).

    Text that is not JSON or nests too deeply, a missing key, a value of
    the wrong type or shape, and an unknown link raise ValueError naming
    the file.
    """
    text = read_text(path)
    try:
        payload = json.loads(text)
        Q, N, K = payload["Q"], payload["N"], payload["K"]
        C = np.asarray(payload["C"], dtype=float)
        mu = np.asarray(payload["mu"], dtype=float)
        # checked before W is allocated, so a stated size cannot exceed the file
        if C.shape != (K, N) or mu.shape != (Q,):
            raise ValueError(f"Q={Q!r}, N={N!r}, K={K!r} do not match C of shape "
                             f"{C.shape} and mu of shape {mu.shape}")
        for key, size in (("question_ids", Q), ("learner_ids", N)):
            ids = payload.get(key)
            if ids is not None and not (type(ids) is list and len(ids) == size
                                        and all(type(x) is str for x in ids)):
                raise ValueError(f"{key} is not a list of {size} strings")
        W = np.zeros((Q, K))
        for i, k, value in payload["W"]:
            if not (type(i) is int and type(k) is int and 0 <= i < Q and 0 <= k < K):
                raise ValueError(f"W triplet index ({i!r}, {k!r}) is not an integer "
                                 f"or is out of range for Q={Q}, K={K}")
            W[i, k] = value
        model = FactorModel(W, C, mu, LinkKind(payload["link"]))
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc}") from None
    except (TypeError, ValueError, RecursionError) as exc:
        raise ValueError(f"{path}: {exc}") from None
    return model, payload


def model_to_dot(model: FactorModel, question_ids=None, concept_labels=None):
    """Bipartite concept/question graph in DOT form.

    C rows are normalized to unit length with the scale folded into the
    W columns first, so edge widths are comparable across concepts.
    Questions stay in the graph even when nothing links to them.
    """
    question_ids = question_ids or default_question_ids(model.Q)
    row_norms = np.linalg.norm(model.C, axis=1)
    scale = np.where(row_norms > 0, row_norms, 1.0)
    W_vis = model.W * scale[None, :]
    w_max = float(W_vis.max()) if W_vis.size and W_vis.max() > 0 else 1.0

    def quote(label):
        # escape double quotes only; callers may embed \n line breaks
        return label.replace('"', '\\"')

    lines = ["graph concept_map {", "  rankdir=LR;"]
    for k in range(model.K):
        label = concept_labels[k] if concept_labels else f"C{k + 1}"
        lines.append(f'  c{k} [shape=circle, label="{quote(label)}"];')
    for i in range(model.Q):
        label = f"{quote(str(question_ids[i]))}\\nmu={model.mu[i]:.2f}"
        lines.append(f'  q{i} [shape=box, label="{label}"];')
    for i, k in np.argwhere(W_vis > 0):
        width = 0.5 + 4.0 * float(W_vis[i, k]) / w_max
        lines.append(f"  q{i} -- c{k} [penwidth={width:.3f}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def file_sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(path, command, options, seed, inputs, outputs, elapsed_s):
    """Run record: command, options, seed, input digests, outputs, timing.

    The manifest documents the run (including wall time, which varies);
    the data artifacts themselves are the deterministic contract.
    """
    payload = {
        "command": command,
        "options": options,
        "seed": seed,
        "inputs": {str(p): file_sha256(p) for p in inputs},
        "outputs": [str(p) for p in outputs],
        "elapsed_s": elapsed_s,
    }
    write_json(path, payload)
