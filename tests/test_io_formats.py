"""Response CSV and JSON contracts: what the reader accepts and rejects
(word for word), that writer and reader round-trip, that the plain-file
decoder agrees with the csv.reader path, and that the JSON writers give
the bytes of json.dump.  A cell-by-cell loop reader and writer serve as
the CSV reference."""

import csv
import json
import tracemalloc

import numpy as np
import pytest

from gradefactor import io_formats
from gradefactor.io_formats import (
    file_sha256,
    model_to_dict,
    read_response_csv,
    write_manifest,
    write_mask_json,
    write_model_json,
    write_json,
    write_response_csv,
)
from gradefactor.links import LinkKind
from gradefactor.mle import FitTrace
from gradefactor.model import FactorModel, ResponseMatrix


def loop_read(path):
    """Reference reader: strip and check every cell in Python."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    entries, mask = [], []
    for row in rows[1:]:
        cells = [cell.strip() for cell in row[1:]]
        assert all(cell in ("", "0", "1") for cell in cells)
        entries.append([float(cell or 0) for cell in cells])
        mask.append([cell != "" for cell in cells])
    data = ResponseMatrix(np.asarray(entries), np.asarray(mask, dtype=bool))
    return data, [row[0] for row in rows[1:]], rows[0][1:]


def loop_write(path, data, question_ids, learner_ids):
    """Reference writer: one str(int(...)) per observed cell."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["question_id", *learner_ids])
        for i, qid in enumerate(question_ids):
            writer.writerow([qid] + [str(int(data.entries[i, j])) if data.mask[i, j]
                                     else "" for j in range(data.N)])


def write_text(tmp_path, text, newline=""):
    path = tmp_path / "responses.csv"
    with open(path, "w", newline=newline) as fh:
        fh.write(text)
    return path


class TestReaderAccepts:
    def test_quoted_ids(self, tmp_path):
        path = write_text(tmp_path, 'question_id,"l,1","l ""2"""\n'
                                    '"q ""a"", 1",1,\n"q,2",,0\n')
        data, qids, lids = read_response_csv(path)
        assert lids == ["l,1", 'l "2"']
        assert qids == ['q "a", 1', "q,2"]
        np.testing.assert_array_equal(data.entries, [[1.0, 0.0], [0.0, 0.0]])
        np.testing.assert_array_equal(data.mask, [[True, False], [False, True]])

    def test_padded_cells(self, tmp_path):
        path = write_text(tmp_path, "question_id,a,b,c\nq1, 1 ,\t0,  \nq2,0,1 ,\n")
        data, _, _ = read_response_csv(path)
        np.testing.assert_array_equal(data.entries, [[1, 0, 0], [0, 1, 0]])
        np.testing.assert_array_equal(data.mask, [[True, True, False],
                                                  [True, True, False]])

    def test_crlf_line_endings(self, tmp_path):
        text = "question_id,a,b\nq1,1,\nq2,,0\n"
        lf, _, _ = read_response_csv(write_text(tmp_path, text))
        crlf_path = write_text(tmp_path, text.replace("\n", "\r\n"))
        assert b"\r\n" in crlf_path.read_bytes()
        crlf, qids, lids = read_response_csv(crlf_path)
        assert (qids, lids) == (["q1", "q2"], ["a", "b"])
        np.testing.assert_array_equal(crlf.entries, lf.entries)
        np.testing.assert_array_equal(crlf.mask, lf.mask)


class TestReaderRejects:
    @pytest.mark.parametrize("text,message", [
        ("question_id,a,b\nq1,1,0\n\nq3,0,1\n", ":3: expected 3 cells, got 0"),
        ("question_id,a,b\nq1,1\nq2,0,1\n", ":2: expected 3 cells, got 2"),
        ("question_id,a,b\nq1,1,0\nq2,0,1,1\n", ":3: expected 3 cells, got 4"),
        ("question_id,a,b\nq1,1,0\nq2,0, 2 \n", ":3: bad response value '2'"),
        ("question_id,a,b\nq1,1,0\nq2,x,1\n", ":3: bad response value 'x'"),
        ("question_id,a,b\nq1,1.0,0\n", ":2: bad response value '1.0'"),
    ])
    def test_bad_row_names_path_and_line(self, tmp_path, text, message):
        path = write_text(tmp_path, text)
        with pytest.raises(ValueError) as caught:
            read_response_csv(path)
        assert str(caught.value) == f"{path}{message}"

    def test_first_bad_row_wins(self, tmp_path):
        path = write_text(tmp_path, "question_id,a,b\nq1,1,2\nq2,0\n")
        with pytest.raises(ValueError, match=":2: bad response value '2'"):
            read_response_csv(path)

    def test_header_only(self, tmp_path):
        path = write_text(tmp_path, "question_id,a,b\n")
        with pytest.raises(ValueError, match="^entries must be a Q x N matrix"):
            read_response_csv(path)

    @pytest.mark.parametrize("text", ["", "question_id\nq1\n"])
    def test_no_learner_header(self, tmp_path, text):
        path = write_text(tmp_path, text)
        with pytest.raises(ValueError) as caught:
            read_response_csv(path)
        assert str(caught.value) == f"{path}: expected a header with at least one learner"


def random_matrix(rng, Q, N, p_obs):
    """Random responses at p_obs with question 0 and learner 0 unobserved."""
    mask = rng.random((Q, N)) < p_obs
    mask[0, :] = False
    mask[:, 0] = False
    return ResponseMatrix((rng.random((Q, N)) < 0.5).astype(float), mask)


class TestRoundTrip:
    @pytest.mark.parametrize("p_obs", [0.0, 0.1, 1.0])
    def test_write_then_read(self, tmp_path, p_obs):
        rng = np.random.default_rng(8)
        data = random_matrix(rng, 9, 13, p_obs)
        qids = [f'q "{i}", x' for i in range(9)]
        lids = [f"l,{j}" for j in range(13)]
        path = tmp_path / "r.csv"
        write_response_csv(path, data, qids, lids)
        back, back_qids, back_lids = read_response_csv(path)
        assert np.array_equal(back.entries, data.entries)
        assert np.array_equal(back.mask, data.mask)
        assert (back_qids, back_lids) == (qids, lids)

    @pytest.mark.parametrize("p_obs", [0.0, 0.1, 1.0])
    def test_writer_matches_loop_writer(self, tmp_path, p_obs):
        data = random_matrix(np.random.default_rng(9), 11, 7, p_obs)
        write_response_csv(tmp_path / "fast.csv", data)
        loop_write(tmp_path / "loop.csv", data, [f"q{i + 1}" for i in range(11)],
                   [f"l{j + 1}" for j in range(7)])
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "loop.csv").read_bytes()

    @pytest.mark.parametrize("n_ids", [2, 4])
    def test_writer_rejects_wrong_question_id_count(self, tmp_path, n_ids):
        data = ResponseMatrix(np.ones((3, 2)))
        with pytest.raises(ValueError):
            write_response_csv(tmp_path / "r.csv", data, [f"q{i}" for i in range(n_ids)])

    @pytest.mark.parametrize("seed", range(4))
    def test_reader_matches_loop_reader_on_padded_cells(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        cells = np.array(["", "0", "1", " 1", "0 ", "\t1", "  ", " 0\t"])
        grid = cells[rng.integers(0, cells.size, size=(6, 5))]
        lines = ["question_id,a,b,c,d,e"]
        lines += [",".join([f"q{i}", *row]) for i, row in enumerate(grid)]
        path = write_text(tmp_path, "\n".join(lines) + "\n")
        got, got_qids, got_lids = read_response_csv(path)
        want, want_qids, want_lids = loop_read(path)
        assert np.array_equal(got.entries, want.entries)
        assert np.array_equal(got.mask, want.mask)
        assert (got_qids, got_lids) == (want_qids, want_lids)


def outcome(path):
    """What read_response_csv gives: the arrays and ids, or the message."""
    try:
        data, question_ids, learner_ids = read_response_csv(path)
    except ValueError as exc:
        return str(exc)
    return data.entries.tolist(), data.mask.tolist(), question_ids, learner_ids


def csv_path_outcome(path, monkeypatch):
    """outcome() with the plain-file decoder turned off."""
    with monkeypatch.context() as patch:
        patch.setattr(io_formats, "_decode_plain", lambda text: None)
        return outcome(path)


# id characters: spaces, tabs, digits and non-ASCII letters
ID_CHARS = list("ab z\t09é中ßω")


def random_ids(rng, n):
    ids = []
    while len(ids) < n:
        ident = "".join(rng.choice(ID_CHARS, size=rng.integers(0, 6)))
        if ident not in ids:
            ids.append(ident)
    return ids


def random_plain_text(rng, Q, N, p_obs, eol, final_eol):
    cells = np.where(rng.random((Q, N)) < p_obs,
                     np.where(rng.random((Q, N)) < 0.5, "1", "0"), "")
    lines = [",".join(["question_id", *random_ids(rng, N)])]
    lines += [",".join([qid, *row]) for qid, row in zip(random_ids(rng, Q), cells)]
    return eol.join(lines) + (eol if final_eol else "")


def test_read_makes_no_float_copy(tmp_path):
    # numpy reports its array allocations to tracemalloc.  At this shape
    # and density the read peaks in the plain decoder, at about 9 bytes a
    # cell: the text twice, one int32 comma count per byte and the codes;
    # a float64 copy of the matrix, 8 bytes a cell, next to the text, the
    # codes and the matrix's own bool arrays would pass 12
    Q, N = 300, 500
    path = tmp_path / "r.csv"
    write_response_csv(path, random_matrix(np.random.default_rng(10), Q, N, 0.1))
    tracemalloc.start()
    try:
        data, _, _ = read_response_csv(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert data.entries.dtype == bool
    assert peak < 12 * Q * N


class TestPlainDecoder:
    @pytest.mark.parametrize("block_bytes", [7, 64, io_formats._BLOCK_BYTES])
    @pytest.mark.parametrize("final_eol", [True, False])
    @pytest.mark.parametrize("eol", ["\n", "\r\n"])
    @pytest.mark.parametrize("p_obs", [0.0, 0.1, 1.0])
    def test_equals_csv_path(self, tmp_path, monkeypatch, p_obs, eol, final_eol,
                             block_bytes):
        # blocks of 7 bytes hold no whole row, so every block is one long row
        monkeypatch.setattr(io_formats, "_BLOCK_BYTES", block_bytes)
        rng = np.random.default_rng([int(p_obs * 10), len(eol), final_eol, block_bytes])
        shapes = [(1, 1), (40, 40)] + [tuple(rng.integers(1, 41, size=2)) for _ in range(4)]
        for Q, N in shapes:
            text = random_plain_text(rng, Q, N, p_obs, eol, final_eol)
            path = write_text(tmp_path, text)
            plain = io_formats._decode_plain(text)
            assert plain is not None
            learner_ids, question_ids, codes = io_formats._decode_csv(path, text)
            assert plain[:2] == (learner_ids, question_ids)
            assert plain[2].dtype == codes.dtype and np.array_equal(plain[2], codes)
            assert outcome(path) == csv_path_outcome(path, monkeypatch)

    @pytest.mark.parametrize("text", [
        'question_id,"a",b\nq1,1,0\n',                       # a quote
        "question_id,a,b\rq1,1,0\n",                         # a lone CR
        "question_id,a,b\r\nq1,1,0\nq2,0,1\r\n",             # an LF row in a CRLF file
        "question_id,a,b\r\nq1,1,0\r\nq\r2,0,1\n",           # a CR in an id, CRs = LFs
        "question_id,a,b\r\nq1,\r,1\n",                      # a CR as a cell, CRs = LFs
        "question_id,a,bb\nq\r1,1,1\r\n",                    # an LF header, CRs = LFs
        "question_id,a,b\nq1, 1,0\n",                        # a padded cell
        "question_id,a,b\nq1,1,0\n\nq3,0,1\n",               # a blank line
        "question_id,a,b\nq1,1,0\nq2,0\n",                   # a ragged row
        "question_id,a,b\nq1,1,0,\n",                        # one cell too many
        "question_id,a,b\nq1,1\nq2,0,1,1\n",                 # short, then long
        "question_id,a,b\n",                                 # the header only
        "",                                                  # an empty file
        "question_id\nq1\n",                                 # no learner
        "question_id,a,b\nq1,1,2\n",                         # a 2
        "question_id,a,b\nq1,1,\x00\n",                      # a NUL
        "question_id,a,b\nq\x001,1,0\n",                     # a NUL in an id
        "question_id,a,b\nq1,10,1\n",                        # a two-byte cell
        "question_id,a,b\nq1,/,1\n",                         # the byte before 0
        f"question_id,a,b\n{'q' * 131073},1,0\n",            # an id over the limit
        f"question_id,{'a' * 131073},b\nq1,1,0\n",           # a learner over the limit
    ])
    def test_hands_over_to_csv_path(self, tmp_path, monkeypatch, text):
        path = write_text(tmp_path, text)
        assert io_formats._decode_plain(text) is None
        assert outcome(path) == csv_path_outcome(path, monkeypatch)

    @pytest.mark.parametrize("eol", ["\n", "\r\n"])
    def test_id_at_the_field_limit_stays_plain(self, tmp_path, monkeypatch, eol):
        qid = "q" * csv.field_size_limit()
        text = f"question_id,a{eol}{qid},1{eol}"
        path = write_text(tmp_path, text)
        assert io_formats._decode_plain(text) is not None
        assert outcome(path) == csv_path_outcome(path, monkeypatch)
        assert outcome(path)[2] == [qid]

    @pytest.mark.parametrize("text,kind,ident", [
        ("question_id,l1,l2,l1\nq1,1,0,1\nq1,0,0,1\n", "learner", "l1"),
        ("question_id,l1,l2\nq1,1,0\nq2,0,1\nq1,0,0\n", "question", "q1"),
    ])
    def test_duplicate_ids_same_message(self, tmp_path, monkeypatch, text, kind, ident):
        path = write_text(tmp_path, text)
        assert io_formats._decode_plain(text) is not None
        assert outcome(path) == f"{path}: duplicate {kind} id '{ident}'"
        assert outcome(path) == csv_path_outcome(path, monkeypatch)

    def test_plain_file_never_reaches_csv_reader(self, tmp_path, monkeypatch):
        data = random_matrix(np.random.default_rng(11), 30, 20, 0.3)
        write_response_csv(tmp_path / "crlf.csv", data)
        lf = tmp_path / "lf.csv"
        lf.write_bytes((tmp_path / "crlf.csv").read_bytes().replace(b"\r\n", b"\n"))

        def no_reader(*args, **kwargs):
            raise AssertionError("csv.reader called on a plain file")

        monkeypatch.setattr(io_formats.csv, "reader", no_reader)
        for path in (tmp_path / "crlf.csv", lf):
            back, _, _ = read_response_csv(path)
            assert np.array_equal(back.entries, data.entries)
            assert np.array_equal(back.mask, data.mask)


class TestReadErrors:
    def test_oversized_field_names_path_and_line(self, tmp_path):
        path = write_text(tmp_path, f"question_id,a\nq1,1\n{'q' * 131073},0\n")
        with pytest.raises(ValueError) as caught:
            read_response_csv(path)
        assert str(caught.value) == f"{path}:3: field larger than field limit (131072)"

    def test_undecodable_byte_names_path(self, tmp_path):
        path = tmp_path / "responses.csv"
        path.write_bytes(b"question_id,a\nq1,\xff\n")
        with pytest.raises(ValueError) as caught:
            read_response_csv(path)
        assert str(caught.value).startswith(
            f"{path}: 'utf-8' codec can't decode byte 0xff in position 17")


def json_dump_bytes(path, payload, indent=None):
    """Reference writer: json.dump with sorted keys, then a newline."""
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=indent)
        fh.write("\n")
    return path.read_bytes()


class TestMaskJson:
    @pytest.mark.parametrize("p_obs", [0.0, 0.3, 1.0])
    def test_bytes_equal_json_dump(self, tmp_path, p_obs):
        # the mask, model and manifest writers, each against json.dump
        rng = np.random.default_rng(10)
        data = random_matrix(rng, 8, 6, p_obs)
        mask_path = tmp_path / "mask.json"
        write_mask_json(mask_path, data)
        payload = {"n_observed": data.n_observed,
                   "pairs": [[int(i), int(j)] for i, j in np.argwhere(data.mask)]}
        assert mask_path.read_bytes() == json_dump_bytes(tmp_path / "ref.json", payload)

        W = np.where(data.mask[:, :3], rng.exponential(1.0, (8, 3)), 0.0)
        model = FactorModel(W, rng.normal(size=(3, 6)), rng.normal(size=8))
        extras = {"method": "ml", "trace": {"objectives": rng.normal(size=4).tolist()}}
        model_path = tmp_path / "model.json"
        write_model_json(model_path, model, extras)
        assert model_path.read_bytes() == json_dump_bytes(
            tmp_path / "ref.json", model_to_dict(model, extras), indent=1)

        manifest_path = tmp_path / "model.json.manifest.json"
        write_manifest(manifest_path, "fit", {"method": "ml", "k": 3}, 4,
                       [mask_path], [model_path], 0.125)
        manifest = {"command": "fit", "options": {"method": "ml", "k": 3}, "seed": 4,
                    "inputs": {str(mask_path): file_sha256(mask_path)},
                    "outputs": [str(model_path)], "elapsed_s": 0.125}
        assert manifest_path.read_bytes() == json_dump_bytes(
            tmp_path / "ref.json", manifest, indent=1)


class TestWriteJson:
    def test_records_arrays_and_enums_as_json_values(self, tmp_path):
        trace = FitTrace(np.array([3.0, 2.5, 2.25]), 2.25, 2, 1)
        payload = {"trace": trace, "link": LinkKind.LOGIT, "n": np.int64(7),
                   "flag": np.bool_(True), "U": np.arange(6.0).reshape(2, 3),
                   "pairs": (("a", 0.5),)}
        plain = {"trace": {"objectives": [3.0, 2.5, 2.25], "final_objective": 2.25,
                           "n_outer": 2, "restart_index": 1},
                 "link": "logit", "n": 7, "flag": True,
                 "U": [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]], "pairs": [["a", 0.5]]}
        write_json(tmp_path / "out.json", payload)
        assert (tmp_path / "out.json").read_bytes() == json_dump_bytes(
            tmp_path / "ref.json", plain, indent=1)

    @pytest.mark.parametrize("value", [object(), {1, 2}, FitTrace])
    def test_unencodable_value_raises(self, tmp_path, value):
        with pytest.raises(TypeError, match=f"cannot write a {type(value).__name__} "):
            write_json(tmp_path / "out.json", {"value": value})
