import io
import json
import mmap
import os
import signal
import subprocess
import sys
import threading
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

from covrank import NumericalError, SequenceStatistics, SimulationConfig, cli
from covrank.cli import THREADS_ENV_VAR, _read_data_matrix, run_cli


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run_cli(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def rank1_csv(tmp_path):
    rng = np.random.default_rng(8)
    t = rng.standard_normal(200)
    data = t[:, None] * np.array([1.0, -2.0, 0.5, 0.8])[None, :]
    path = tmp_path / "rank1.csv"
    path.write_text("\n".join(",".join(repr(float(v)) for v in row) for row in data) + "\n")
    return path


@pytest.fixture
def sim_config(tmp_path):
    cfg = {"p": 5, "true_rank": 1, "n": 60, "reps": 30, "alpha": 0.05, "seed": 321}
    path = tmp_path / "sim.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture
def null_config(tmp_path):
    cfg = {"p": 4, "true_rank": 0, "n": 100, "reps": 20,
           "local_null_tau": 0.5, "seed": 11}
    path = tmp_path / "null.json"
    path.write_text(json.dumps(cfg))
    return path


class TestRankCommand:
    def test_json_on_exact_rank_one(self, rank1_csv):
        code, out, err = invoke(["rank", str(rank1_csv), "--format", "json", "--no-center"])
        assert code == 0, err
        payload = json.loads(out)
        assert payload["rank_estimate"] == 1
        assert payload["n"] == 200 and payload["p"] == 4
        assert payload["steps"][0]["rejected"] is True
        assert payload["steps"][1]["degenerate"] is True

    def test_header_autodetected(self, rank1_csv, tmp_path):
        with_header = tmp_path / "headered.csv"
        with_header.write_text("a,b,c,d\n" + rank1_csv.read_text())
        plain = json.loads(invoke(["rank", str(rank1_csv), "--format", "json"])[1])
        headered = json.loads(invoke(["rank", str(with_header), "--format", "json"])[1])
        assert plain == headered

    def test_human_reports_same_results(self, rank1_csv):
        code, out, _ = invoke(["rank", str(rank1_csv), "--no-center"])
        assert code == 0
        assert "rank estimate: 1" in out
        assert "step 1" in out and "reject" in out

    def test_tsv_step_rows(self, rank1_csv):
        code, out, _ = invoke(["rank", str(rank1_csv), "--format", "tsv", "--no-center"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "k\tstatistic\tscale2\tdegenerate\trejected"
        assert lines[1].startswith("1\t")
        assert "# rank_estimate\t1" in lines

    def test_default_alpha_is_the_config_default(self, rank1_csv):
        _, out, _ = invoke(["rank", str(rank1_csv), "--format", "json"])
        assert json.loads(out)["alpha"] == SimulationConfig.alpha
        _, out, _ = invoke(["rank", str(rank1_csv), "--format", "tsv"])
        assert f"# alpha\t{SimulationConfig.alpha!r}" in out.splitlines()

    def test_centering_flag_is_applied(self, tmp_path):
        rng = np.random.default_rng(5)
        data = rng.standard_normal(150)[:, None] * np.array([1.0, 2.0, -1.0, 0.5])[None, :]
        shifted = data + np.array([50.0, -20.0, 5.0, 1.0])
        path = tmp_path / "shifted.csv"
        path.write_text("\n".join(",".join(map(str, row)) for row in shifted))
        centered = json.loads(invoke(["rank", str(path), "--format", "json"])[1])
        raw = json.loads(invoke(["rank", str(path), "--format", "json", "--no-center"])[1])
        assert centered["centered"] is True and raw["centered"] is False
        assert centered["rank_estimate"] == 1
        assert raw["rank_estimate"] == 2  # the mean direction adds a component

    def test_missing_file_exits_2_with_path(self, tmp_path):
        missing = tmp_path / "nope.csv"
        code, _, err = invoke(["rank", str(missing)])
        assert code == 2
        assert str(missing) in err
        assert err.startswith("covrank: io:")
        assert err.count("\n") == 1  # single line

    @pytest.mark.parametrize("command", ["rank", "simulate"])
    def test_directory_input_exits_2_with_path(self, tmp_path, command):
        assert invoke([command, str(tmp_path)]) == (
            2, "", f"covrank: io: {tmp_path}: Is a directory\n")

    @pytest.mark.parametrize("content", [
        "1.0,2.0\nbad,3.0\n",             # non-numeric token
        "1.0,2.0\n1.0\n",                 # ragged row
        "1.0\n2.0\n3.0\n",                # single column
        "",                               # empty
        "h1,h2\n",                        # header only
        " \n\t\n",                        # blank lines only
        "h1,h2\n\n  \n",                  # header and blank lines
    ])
    @pytest.mark.filterwarnings("error")
    def test_bad_inputs_exit_2(self, tmp_path, content):
        path = tmp_path / "bad.csv"
        path.write_text(content)
        code, _, err = invoke(["rank", str(path)])
        assert code == 2
        assert err.startswith("covrank: parse:")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("token", ["inf", "-inf", "nan"])
    def test_non_finite_values_exit_2(self, tmp_path, token):
        path = tmp_path / "nonfinite.csv"
        path.write_text(f"1.0,2.0\n{token},3.0\n4.0,5.0\n")
        assert invoke(["rank", str(path)]) == (
            2, "", f"covrank: parse: {path}: non-finite values in data\n")

    def test_one_row_is_one_parse_line_and_no_warning(self, tmp_path):
        path = tmp_path / "one_row.csv"
        path.write_text("1.0,2.0,3.0\n")
        assert invoke(["rank", str(path)]) == (
            2, "", f"covrank: parse: {path}: data must be an n x p matrix with n, p >= 2, "
                   "got shape (1, 3)\n")

    def test_human_output_reports_the_boundary(self, tmp_path):
        # Six well-separated scales: every testable null, k = 1..5, is rejected.
        data = np.random.default_rng(1).standard_normal((400, 6)) * 3.0 ** -np.arange(6.0)
        code, out, err = invoke(["rank", str(write_csv(tmp_path / "full.csv", data))])
        assert (code, err) == (0, "")
        assert out.splitlines()[-2:] == [
            "rank estimate: 5",
            "boundary reached: all testable nulls rejected; the true rank may be p-1 or p",
        ]

    def test_alpha_flag(self, rank1_csv):
        strict = json.loads(
            invoke(["rank", str(rank1_csv), "--format", "json", "--no-center",
                    "--alpha", "0.01"])[1]
        )
        assert strict["alpha"] == 0.01
        # step-1 statistic ~0.025 > 0.01: nothing rejected at the stricter level
        assert strict["rank_estimate"] == 0

    def test_quadrature_overrides_accepted(self, rank1_csv):
        code, out, err = invoke(["rank", str(rank1_csv), "--format", "json",
                                 "--no-center", "--rel-tol", "1e-8",
                                 "--tail-sigmas", "10"])
        assert code == 0, err
        assert json.loads(out)["rank_estimate"] == 1

    def test_out_of_range_quadrature_flags_are_usage_errors(self, rank1_csv, capsys):
        assert run_cli(["rank", str(rank1_csv), "--rel-tol", "0.5"]) == 2
        assert run_cli(["rank", str(rank1_csv), "--tail-sigmas", "2"]) == 2
        assert run_cli(["rank", str(rank1_csv), "--tail-sigmas", "nan"]) == 2
        assert run_cli(["rank", str(rank1_csv), "--tail-sigmas", "inf"]) == 2
        capsys.readouterr()

    def test_json_output_is_deterministic(self, rank1_csv):
        first = invoke(["rank", str(rank1_csv), "--format", "json"])[1]
        second = invoke(["rank", str(rank1_csv), "--format", "json"])[1]
        assert first == second

    def test_steps_are_the_ones_the_sequence_ran(self, tmp_path, monkeypatch):
        # A whole-sequence rule tests past the first acceptance: every finite
        # statistic is a step that ran, and the report lists each of them.
        statistic = np.array([0.01, 0.5, 0.02, 0.9])
        result = SequenceStatistics(statistic=statistic, scale2=np.full(4, 2.0),
                                    degenerate=np.zeros(4, dtype=bool),
                                    rank_estimate=np.int64(1), boundary_reached=np.False_)
        monkeypatch.setattr(cli, "rank_from_data", lambda *args, **kwargs: result)
        path = write_csv(tmp_path / "five.csv", np.random.default_rng(2).standard_normal((20, 5)))
        outputs = {fmt: invoke(["rank", str(path), "--format", fmt])
                   for fmt in ("json", "tsv", "human")}
        assert all(code == 0 and err == "" for code, _, err in outputs.values()), outputs
        steps = json.loads(outputs["json"][1])["steps"]
        assert [(s["k"], s["statistic"], s["rejected"]) for s in steps] == [
            (1, 0.01, True), (2, 0.5, False), (3, 0.02, True), (4, 0.9, False)]
        assert [line.split("\t")[0] for line in outputs["tsv"][1].splitlines()[1:5]] == [
            "1", "2", "3", "4"]
        assert outputs["tsv"][1].splitlines()[5] == "# rank_estimate\t1"
        assert [line.split(":")[0] for line in outputs["human"][1].splitlines()
                if line.startswith("  step")] == [f"  step {k}" for k in range(1, 5)]


def float_rows(text: str) -> np.ndarray:
    """Reference reader: per-token float() on the non-blank lines, first line a
    header when it does not parse."""
    rows = [line.strip() for line in text.splitlines() if line.strip()]
    try:
        first = [[float(t) for t in rows[0].split(",")]]
    except ValueError:
        first = []
    return np.array(first + [[float(t) for t in line.split(",")] for line in rows[1:]])


class TestCsvReader:
    def test_blank_lines_crlf_and_padding_parse_as_per_token_float(self, tmp_path):
        text = "x,y\r\n \t \r\n 1.5 , -2 \r\n\r\n3e-3,\t4\r\n   \n+.5,6.\r\n"
        path = tmp_path / "padded.csv"
        path.write_bytes(text.encode())
        got = _read_data_matrix(str(path))
        assert got.tobytes() == float_rows(text).tobytes()
        assert got.tolist() == [[1.5, -2.0], [3e-3, 4.0], [0.5, 6.0]]

    def test_extreme_values_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(17)
        data = rng.standard_normal((200, 100)) * 10.0 ** rng.uniform(-300, 300, (200, 100))
        data[0, :8] = [5e-324, -5e-324, 2.2e-310, -0.0, 1.7976931348623157e308,
                       -1.7976931348623157e308, 2.2250738585072014e-308, 1e-320]
        text = "\n".join(",".join(repr(float(v)) for v in row) for row in data) + "\n"
        path = tmp_path / "extreme.csv"
        path.write_text(text)
        got = _read_data_matrix(str(path))
        assert got.tobytes() == float_rows(text).tobytes() == data.tobytes()

    @pytest.mark.parametrize("content", ["1,2\n3,4\n5,7\n6,1\n", "a,b\n1,2\n3,4\n"])
    def test_byte_order_mark_is_not_part_of_the_first_row(self, tmp_path, content):
        path = tmp_path / "bom.csv"
        path.write_text("\ufeff" + content, encoding="utf-8")
        assert _read_data_matrix(str(path)).tobytes() == float_rows(content).tobytes()

    @pytest.mark.parametrize("content, line", [
        ("1,2\n\n3,4\n\n#5,6\n", 5),          # '#' is not a comment
        ('1,2\n\n"3",4\n', 3),                # quoted token
        ("1,2\n\n3,,4\n", 3),                 # empty token
        ("1,2\n\n3,4,\n", 3),                 # trailing comma
        ("1,2\n\n\n3\n", 4),                  # ragged row
        ("a,b\n\n1,2\n\n1_0,2\n", 5),          # underscore-grouped digits
        ("a,b\n1,2\n\u0663,2\n", 3),            # non-ASCII digit
    ])
    def test_bad_token_names_its_physical_line(self, tmp_path, content, line):
        path = tmp_path / "bad.csv"
        path.write_text(content, encoding="utf-8")
        code, _, err = invoke(["rank", str(path)])
        assert code == 2
        assert err.startswith(f"covrank: parse: {path}: line {line}: ")
        assert err.count("\n") == 1

    def test_ragged_row_reports_expected_width(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("a,b,c\n1,2,3\n\n4,5\n")
        code, _, err = invoke(["rank", str(path)])
        assert code == 2
        assert err == f"covrank: parse: {path}: line 4: expected 3 fields, got 2\n"

    def test_non_utf8_file_is_a_parse_error(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"1,2\n3,4\n\xff5,6\n")
        code, _, err = invoke(["rank", str(path)])
        assert code == 2
        assert err.startswith(f"covrank: parse: {path}: not UTF-8 text")
        assert err.count("\n") == 1


@pytest.fixture
def field_csv(tmp_path):
    """A 60 x 5 CSV with a header, about 6 KB: one block by default."""
    rng = np.random.default_rng(31)
    data = rng.standard_normal((60, 2)) @ rng.standard_normal((2, 5)) + rng.standard_normal((60, 5))
    path = tmp_path / "field.csv"
    path.write_text("a,b,c,d,e\n" + "\n".join(",".join(repr(float(v)) for v in row)
                                              for row in data) + "\n")
    return path


def one_block(argv):
    """``invoke(argv)`` with the file parsed as one block."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_BLOCK_BYTES", 1 << 30)
        return invoke(argv)


class _Mapping(mmap.mmap):
    """A mapping that records, when it is closed, the forked children not yet reaped."""

    def close(self):
        self.children_at_close = self.forks.unreaped()
        super().close()


@pytest.fixture
def mappings(monkeypatch, forks):
    """Every mapping the parse opens, in order."""
    opened = []

    def recording(*args):
        opened.append(_Mapping(*args))
        opened[-1].forks = forks
        return opened[-1]

    monkeypatch.setattr(cli, "mmap", types.SimpleNamespace(mmap=recording))
    return opened


_PARSE_BLOCK = cli._parse_block


def _killed_after_the_first_block(job):
    """``_parse_block``, but a job after the first block kills its own process."""
    if job[1] > 0:
        os.kill(os.getpid(), signal.SIGKILL)
    return _PARSE_BLOCK(job)


class TestParallelParse:
    """The CSV parse in byte-range blocks: the same matrix, messages and line
    numbers for any block size and any number of worker processes."""

    @pytest.mark.parametrize("threads", ["1", "2", "3"])
    @pytest.mark.parametrize("fmt", ["json", "human"])
    def test_output_is_byte_identical_for_any_worker_count(self, field_csv, monkeypatch,
                                                            threads, fmt):
        argv = ["rank", str(field_csv), "--format", fmt]
        expected = one_block(argv)
        assert expected[0] == 0
        monkeypatch.setattr(cli, "_BLOCK_BYTES", 256)
        monkeypatch.setenv(THREADS_ENV_VAR, threads)
        assert invoke(argv) == expected

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_matrix_is_byte_identical_for_any_worker_count(self, field_csv, monkeypatch,
                                                            threads):
        expected = _read_data_matrix(str(field_csv))
        monkeypatch.setattr(cli, "_BLOCK_BYTES", 200)
        got = _read_data_matrix(str(field_csv), threads)
        assert got.shape == (60, 5)
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("edit, line", [
        (lambda text: text.replace(text.splitlines()[50], "1.0,2.0,x,4.0,5.0"), 51),
        (lambda text: text.replace(text.splitlines()[50], "1.0,2.0,3.0,4.0"), 51),
        (lambda text: text + "1.0,2.0,3.0,4.0,5.0,6.0\n", 62),
        # A block of one-field rows would broadcast into five columns.
        (lambda text: text + "1.5\n" * 40, 62),
    ], ids=["bad-field", "short-row", "long-last-row", "one-field-rows"])
    def test_a_bad_row_in_a_later_block_keeps_its_line_number(self, field_csv, monkeypatch,
                                                               forks, edit, line):
        field_csv.write_text(edit(field_csv.read_text()))
        argv = ["rank", str(field_csv)]
        expected = one_block(argv)
        assert expected[0] == 2
        assert expected[2].startswith(f"covrank: parse: {field_csv}: line {line}: ")
        monkeypatch.setattr(cli, "_BLOCK_BYTES", 256)
        monkeypatch.setenv(THREADS_ENV_VAR, "2")
        assert invoke(argv) == expected
        assert forks and forks.unreaped() == []

    def test_a_non_utf8_byte_in_a_later_block_is_a_parse_error(self, field_csv, monkeypatch):
        field_csv.write_bytes(field_csv.read_bytes() + b"\xff1,2,3,4,5\n")
        argv = ["rank", str(field_csv)]
        expected = one_block(argv)
        assert expected == (2, "", f"covrank: parse: {field_csv}: not UTF-8 text: "
                                   "invalid start byte\n")
        monkeypatch.setattr(cli, "_BLOCK_BYTES", 256)
        monkeypatch.setenv(THREADS_ENV_VAR, "2")
        assert invoke(argv) == expected

    def test_crlf_and_blank_lines_around_every_cut(self, tmp_path, monkeypatch):
        text = "\ufeff\r\n  \r\nx,y\r\n\r\n 1.5 , -2 \r\n\t\r\n3e-3,4\r\n\r\n\r\n+.5,6.\r\n 7,8"
        path = tmp_path / "crlf.csv"
        path.write_bytes(text.encode())
        expected = _read_data_matrix(str(path))
        assert expected.tolist() == [[1.5, -2.0], [3e-3, 4.0], [0.5, 6.0], [7.0, 8.0]]
        for size in range(1, len(text.encode()) + 1):
            monkeypatch.setattr(cli, "_BLOCK_BYTES", size)
            assert _read_data_matrix(str(path)).tobytes() == expected.tobytes(), size
        monkeypatch.setattr(cli, "_BLOCK_BYTES", 3)
        assert _read_data_matrix(str(path), 2).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("content", ["\ufeffa,b\r\n1,2\r\n3,4\r\n5,7\r\n",
                                         "\ufeff\n\na,b\n1,2\n3,4\n5,7\n",
                                         "\ufeff1,2\n3,4\n5,7\n"])
    def test_byte_order_mark_with_small_blocks(self, tmp_path, monkeypatch, content):
        path = tmp_path / "bom.csv"
        path.write_text(content, encoding="utf-8")
        monkeypatch.setattr(cli, "_BLOCK_BYTES", 2)
        assert _read_data_matrix(str(path), 2).tolist() == [[1, 2], [3, 4], [5, 7]]

    @pytest.mark.parametrize("content, message", [
        ("h1,h2\n\n  \n\t\n\n\n", "no numeric rows after the header"),
        ("\n \n\t\n\n", "file is empty"),
    ])
    @pytest.mark.filterwarnings("error")
    def test_header_and_blank_lines_only(self, tmp_path, monkeypatch, content, message):
        path = tmp_path / "blank.csv"
        path.write_text(content)
        monkeypatch.setattr(cli, "_BLOCK_BYTES", 2)
        monkeypatch.setenv(THREADS_ENV_VAR, "2")
        assert invoke(["rank", str(path)]) == (2, "", f"covrank: parse: {path}: {message}\n")

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_only_shapes_go_through_the_pool(self, field_csv, monkeypatch, threads):
        results = []
        fork_map = cli._fork_map

        def recording(fn, jobs, workers):
            results.extend(fork_map(fn, jobs, workers))
            return results

        monkeypatch.setattr(cli, "_fork_map", recording)
        monkeypatch.setattr(cli, "_BLOCK_BYTES", 256)
        monkeypatch.setenv(THREADS_ENV_VAR, threads)
        assert invoke(["rank", str(field_csv)])[0] == 0
        assert len(results) > 2
        for result in results:
            assert result is None or (len(result) == 2
                                      and all(type(v) is int for v in result)), result

    @pytest.mark.parametrize("content", ["1\n" * 30, "1\n" * 29 + "1", "1\r\n" * 20 + "2",
                                         "1,2\n" * 20, "1,2\r\n" * 16 + "3,4"],
                             ids=["one-field", "one-field-no-newline", "one-field-crlf",
                                  "two-field", "two-field-crlf-no-newline"])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_densest_rows_fit_their_region_at_every_block_size(self, tmp_path, monkeypatch,
                                                               content, threads):
        path = tmp_path / "dense.csv"
        path.write_bytes(content.encode())
        expected = _read_data_matrix(str(path))
        assert expected.shape[0] == content.count("\n") + (not content.endswith("\n"))
        if threads > 1:
            # Every block is written, in-process, before any region is read, as
            # pool workers may do; so regions that overlap show.
            monkeypatch.setattr(cli, "_fork_map", lambda fn, jobs, workers: list(map(fn, jobs)))
        for size in range(1, len(content) + 1):
            monkeypatch.setattr(cli, "_BLOCK_BYTES", size)
            got = _read_data_matrix(str(path), threads)
            assert got.shape == expected.shape and got.tobytes() == expected.tobytes(), size

    @pytest.mark.parametrize("edit", [
        lambda raw: raw,
        lambda raw: raw.replace(raw.splitlines()[50], b"1.0,2.0,x,4.0,5.0"),
        lambda raw: raw + b"\xff1,2,3,4,5\n",
        lambda raw: raw + b"1.5\n" * 40,
    ], ids=["parsed", "bad-field", "non-utf8", "width-change"])
    def test_the_mapping_is_released(self, field_csv, monkeypatch, mappings, forks, edit):
        field_csv.write_bytes(edit(field_csv.read_bytes()))
        monkeypatch.setattr(cli, "_BLOCK_BYTES", 256)
        monkeypatch.setenv(THREADS_ENV_VAR, "2")
        invoke(["rank", str(field_csv)])
        assert len(mappings) == 1 and mappings[0].closed
        assert forks and mappings[0].children_at_close == []

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_a_width_change_at_a_block_start_names_its_line(self, field_csv, monkeypatch,
                                                            mappings, forks, threads):
        # The last five-field line ends the first block, so the one-field rows
        # are a block of their own, and only the concatenation sees the widths.
        five = field_csv.read_bytes()
        field_csv.write_bytes(five + b"1.5\n" * 40)
        shapes = []
        fork_map = cli._fork_map

        def recording(fn, jobs, workers):
            shapes.extend(fork_map(fn, jobs, workers))
            return shapes

        monkeypatch.setattr(cli, "_fork_map", recording)
        monkeypatch.setattr(cli, "_BLOCK_BYTES", len(five) - 1)
        monkeypatch.setenv(THREADS_ENV_VAR, threads)
        assert invoke(["rank", str(field_csv)]) == (
            2, "", f"covrank: parse: {field_csv}: line 62: expected 5 fields, got 1\n")
        assert shapes == [(60, 5), (40, 1)]
        assert len(mappings) == 1 and mappings[0].closed
        assert len(forks) == {"1": 0, "2": 2}[threads]
        assert mappings[0].children_at_close == []

    def test_the_mapping_is_released_on_interrupt(self, field_csv, monkeypatch, mappings):
        parse_block = cli._parse_block

        def interrupted(job):
            if job[1] > 0:
                raise KeyboardInterrupt
            return parse_block(job)

        monkeypatch.setattr(cli, "_parse_block", interrupted)
        monkeypatch.setattr(cli, "_BLOCK_BYTES", 256)
        with pytest.raises(KeyboardInterrupt):
            _read_data_matrix(str(field_csv))
        assert len(mappings) == 1 and mappings[0].closed

    @pytest.mark.parametrize("threads", [1, 2])
    def test_the_matrix_owns_exactly_the_parsed_rows(self, field_csv, monkeypatch, threads):
        expected = np.loadtxt(field_csv, delimiter=",", skiprows=1)
        monkeypatch.setattr(cli, "_BLOCK_BYTES", 256)
        got = _read_data_matrix(str(field_csv), threads)
        assert got.base is None and got.flags.c_contiguous
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes()

    def test_a_dead_worker_is_one_io_error(self, field_csv, monkeypatch, forks):
        # Pool workers are forked after the patch, so a later block kills its worker.
        monkeypatch.setattr(cli, "_parse_block", _killed_after_the_first_block)
        monkeypatch.setattr(cli, "_BLOCK_BYTES", 256)
        monkeypatch.setenv(THREADS_ENV_VAR, "2")
        results = []
        runner = threading.Thread(target=lambda: results.append(invoke(["rank", str(field_csv)])),
                                  daemon=True)
        runner.start()
        runner.join(60.0)
        assert not runner.is_alive()
        code, out, err = results[0]
        assert (code, out) == (2, "")
        assert err.startswith("covrank: io: a worker process died: ") and err.count("\n") == 1
        assert forks and forks.unreaped() == []

    def test_one_block_file_starts_no_pool(self, field_csv, monkeypatch, forks):
        monkeypatch.setenv(THREADS_ENV_VAR, "4")
        assert invoke(["rank", str(field_csv)])[0] == 0
        assert forks == []

    @pytest.mark.parametrize("env, cpus, block_bytes, workers", [
        (None, 3, 256, 3),     # every available CPU
        ("2", 3, 256, 2),      # COVRANK_THREADS wins
        ("8", 3, 256, 8),      # more than the CPUs
        ("8", 3, 4096, 2),     # at most one worker per block
        (None, 3, 1 << 20, 1),  # one worker runs in-process: no pool
    ])
    def test_worker_count(self, field_csv, monkeypatch, forks, env, cpus, block_bytes,
                          workers):
        # The count is that of the forks, since _fork_map lowers the requested
        # count to the number of blocks itself.
        monkeypatch.setattr(cli, "_cpus", lambda: cpus)
        monkeypatch.setattr(cli, "_BLOCK_BYTES", block_bytes)
        if env is None:
            monkeypatch.delenv(THREADS_ENV_VAR, raising=False)
        else:
            monkeypatch.setenv(THREADS_ENV_VAR, env)
        assert invoke(["rank", str(field_csv)])[0] == 0
        assert len(forks) == (workers if workers > 1 else 0)

    @pytest.mark.parametrize("raw", ["abc", "0", "-1", "1.5"])
    def test_invalid_env_thread_count_exits_2(self, field_csv, monkeypatch, raw):
        monkeypatch.setenv(THREADS_ENV_VAR, raw)
        assert invoke(["rank", str(field_csv)]) == (
            2, "", f"covrank: parse: environment variable {THREADS_ENV_VAR}={raw!r} "
                   "is not a positive integer\n")


class TestSimulateCommand:
    def test_tsv_is_deterministic_across_runs_and_threads(self, sim_config):
        runs = [
            invoke(["simulate", str(sim_config), "--format", "tsv", "--threads", t])
            for t in ("1", "1", "2")
        ]
        assert all(code == 0 for code, _, _ in runs)
        assert runs[0][1] == runs[1][1] == runs[2][1]

    def test_json_output_is_deterministic(self, sim_config):
        first = invoke(["simulate", str(sim_config), "--format", "json"])[1]
        second = invoke(["simulate", str(sim_config), "--format", "json"])[1]
        assert first == second

    def test_json_table_structure(self, sim_config):
        code, out, _ = invoke(["simulate", str(sim_config), "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        steps = payload["steps"]
        assert [s["k"] for s in steps] == [1, 2, 3, 4]
        assert steps[0]["reached"] == 30
        for a, b in zip(steps, steps[1:]):
            assert b["reached"] == a["rejected"]
        assert payload["config"]["seed"] == 321

    def test_human_table_has_rates_and_counts(self, sim_config):
        code, out, _ = invoke(["simulate", str(sim_config)])
        assert code == 0
        assert "H0,1" in out and "rate %" in out
        assert "(" in out and "/" in out

    def test_seed_override_changes_config(self, sim_config):
        base = json.loads(invoke(["simulate", str(sim_config), "--format", "json"])[1])
        other = json.loads(
            invoke(["simulate", str(sim_config), "--format", "json", "--seed", "999"])[1]
        )
        assert other["config"]["seed"] == 999
        assert base["config"]["seed"] == 321

    def test_alpha_override(self, sim_config):
        payload = json.loads(
            invoke(["simulate", str(sim_config), "--format", "json", "--alpha", "0.2"])[1]
        )
        assert payload["config"]["alpha"] == 0.2

    def test_unknown_config_key_exits_2(self, tmp_path):
        path = tmp_path / "typo.json"
        path.write_text(json.dumps({"p": 4, "true_rank": 1, "n": 20, "reps": 2,
                                    "seeed": 1}))
        code, _, err = invoke(["simulate", str(path)])
        assert code == 2
        assert "seeed" in err

    def test_malformed_json_exits_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = invoke(["simulate", str(path)])
        assert code == 2
        assert err.startswith("covrank: parse:")

    @pytest.mark.parametrize("command", ["simulate", "nullcheck"])
    def test_non_utf8_config_is_a_parse_error(self, tmp_path, command):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"p": 4, "true_rank": 1, "n": 20, "reps": 2, "seed": 0, "x\xff": 1}')
        code, out, err = invoke([command, str(path)])
        assert code == 2
        assert out == ""
        assert err.startswith(f"covrank: parse: {path}: not UTF-8 text")
        assert err.count("\n") == 1

    def test_config_that_is_not_an_object_exits_2(self, tmp_path):
        path = tmp_path / "array.json"
        path.write_text("[1, 2]")
        assert invoke(["simulate", str(path)]) == (
            2, "", f"covrank: parse: {path}: config must be a JSON object\n")

    @pytest.mark.parametrize("scales", [3.0, "3,2", {"0": 3.0}])
    def test_factor_scales_that_are_not_an_array_exit_2(self, tmp_path, scales):
        path = tmp_path / "scales.json"
        path.write_text(json.dumps({"p": 4, "true_rank": 1, "n": 20, "reps": 2,
                                    "factor_scales": scales}))
        assert invoke(["simulate", str(path)]) == (
            2, "", f"covrank: parse: {path}: factor_scales must be a JSON array\n")

    def test_missing_required_key_exits_2(self, tmp_path):
        path = tmp_path / "partial.json"
        path.write_text(json.dumps({"p": 4, "n": 20, "reps": 2}))
        code, _, err = invoke(["simulate", str(path)])
        assert code == 2

    def test_semantically_invalid_config_exits_1(self, tmp_path):
        path = tmp_path / "badalpha.json"
        path.write_text(json.dumps({"p": 4, "true_rank": 1, "n": 20, "reps": 2,
                                    "alpha": 1.5, "seed": 0}))
        code, _, err = invoke(["simulate", str(path)])
        assert code == 1
        assert err.startswith("covrank: workflow:")

    def test_non_integer_dimension_is_a_workflow_error(self, tmp_path):
        path = tmp_path / "textp.json"
        path.write_text(json.dumps({"p": "10", "true_rank": 1, "n": 20, "reps": 2}))
        assert invoke(["simulate", str(path)]) == (
            1, "", "covrank: workflow: p must be an integer, got '10'\n")

    @pytest.mark.parametrize("scales", [["x", 1.0], [True], [None, 1.0]])
    def test_non_numeric_factor_scale_is_a_workflow_error(self, tmp_path, scales):
        path = tmp_path / "scales.json"
        path.write_text(json.dumps({"p": 4, "true_rank": len(scales), "n": 20, "reps": 2,
                                    "factor_scales": scales, "seed": 0}))
        code, out, err = invoke(["simulate", str(path)])
        assert (code, out) == (1, "")
        assert err == ("covrank: workflow: each factor_scales entry must be a real number, "
                       f"got {scales[0]!r}\n")

    def test_env_var_supplies_thread_default(self, sim_config, monkeypatch):
        base = invoke(["simulate", str(sim_config), "--format", "tsv"])[1]
        monkeypatch.setenv(THREADS_ENV_VAR, "2")
        via_env = invoke(["simulate", str(sim_config), "--format", "tsv"])
        assert via_env[0] == 0
        assert via_env[1] == base

    def test_invalid_env_thread_count_exits_2(self, sim_config, monkeypatch):
        monkeypatch.setenv(THREADS_ENV_VAR, "soon")
        code, _, err = invoke(["simulate", str(sim_config)])
        assert code == 2
        assert THREADS_ENV_VAR in err

    def test_zero_env_thread_count_exits_2(self, sim_config, monkeypatch):
        monkeypatch.setenv(THREADS_ENV_VAR, "0")
        assert invoke(["simulate", str(sim_config)]) == (
            2, "", f"covrank: parse: environment variable {THREADS_ENV_VAR}='0' "
                   "is not a positive integer\n")

    def test_numerical_failure_exits_3(self, sim_config, monkeypatch):
        import covrank.cli as cli_mod

        def boom(*args, **kwargs):
            raise NumericalError("synthetic quadrature failure")

        monkeypatch.setattr(cli_mod, "run_rejection_table", boom)
        code, _, err = invoke(["simulate", str(sim_config)])
        assert code == 3
        assert err.startswith("covrank: numeric:")


class TestNullcheckCommand:
    def test_degenerate_config_exits_1(self, tmp_path):
        path = tmp_path / "tau0.json"
        path.write_text(json.dumps({"p": 4, "true_rank": 0, "n": 50, "reps": 5,
                                    "seed": 3}))
        code, _, err = invoke(["nullcheck", str(path)])
        assert code == 1
        assert "degenerate" in err

    def test_zero_reps_exits_1_naming_reps(self, tmp_path):
        path = tmp_path / "no_reps.json"
        path.write_text(json.dumps({"p": 4, "true_rank": 0, "n": 50, "reps": 0,
                                    "local_null_tau": 0.5, "seed": 3}))
        code, out, err = invoke(["nullcheck", str(path)])
        assert (code, out) == (1, "")
        assert err == "covrank: workflow: null collection needs reps >= 1, got 0\n"

    def test_json_output(self, null_config):
        code, out, _ = invoke(["nullcheck", str(null_config), "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["k"] == 1  # default step: true_rank + 1
        assert 0.0 <= payload["ks_distance"] <= 1.0
        assert 0.0 <= payload["rejection_rate"] <= 1.0
        assert 0.0 <= payload["ks_pvalue_approx"] <= 1.0
        assert "statistics" not in payload

    def test_statistics_vector_on_request(self, null_config):
        payload = json.loads(
            invoke(["nullcheck", str(null_config), "--format", "json",
                    "--include-statistics"])[1]
        )
        assert len(payload["statistics"]) == 20
        assert all(0.0 <= v <= 1.0 for v in payload["statistics"])

    def test_tsv_output(self, null_config):
        code, out, _ = invoke(["nullcheck", str(null_config), "--format", "tsv"])
        assert code == 0
        keys = [line.split("\t")[0] for line in out.splitlines()]
        assert keys[:3] == ["k", "reps", "alpha"]
        assert "ks_distance" in keys and "rejection_rate" in keys

    def test_human_output_labels_pvalue_approximate(self, null_config):
        code, out, _ = invoke(["nullcheck", str(null_config)])
        assert code == 0
        assert "KS distance" in out
        assert "approximation" in out

    def test_step_flag_validated_against_rank(self, null_config):
        code, _, err = invoke(["nullcheck", str(null_config), "--step", "2"])
        assert code == 1
        assert "true_rank" in err

    def test_statistics_are_byte_identical_across_threads(self, tmp_path):
        # Large enough that x^T x runs multi-threaded BLAS in-process, while
        # pool workers run it single-threaded: the floats must not drift.
        path = tmp_path / "local_null.json"
        path.write_text(json.dumps({"p": 20, "true_rank": 2, "n": 4000, "reps": 8,
                                    "local_null_tau": 1.0, "seed": 17}))
        outputs = []
        for threads in ("1", "2"):
            code, out, _ = invoke(["nullcheck", str(path), "--include-statistics",
                                   "--format", "json", "--threads", threads])
            assert code == 0
            outputs.append(out.encode())
        assert len(json.loads(outputs[0])["statistics"]) == 8
        assert outputs[0] == outputs[1]



class TestConfigFile:
    """What ``simulate`` and ``nullcheck`` share: every config key is a
    SimulationConfig field, and the flags are merged in before it is built."""

    @pytest.mark.parametrize("command", ["simulate", "nullcheck"])
    def test_config_is_built_once_per_command(self, null_config, monkeypatch, command):
        built = []
        post_init = SimulationConfig.__post_init__

        def counting(cfg):
            built.append(cfg)
            post_init(cfg)

        monkeypatch.setattr(SimulationConfig, "__post_init__", counting)
        code, _, err = invoke([command, str(null_config), "--alpha", "0.1", "--seed", "5"])
        assert code == 0, err
        assert len(built) == 1
        assert (built[0].alpha, built[0].seed) == (0.1, 5)

    @pytest.mark.parametrize("command", ["simulate", "nullcheck"])
    @pytest.mark.parametrize("field, bad, flag, value", [
        ("alpha", 2.0, "--alpha", 0.05),
        ("seed", -1, "--seed", 3),
    ])
    def test_flag_overrides_an_invalid_config_value(self, tmp_path, command,
                                                    field, bad, flag, value):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"p": 4, "true_rank": 0, "n": 100, "reps": 5,
                                    "local_null_tau": 0.5, field: bad}))
        assert invoke([command, str(path)])[0] == 1
        code, out, err = invoke([command, str(path), flag, str(value), "--format", "json"])
        assert (code, err) == (0, "")
        assert json.loads(out)["config"][field] == value

    @pytest.mark.parametrize("command", ["simulate", "nullcheck"])
    def test_step_key_is_an_unknown_key(self, tmp_path, command):
        path = tmp_path / "step.json"
        path.write_text(json.dumps({"p": 4, "true_rank": 0, "n": 100, "reps": 5,
                                    "local_null_tau": 0.5, "step": 1}))
        assert invoke([command, str(path)]) == (
            2, "", f"covrank: parse: {path}: unknown config keys: ['step']\n")


class TestUsage:
    def test_unknown_command_exits_2(self, capsys):
        assert run_cli(["frobnicate"]) == 2
        capsys.readouterr()

    def test_no_command_exits_2(self, capsys):
        assert run_cli([]) == 2
        capsys.readouterr()

    def test_bad_alpha_value_exits_2(self, rank1_csv, capsys):
        assert run_cli(["rank", str(rank1_csv), "--alpha", "2"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("value", ["0", "1", "-0.5", "nan", "inf"])
    @pytest.mark.parametrize("command", ["rank", "simulate"])
    def test_out_of_range_alpha_is_a_usage_error(self, rank1_csv, sim_config, capsys,
                                                 command, value):
        target = rank1_csv if command == "rank" else sim_config
        assert run_cli([command, str(target), "--alpha", value]) == 2
        assert "alpha must be in (0, 1)" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, kind", [
        ("--alpha", "x", "a number"),
        ("--rel-tol", "x", "a number"),
        ("--tail-sigmas", "1e", "a number"),
        ("--threads", "two", "an integer"),
        ("--seed", "x", "an integer"),
    ])
    def test_non_numeric_option_is_one_usage_error(self, sim_config, capsys,
                                                   flag, value, kind):
        assert run_cli(["simulate", str(sim_config), flag, value]) == 2
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert errors == [
            f"covrank simulate: error: argument {flag}: must be {kind}, got {value!r}"
        ]
        assert "invalid" not in err and "_arg" not in err and "_thread_count" not in err

    @pytest.mark.parametrize("command, name", [
        pytest.param("simulate", "threads", id="simulate"),
        pytest.param("nullcheck", "threads", id="nullcheck"),
        pytest.param("nullcheck", "step", id="nullcheck-step"),
    ])
    def test_zero_threads_is_a_usage_error(self, sim_config, capsys, command, name):
        assert run_cli([command, str(sim_config), f"--{name}", "0"]) == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert errors == [f"covrank {command}: error: argument --{name}: "
                          f"{name} must be an integer >= 1, got 0"]

    @pytest.mark.parametrize("args", [["--format", "json"], ["--alpha", "2"]],
                             ids=["json", "usage-error"])
    def test_module_run_prints_what_run_cli_prints(self, rank1_csv, args):
        argv = ["rank", str(rank1_csv), *args]
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        proc = subprocess.run([sys.executable, "-m", "covrank.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        code, out, _ = invoke(argv)
        assert (proc.returncode, proc.stdout) == (code, out)
        assert out or code == 2

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_out_of_range_seed_is_one_usage_error(self, sim_config, capsys, seed):
        assert run_cli(["simulate", str(sim_config), "--seed", str(seed)]) == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert errors == [f"covrank simulate: error: argument --seed: "
                          f"seed must be a 64-bit unsigned integer, got {seed}"]


def write_csv(path, data):
    path.write_text("\n".join(",".join(repr(float(v)) for v in row) for row in data) + "\n")
    return path


class TestStderrLines:
    @pytest.mark.parametrize("scale", [1e-100, 1e100])
    def test_rank_out_of_float_range_is_one_numeric_line(self, tmp_path, scale):
        rng = np.random.default_rng(4)
        data = rng.standard_normal((200, 2)) @ rng.standard_normal((2, 6))
        path = write_csv(tmp_path / "scaled.csv", scale * data)
        code, out, err = invoke(["rank", str(path)])
        assert code == 3
        assert out == ""
        assert err.startswith("covrank: numeric: step k=1: float64 under- or overflow")
        assert err.count("\n") == 1
        assert "Warning" not in err

    @pytest.mark.parametrize("center", ["--center", "--no-center"])
    def test_gram_diagonal_near_the_float64_maximum_is_one_numeric_line(self, tmp_path, center):
        path = write_csv(tmp_path / "huge.csv", [[8e153, 1.0], [-8e153, 0.0], [1.0, 2.0]])
        code, out, err = invoke(["rank", str(path), center])
        assert (code, out) == (3, "")
        assert err.startswith("covrank: numeric: step k=1: float64 under- or overflow")
        assert err.count("\n") == 1

    def test_n_not_above_p_is_one_warning_line(self, tmp_path):
        path = write_csv(tmp_path / "wide.csv", np.random.default_rng(5).standard_normal((5, 8)))
        code, out, err = invoke(["rank", str(path)])
        assert code == 0
        assert "rank estimate:" in out and "Warning" not in out
        assert err.splitlines() == ["covrank: warning: n=5 observations for p=8 covariates; "
                                    "the test's guarantees assume n > p"]

    @pytest.mark.parametrize("command", ["simulate", "nullcheck"])
    def test_a_config_with_n_not_above_p_is_one_warning_line(self, tmp_path, command):
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"p": 20, "true_rank": 2, "n": 10, "reps": 3,
                                    "local_null_tau": 1.0, "seed": 1}))
        code, out, err = invoke([command, str(path), "--threads", "2"])
        assert code == 0 and out
        assert err.splitlines() == ["covrank: warning: n=10 observations for p=20 covariates; "
                                    "the test's guarantees assume n > p"]

    def test_low_t_df_is_one_warning_line(self, tmp_path):
        path = tmp_path / "t3.json"
        path.write_text(json.dumps({"p": 4, "true_rank": 1, "n": 40, "reps": 3,
                                    "t_df": 3, "seed": 1}))
        code, out, err = invoke(["simulate", str(path), "--format", "json"])
        assert code == 0
        assert json.loads(out)["config"]["t_df"] == 3
        assert err.splitlines() == ["covrank: warning: t_df=3.0 <= 4: factor fourth moments are "
                                    "infinite, outside the regularity conditions; "
                                    "proceeding anyway"]

    def test_a_warning_in_a_block_is_one_line_at_any_thread_count(self, sim_config,
                                                                   monkeypatch):
        from covrank import montecarlo

        sequence = montecarlo.run_sequence

        def warning_sequence(*args, **kwargs):
            warnings.warn("a block warned")
            return sequence(*args, **kwargs)

        # Pool workers are forked after the patch, so they warn too.
        monkeypatch.setattr(montecarlo, "run_sequence", warning_sequence)
        one, two = (invoke(["simulate", str(sim_config), "--threads", t]) for t in ("1", "2"))
        assert one == two
        assert one[2] == "covrank: warning: a block warned\n"

    def test_warnings_are_printed_before_a_failure(self, tmp_path):
        data = 1e-100 * np.random.default_rng(5).standard_normal((5, 8))
        code, _, err = invoke(["rank", str(write_csv(tmp_path / "wide.csv", data))])
        assert code == 3
        lines = err.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("covrank: warning: n=5 observations")
        assert lines[1].startswith("covrank: numeric:")

    def test_numeric_line_carries_the_best_estimate(self, sim_config, monkeypatch):
        import covrank.cli as cli_mod

        def boom(*args, **kwargs):
            raise NumericalError("quadrature did not converge", best_estimate=-2.5,
                                 achieved_rel_tol=0.125)

        monkeypatch.setattr(cli_mod, "run_rejection_table", boom)
        code, _, err = invoke(["simulate", str(sim_config)])
        assert code == 3
        assert err == ("covrank: numeric: quadrature did not converge; best_estimate=-2.5; "
                       "achieved_rel_tol=0.125\n")
