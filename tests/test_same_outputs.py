"""The comparison and report of ``tools/same_outputs.py``: a run differs when
its exit code, stdout or stderr differs between the sides, and each such run
is printed with its first differing line, with the largest relative
difference between paired numbers when only numbers differ; the commands
that fail on purpose find their inputs where they run. No command is run here."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import same_outputs  # noqa: E402

BASE = {
    ("rank.json", 1): (0, b'{"rank": 2}\n', b""),
    ("rank.json", 2): (0, b'{"rank": 2}\n', b""),
    ("sim_p10", 1): (0, b"a\nb\n", b"covrank: warning: n <= p\n"),
}


def test_identical_sides_differ_nowhere(capsys):
    assert same_outputs.report(BASE, dict(BASE)) == 0
    assert capsys.readouterr().out.splitlines() == ["0 of 3 runs differ"]


def test_each_differing_run_names_its_fields_and_first_differing_line(capsys):
    change = dict(BASE)
    change["rank.json", 2] = (1, b"", b"covrank: io: a worker process died\n")
    change["sim_p10", 1] = (0, b"a\nc\n", BASE["sim_p10", 1][2])
    assert same_outputs.differing(BASE, change) == {
        ("rank.json", 2): ["exit code", "stdout", "stderr"], ("sim_p10", 1): ["stdout"]}
    assert same_outputs.report(BASE, change) == 2
    assert capsys.readouterr().out.splitlines() == [
        "rank.json at COVRANK_THREADS=2: exit code, stdout, stderr differ",
        "  exit code: base 0, change 1",
        "  stdout: the lines both have match; base 12 bytes, change 0 bytes",
        "  stderr: the lines both have match; base 0 bytes, change 35 bytes",
        "sim_p10 at COVRANK_THREADS=1: stdout differ",
        "  stdout: line 2: base 'b', change 'c'",
        "2 of 3 runs differ",
    ]


def test_a_difference_in_trailing_bytes_only_is_reported():
    assert same_outputs.first_difference(b"a\n", b"a\n\n") == (
        "the lines both have match; base 2 bytes, change 3 bytes")
    assert same_outputs.first_difference(b"a\n", b"a") == (
        "the lines both have match; base 2 bytes, change 1 bytes")


def test_a_difference_in_numbers_only_gives_the_largest_relative_difference(capsys):
    base = {("rank.tsv", 1): (0, b"k\t1\t0.5\t10\n# rank 2\n", b"")}
    change = {("rank.tsv", 1): (0, b"k\t1\t0.25\t11\n# rank 2\n", b"")}
    assert same_outputs.report(base, change) == 1
    assert capsys.readouterr().out.splitlines() == [
        "rank.tsv at COVRANK_THREADS=1: stdout differ",
        "  stdout: line 1: base 'k\\t1\\t0.5\\t10', change 'k\\t1\\t0.25\\t11'; "
        "numbers only, largest relative difference 0.5",
        "1 of 1 runs differ",
    ]
    # Other text that differs, or a number more or less, gives no difference.
    assert same_outputs.largest_relative_difference(b"rank 2\n", b"rank 3 x\n") is None
    assert same_outputs.largest_relative_difference(b"1 2\n", b"1 2 3\n") is None
    # Equal numbers written differently differ by 0.
    assert same_outputs.largest_relative_difference(b"x=1.0\n", b"x=1e0\n") == 0.0


def test_golden_cases_are_each_command_in_each_format():
    commands = same_outputs.golden_commands()
    assert len(commands) == 9
    for name, args in commands.items():
        command, fmt = name.split(".")
        assert args[0] == command and args[-2:] == ["--format", fmt]
        assert Path(args[1]).is_file(), args[1]


def test_failing_commands_read_the_inputs_they_write(tmp_path):
    commands = same_outputs.failure_commands(tmp_path)
    assert list(commands) == ["rank.ragged", "nullcheck.no_noise", "simulate.overflow"]
    for name, args in commands.items():
        assert args[0] == name.split(".")[0] and len(args) == 2
        assert (tmp_path / args[1]).read_text(encoding="utf-8") == same_outputs.FAILURES[name][1]
