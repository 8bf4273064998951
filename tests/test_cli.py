"""Tests for the command-line interface and its report format."""
from __future__ import annotations

import errno
import importlib
import json
import math
import os
import pathlib
import pkgutil
import subprocess
import sys
import time
import tracemalloc
import types

import numpy as np
import pytest

import tdual
from tdual import branes, bundles, cells, cli, geometry, oracle, report


def run_cli(args, capsys):
    rc = cli.main(args)
    out = capsys.readouterr().out
    return rc, out


def test_verify_passes_and_reports(capsys):
    rc, out = run_cli(["verify", "--n", "1"], capsys)
    assert rc == 0
    body = json.loads(out)
    assert body["command"] == "verify"
    assert body["n"] == 1
    assert body["pass"] is True
    assert [c["check"] for c in body["checks"]] == [
        "equivalence.quiver",
        "quiver.strong_exceptional",
    ]
    for check in body["checks"]:
        assert set(check) >= {"check", "parameters", "max_deviation", "pass"}


def test_geometry_report_checks(capsys):
    rc, out = run_cli(["geometry", "--n", "2"], capsys)
    assert rc == 0
    body = json.loads(out)
    names = [c["check"] for c in body["checks"]]
    assert names == [
        "geometry.moment_round_trip",
        "geometry.mirror_modulus",
        "geometry.two_form_algebra",
        "geometry.critical_points",
    ]
    assert all(c["pass"] for c in body["checks"])


def test_exit_code_one_on_failed_check(capsys):
    rc, out = run_cli(["geometry", "--n", "1", "--tol", "0"], capsys)
    assert rc == 1
    body = json.loads(out)
    assert body["pass"] is False


def test_geometry_fails_fast_on_an_empty_moment_grid(capsys):
    """At n = 20 no grid point lies below the cut (20 * 0.05 >= 0.98)."""
    start = time.perf_counter()
    rc, out = run_cli(["geometry", "--n", "20"], capsys)
    assert time.perf_counter() - start < 1.0
    assert rc == 1
    [round_trip] = [c for c in json.loads(out)["checks"] if c["check"] == "geometry.moment_round_trip"]
    assert round_trip["pass"] is False
    assert round_trip["parameters"]["grid_points"] == 0


def test_usage_error_on_bad_epsilon(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["oracle", "--n", "1", "--epsilon", "1/4"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        cli.main(["oracle", "--n", "1", "--epsilon", "junk"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        cli.main(["oracle", "--n", "1", "--epsilon", "-1/8"])
    assert err.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1].startswith("tdual oracle: error: argument --epsilon: ")


def test_reports_are_byte_identical(capsys):
    _, first = run_cli(["branes", "--n", "1"], capsys)
    _, second = run_cli(["branes", "--n", "1"], capsys)
    assert first == second


def test_oracle_report_detail(capsys):
    rc, out = run_cli(["oracle", "--n", "1"], capsys)
    assert rc == 0
    body = json.loads(out)
    assert [c["check"] for c in body["checks"]] == ["oracle.match", "oracle.stability"]
    assert body["pass"] is True
    # one entry per (i, j, offset) combination: 2 * 2 * 2
    assert len(body["detail"]) == 8
    entry = body["detail"][0]
    assert set(entry) == {"i", "j", "b", "betti", "cells"}


def test_oracle_builds_each_cell_pair_once(monkeypatch, capsys):
    built = []
    region_pair = oracle.region_pair

    def counting(outer, inner):
        built.append((outer, inner))
        return region_pair(outer, inner)

    monkeypatch.setattr(oracle, "region_pair", counting)
    rc, _ = run_cli(["oracle", "--n", "1"], capsys)
    assert rc == 0
    # one call per (i, j, offset), shared by the epsilon and epsilon/2 checks
    assert len(built) == 8
    assert len(set(built)) == 8


def test_quiver_dot_export(tmp_path, capsys):
    out_file = tmp_path / "quiver_n1.dot"
    rc, out = run_cli(
        ["quiver", "--n", "1", "--format", "dot", "--out", str(out_file)], capsys
    )
    assert rc == 0
    body = json.loads(out)
    assert body["export_path"] == str(out_file)
    dot = out_file.read_text()
    # two objects and two generating arrows in the cell quiver
    assert dot.count('"U(') == 2 + 2 * 2  # two node lines + two arrow lines
    assert dot.count('"U(-2)" -> "U(-1)"') == 2
    assert dot.count('"O(-2)" -> "O(-1)"') == 2
    assert dot.count("digraph") == 2


def test_quiver_json_embedded_export(capsys):
    rc, out = run_cli(["quiver", "--n", "2"], capsys)
    assert rc == 0
    body = json.loads(out)
    assert body["dims"]["-3,-1"] == 6
    export = body["export"]
    assert set(export) == {"cells", "bundles"}
    assert export["cells"]["objects"] == ["U(-3)", "U(-2)", "U(-1)"]
    assert export["bundles"]["objects"] == ["O(-3)", "O(-2)", "O(-1)"]
    # the two quivers carry identical hom-space dimensions
    cell_dims = {(h["i"], h["j"]): len(h["basis"]) for h in export["cells"]["homs"]}
    bundle_dims = {(h["i"], h["j"]): len(h["basis"]) for h in export["bundles"]["homs"]}
    assert cell_dims == bundle_dims


def test_quiver_out_file_is_the_embedded_export(tmp_path, capsys):
    out_file = tmp_path / "quiver.json"
    rc, out = run_cli(["quiver", "--n", "2", "--out", str(out_file)], capsys)
    assert rc == 0 and "export" not in json.loads(out)
    _, embedded = run_cli(["quiver", "--n", "2"], capsys)
    assert out_file.read_text() == json.dumps(json.loads(embedded)["export"], indent=2) + "\n"


def test_json_pieces_splice_quiver_exports_at_their_depth():
    q = cells.quotient_quiver(2)
    value = {"a": [1, {"q": lambda pad: cells.quiver_json(q, "U", pad)}], "b": lambda pad: cells.quiver_json(q, "V", pad)}
    expected = {"a": [1, {"q": cells.quiver_to_dict(q, "U")}], "b": cells.quiver_to_dict(q, "V")}
    assert "".join(cli._json_pieces(value)) == json.dumps(expected, indent=2) + "\n"
    with pytest.raises(TypeError, match="not JSON serializable"):
        cli._json_pieces({"x": object()})


@pytest.mark.parametrize("extra", [[], ["--out", "quiver.json"]])
def test_quiver_export_raises_before_writing(extra, tmp_path, monkeypatch, capsys):
    """A compose rule that raises ValueError stops the export before any byte is written."""
    def broken(n):
        q = cells.tabulate_quiver(n, cells.hom_labels)
        q.hom_bases[(-1, -1)] = np.zeros((1, n + 1), dtype=np.int64)  # a unit that does not compose
        return q

    monkeypatch.setattr(cells, "quotient_quiver", broken)
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ValueError, match="^morphisms must share a dimension$"):
        cli.main(["quiver", "--n", "1", *extra])
    assert capsys.readouterr().out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("extra", [[], ["--out", "quiver.json"]])
@pytest.mark.parametrize(
    "wide_unit, rule, match",
    [
        (True, cells.compose_block, r"^morphisms must share a dimension$"),
        (False, lambda gs, fs: cells.compose_block(gs, fs) + 1, r"^block \(-3, -3, -3\): composites outside hom\(-3, -3\)"),
    ],
    ids=["unit_that_does_not_compose", "composites_outside_their_hom_space"],
)
def test_quiver_export_raises_in_the_second_export_before_writing(extra, wide_unit, rule, match, tmp_path, monkeypatch, capsys):
    """The line-bundle export, which comes after the cell export, raising still stops the run before any byte is written."""
    line_bundle_quiver = bundles.line_bundle_quiver

    def broken(n):
        q = line_bundle_quiver(n)
        if wide_unit:
            q.hom_bases[(-1, -1)] = np.zeros((1, n + 2), dtype=np.int64)  # a unit that does not compose
        q.compose = rule
        return q

    monkeypatch.setattr(bundles, "line_bundle_quiver", broken)
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ValueError, match=match):
        cli.main(["quiver", "--n", "2", *extra])
    assert capsys.readouterr().out == ""
    assert list(tmp_path.iterdir()) == []


def test_quiver_stdout_and_out_file_hold_the_same_export(tmp_path, capsys):
    """At n = 4, where blocks span several export pieces, both sinks write the same export."""
    _, embedded = run_cli(["quiver", "--n", "4"], capsys)
    out_file = tmp_path / "quiver.json"
    rc, out = run_cli(["quiver", "--n", "4", "--out", str(out_file)], capsys)
    assert rc == 0 and json.loads(out)["export_path"] == str(out_file)
    assert json.loads(out_file.read_text()) == json.loads(embedded)["export"]


class _CountingStream:
    """A stdout that keeps only the number of characters written to it."""

    def __init__(self) -> None:
        self.chars = 0

    def write(self, text: str) -> int:
        self.chars += len(text)
        return len(text)

    def flush(self) -> None:
        pass


@pytest.mark.parametrize("to_file", [False, True])
def test_quiver_export_memory_stays_below_its_size(to_file, tmp_path, monkeypatch):
    """`quiver --n 5` allocates at its peak less than a quarter of the bytes it writes, to stdout or to --out.

    The export is written piece by piece, so the text of the compositions is
    never held whole; the file is about 6 MB.
    """
    stdout = _CountingStream()
    monkeypatch.setattr(sys, "stdout", stdout)
    out_file = tmp_path / "quiver.json"
    tracemalloc.start()
    try:
        rc = cli.main(["quiver", "--n", "5", *(["--out", str(out_file)] if to_file else [])])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    written = out_file.stat().st_size if to_file else stdout.chars
    assert written > 5_000_000
    assert peak < written / 4


# The one-element morphism forms that tests keep as references; no module of the package has them.
MOVED_TO_TESTS = ("HomElement", "hom_basis", "compose", "Monomial", "monomial_hom_basis", "monomial_compose", "to_monomial")


def test_package_root_holds_only_its_modules():
    """Every public attribute of `tdual` is one of its modules, so each definition has one name.

    The CLI works on label arrays alone: no module of the package defines or
    imports a one-element morphism form, so none can be built on its path.
    """
    public = {name: value for name, value in vars(tdual).items() if not name.startswith("_")}
    assert public and all(isinstance(value, types.ModuleType) and value.__name__ == f"tdual.{name}" for name, value in public.items())
    assert not hasattr(tdual, "__all__")
    modules = [importlib.import_module(f"tdual.{info.name}") for info in pkgutil.iter_modules(tdual.__path__)]
    assert {module.__name__ for module in modules} >= {"tdual.cells", "tdual.bundles", "tdual.cli"}
    assert [(module.__name__, name) for module in [tdual, *modules] for name in MOVED_TO_TESTS if hasattr(module, name)] == []


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_no_command_imports_numpy_random(command):
    """A run loads no numpy.random module (its C extensions and OpenSSL): every sample comes from geometry.uniform_draws.

    Nor does it load argparse, or the gettext and locale modules that argparse
    pulls in: `cli.parse_argv` reads the command line from the CLI's own tables.
    """
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys\n"
        "from tdual import cli\n"
        "rc = cli.main(sys.argv[1:])\n"
        "print(rc, sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'random'] or m in ('argparse', 'gettext', 'locale')), file=sys.stderr)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, command, "--n", "1"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=120,
    )
    assert proc.stderr.splitlines()[-1] == "0 []"


def test_largest_n_follows_from_the_arithmetic():
    """geometry.MAX_N keeps (2 pi)^n * 2^38 finite; branes.MAX_N keeps GRAPH_MARGIN below 1/(n+1)."""
    assert (geometry.MAX_N, branes.MAX_N) == (371, 18)
    assert math.isfinite((2 * math.pi) ** geometry.MAX_N * 2.0**38)
    assert math.isinf((2 * math.pi) ** (geometry.MAX_N + 1) * 2.0**38)
    assert branes.GRAPH_MARGIN < 1 / (branes.MAX_N + 1)
    assert not branes.GRAPH_MARGIN < 1 / (branes.MAX_N + 2)


@pytest.mark.parametrize(
    "argv",
    [
        ["geometry", "--n", "372"],
        ["geometry", "--n", "1000"],
        ["branes", "--n", "19"],
        ["branes", "--n", "400", "--grid", "1"],
        ["oracle", "--n", "3"],
        ["geometry", "--n", "0"],
    ],
)
def test_usage_error_past_the_largest_n(argv, capsys):
    """An --n past the command's largest n, or below 1, is refused with that range and its reason."""
    with pytest.raises(SystemExit) as err:
        cli.main(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.startswith(f"usage: tdual {argv[0]} ")
    limit = {"geometry": geometry.MAX_N, "branes": branes.MAX_N, "oracle": 2}[argv[0]]
    assert captured.err.splitlines()[-1].startswith(f"tdual {argv[0]}: error: argument --n: must be an integer from 1 to {limit} (")


def test_geometry_runs_at_its_largest_n(capsys):
    """At geometry.MAX_N every check reports a finite deviation; the round trip fails on its empty grid."""
    def refuse(token):
        raise ValueError(f"non-finite JSON number {token}")

    rc = cli.main(["geometry", "--n", str(geometry.MAX_N)])
    captured = capsys.readouterr()
    assert rc == 1 and captured.err == ""
    body = json.loads(captured.out, parse_constant=refuse)
    assert "geometry.moment_round_trip" in [c["check"] for c in body["checks"] if not c["pass"]]


def test_branes_accepts_its_largest_n(monkeypatch, capsys):
    """The sweep itself would take hours at branes.MAX_N; only the guard is run here."""
    monkeypatch.setattr(cli, "run_branes", lambda cfg: cli._fields([]))
    assert cli.main(["branes", "--n", str(branes.MAX_N)]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "argv",
    [[command, "--n", "1", "--format", "dot"] for command in ("geometry", "branes", "verify", "oracle")]
    + [["quiver", "--n", "1", "--format", "text"]],
)
def test_usage_error_on_a_format_the_command_lacks(argv, capsys):
    """Only quiver exports DOT, and only the check commands print text."""
    with pytest.raises(SystemExit) as err:
        cli.main(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1].startswith(f"tdual {argv[0]}: error: argument --format: ")


def test_quiver_rejects_text_format(tmp_path, capsys):
    """The usage error comes before the quiver export would open its --out file."""
    target = tmp_path / "quiver.txt"
    with pytest.raises(SystemExit) as err:
        cli.main(["quiver", "--n", "1", "--format", "text", "--out", str(target)])
    assert err.value.code == 2
    assert not target.exists()


def test_text_format_lines(capsys):
    rc, out = run_cli(["verify", "--n", "1", "--format", "text"], capsys)
    assert rc == 0
    assert "equivalence.quiver: PASS" in out
    assert out.strip().endswith("pass")


def test_report_to_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    rc, out = run_cli(["verify", "--n", "2", "--out", str(target)], capsys)
    assert rc == 0
    assert str(target) in out
    body = json.loads(target.read_text())
    assert body["pass"] is True


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("command", ["verify", "quiver"])
def test_a_failed_write_exits_2_with_one_line(command, capsys):
    """A report (verify) or an export (quiver) that cannot be written is not a failed check."""
    with pytest.raises(SystemExit) as err:
        cli.main([command, "--n", "1", "--out", "/dev/full"])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"tdual {command}: error: cannot write /dev/full: {os.strerror(errno.ENOSPC)}\n"


def test_a_closed_pipe_exits_2_with_one_line():
    """The reader of quiver's export, larger than a pipe buffer, stops after 10 bytes.

    The interpreter's last flush of stdout adds no second message and keeps the status.
    """
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.Popen(
        [sys.executable, "-m", "tdual.cli", "quiver", "--n", "3"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    head = proc.stdout.read(10)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 2
    assert head == b'{\n  "comma'
    assert err == f"tdual quiver: error: cannot write stdout: {os.strerror(errno.EPIPE)}\n"


def test_seed_env_variable(monkeypatch, capsys):
    monkeypatch.setenv("TDUAL_SEED", "7")
    rc, out = run_cli(["geometry", "--n", "1"], capsys)
    assert rc == 0
    body = json.loads(out)
    assert body["parameters"]["seed"] == 7
    assert body["checks"][1]["parameters"]["seed"] == 7


def test_branes_command_structure(capsys):
    rc, out = run_cli(["branes", "--n", "2", "--samples", "500"], capsys)
    assert rc == 0
    body = json.loads(out)
    names = [c["check"] for c in body["checks"]]
    assert names.count("branes.exactness") == 3
    assert names.count("branes.graph") == 3 * 9  # three levels, nine offsets
    assert names.count("branes.separation") == 3


@pytest.mark.parametrize(
    "flags",
    [
        ["--samples", "0"],
        ["--delta-probe", "0.7"],
        ["--fd-step", "0.1"],
        ["--grid", "-1"],
        ["--grid", "0"],
        ["--out", "/nonexistent-tdual-dir/report.json"],
        ["--out", "."],
        ["--out", ""],
        ["--tol", "nan"],
        ["--tol", "-0.5"],
        ["--sym-tol", "-1"],
        ["--sym-tol", "inf"],
        ["--graph-tol", "nan"],
        ["--tol", "-1e-12"],
        ["--fd-step", "-1e-5"],
    ],
)
def test_usage_error_on_out_of_range_flag(flags, capsys):
    command = "geometry" if flags[0] == "--tol" else "branes"  # --tol is read by geometry alone
    with pytest.raises(SystemExit) as err:
        cli.main([command, "--n", "2"] + flags)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1].startswith(f"tdual {command}: error: argument {flags[0]}: ")


@pytest.mark.parametrize("seed", ["abc", "-1"])
def test_usage_error_on_bad_seed(seed, monkeypatch, capsys):
    monkeypatch.setenv("TDUAL_SEED", seed)
    with pytest.raises(SystemExit) as err:
        cli.main(["geometry", "--n", "1"])
    assert err.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1].startswith("tdual geometry: error: TDUAL_SEED")


# The options each command reads besides --n, --format and --out, which every
# command reads, with a value in range for each.
READS = {
    "geometry": {"--tol"},
    "branes": {"--sym-tol", "--fd-step", "--graph-tol", "--grid", "--samples", "--delta-probe"},
    "quiver": set(),
    "verify": set(),
    "oracle": {"--epsilon"},
}
VALUES = {
    "--tol": "1e-12",
    "--sym-tol": "1e-9",
    "--fd-step": "1e-5",
    "--graph-tol": "1e-7",
    "--grid": "5",
    "--samples": "3",
    "--delta-probe": "0.05",
    "--epsilon": "1/9",
}
UNREAD = [(command, flag) for command, reads in READS.items() for flag in VALUES if flag not in reads]


def test_commands_read_23_of_55_command_option_pairs():
    """Each command parser takes --n, --format, --out and the options READS gives it, and no other."""
    values = {**VALUES, "--format": "json", "--out": "report.json"}
    accepted = []
    for command, reads in READS.items():
        cli.parse_argv([command, "--n", "1"])
        accepted.append((command, "--n"))
        for flag in ["--format", "--out", *reads]:
            cli.parse_argv([command, "--n", "1", flag, values[flag]])
            accepted.append((command, flag))
    assert (len(accepted), len(UNREAD)) == (23, 32)


def test_help_of_each_command_lists_only_the_options_it_reads(capsys):
    for command, reads in READS.items():
        with pytest.raises(SystemExit) as err:
            cli.main([command, "-h"])
        assert err.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith(f"usage: tdual {command} ")
        assert {flag for flag in ["--n", "--format", "--out", *VALUES] if f"  {flag} " in out} == {"--n", "--format", "--out", *reads}


@pytest.mark.parametrize("command,flag", UNREAD)
def test_usage_error_on_an_option_the_command_does_not_read(command, flag, capsys):
    """The report could only echo such a value, so it is refused; a valid value does not help."""
    with pytest.raises(SystemExit) as err:
        cli.main([command, "--n", "1", flag, VALUES[flag]])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage: tdual {command} ")
    assert captured.err.splitlines()[-1] == f"tdual {command}: error: unrecognized arguments: {flag} {VALUES[flag]}"


# argv that no other test covers, its exit code and, on exit 2, its last stderr line.
ARGV_CASES = [
    ([], 2, "tdual: error: the following arguments are required: command, options"),
    (["nope"], 2, "tdual: error: argument command: invalid choice: 'nope' (choose from 'geometry', 'branes', 'quiver', 'verify', 'oracle')"),
    (["verify"], 2, "tdual verify: error: the following arguments are required: --n"),
    (["verify", "--format", "json"], 2, "tdual verify: error: the following arguments are required: --n"),
    (["verify", "extra"], 2, "tdual verify: error: the following arguments are required: --n"),
    (["verify", "--n"], 2, "tdual verify: error: argument --n: expected one argument"),
    (["verify", "--n", "--format", "json"], 2, "tdual verify: error: argument --n: expected one argument"),
    (["verify", "--n", "-h"], 2, "tdual verify: error: argument --n: expected one argument"),
    (["verify", "--n", "1", "extra"], 2, "tdual verify: error: unrecognized arguments: extra"),
    (["verify", "--n", "1", "-x"], 2, "tdual verify: error: unrecognized arguments: -x"),
    (["verify", "--n", "1", "--"], 2, "tdual verify: error: unrecognized arguments: --"),
    (["verify", "zz", "--n", "bad"], 2, "tdual verify: error: argument --n: must be a positive integer, got 'bad'"),
    (["verify", "--n", "0", "-h"], 2, "tdual verify: error: argument --n: must be a positive integer, got '0'"),
    (["verify", "--n=", "1"], 2, "tdual verify: error: argument --n: must be a positive integer, got ''"),
    (["verify", "--n", "1", "--format", "dot"], 2, "tdual verify: error: argument --format: invalid choice: 'dot' (choose from 'json', 'text')"),
    (["branes", "--n", "2", "--gri", "5"], 2, "tdual branes: error: unrecognized arguments: --gri 5"),  # flag names are exact
    (["branes", "--n", "2", "--grid=1", "--gr=5"], 2, "tdual branes: error: unrecognized arguments: --gr=5"),
    (["verify", "--n=2", "--n", "1"], 0, None),
    (["verify", "-h", "--n", "0"], 0, None),
    (["verify", "--n", "1", "extra", "-h"], 0, None),
    (["-h"], 0, None),
]


@pytest.mark.parametrize("argv,code,last", ARGV_CASES, ids=[" ".join(argv) or "(none)" for argv, _, _ in ARGV_CASES])
def test_usage_of_each_argv(argv, code, last, capsys):
    """A usage error prints the usage line first and one error line last, and nothing on stdout; -h exits 0."""
    try:
        rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    captured = capsys.readouterr()
    assert rc == code
    if code == 2:
        assert captured.out == "" and "Traceback" not in captured.err
        assert captured.err.startswith("usage: tdual")
        assert captured.err.splitlines()[-1] == last
    elif argv == ["verify", "--n=2", "--n", "1"]:
        assert json.loads(captured.out)["n"] == 1
    else:
        assert captured.out.startswith("usage: tdual") and captured.err == ""


def test_readme_flag_table_matches_the_parser_table():
    """The "read by" column of README's flag table names the commands that take each flag."""
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = [line.split(" | ") for line in readme.splitlines() if line.startswith("| `--")]
    read_by = {row[0].strip("| `"): row[2] for row in rows}
    readers = {flag: ", ".join(f"`{c}`" for c, (*_, reads, _) in cli.COMMANDS.items() if flag in reads) for flag in cli.OPTIONS}
    assert read_by == {**readers, **dict.fromkeys(["--n", "--format", "--out"], "every command")}


# Functions that no command enters, as module.qualified_name; a name also
# covers its methods and nested functions.
UNREACHED_ALLOWED = {
    # Named by the bench's TARGETS (or its point and vector types, or read by
    # a target); they go with ROADMAP item 2.
    "geometry.symplectic_form_eval",
    "geometry.MirrorPoint",
    "geometry.TangentVector",
    "cells.quiver_to_dict",
    "cells.Quiver.compositions",
    "cells.Quiver.composition",
    "oracle.oracle_hom_dim",
    # ROADMAP item 1's per-pair check puts them on the oracle's path.
    "cells.cell_contains",
    "cells.hom_from_cells",
}


def _defined_code(module):
    """(qualified owner, code object) of every function and method defined in the module's file.

    Nested functions count; comprehensions do not.  Dataclass-generated
    dunders are compiled from "<string>", not from the module's file, and
    drop out.
    """
    found = []

    def walk(owner, code):
        if code.co_filename != module.__file__:
            return
        if not code.co_name.startswith("<") or code.co_name == "<lambda>":
            found.append((owner, code))
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                walk(owner, const)

    for obj in vars(module).values():
        obj = getattr(obj, "__wrapped__", obj)  # the function behind a memo cache
        if isinstance(obj, types.FunctionType):
            walk(obj.__qualname__, obj.__code__)
        elif isinstance(obj, type) and obj.__module__ == module.__name__:
            for attr in vars(obj).values():
                attr = attr.fget if isinstance(attr, property) else attr
                attr = attr.__func__ if isinstance(attr, (classmethod, staticmethod)) else attr
                if isinstance(attr, types.FunctionType):
                    walk(attr.__qualname__, attr.__code__)
    return found


def test_every_function_of_the_seven_modules_is_reached(tmp_path, capsys):
    """Code of the package that no command runs must not come back.

    Runs each command at a small n in-process under a profile hook and
    requires every function and method of the seven modules to be entered,
    but for those `UNREACHED_ALLOWED` names.  Each command also runs once
    with every option it reads, so each option's check of its value is
    entered.  The memo caches are cleared first, so a memoised function is
    entered however the tests ran before.
    """
    modules = (geometry, branes, cells, bundles, oracle, cli, report)
    for module in modules:
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
    entered = set()

    def hook(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    runs = [
        ["geometry", "--n", "2"],
        ["branes", "--n", "2"],
        ["verify", "--n", "2"],
        ["quiver", "--n", "2"],
        ["quiver", "--n", "2", "--format", "dot"],
        ["oracle", "--n", "1"],
        ["oracle", "--n", "2"],
    ]
    for command, reads in READS.items():
        options = [token for flag in sorted(reads) for token in (flag, VALUES[flag])]
        fmt = "dot" if command == "quiver" else "text"
        runs.append([command, "--n", "1", *options, "--format", fmt, "--out", str(tmp_path / command)])
    sys.setprofile(hook)
    try:
        codes = [cli.main(argv) for argv in runs]
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    assert codes == [0] * len(runs)
    defined = [
        (f"{module.__name__.split('.')[-1]}.{owner}", code)
        for module in modules
        for owner, code in _defined_code(module)
    ]
    assert len(defined) > 100

    def allowed_as(owner):
        """The name of UNREACHED_ALLOWED that covers `owner`, or None."""
        return next((name for name in UNREACHED_ALLOWED if owner == name or owner.startswith(name + ".")), None)

    unreached = [(owner, code) for owner, code in defined if code not in entered]
    missing = [f"{owner}:{code.co_name}" for owner, code in unreached if allowed_as(owner) is None]
    assert missing == []
    assert {allowed_as(owner) for owner, _ in unreached} - {None} == UNREACHED_ALLOWED  # no stale name
