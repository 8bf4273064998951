"""Command-line entry point: run the package's checks and exports.

Subcommands
-----------
geometry   moment-map/fiber round trip, mirror-coordinate modulus identity,
           two-form algebra spot checks, critical points of the potential
branes     exactness of sections against the two-form, potential-gradient
           graph checks (rescaled and literal), short-time separation probes
quiver     build the cell quiver and the line-bundle quiver; export JSON/DOT
verify     exhaustive cell-vs-monomial comparison and strong exceptionality
oracle     exact relative-cohomology dimensions vs the combinatorial count
           (n = 1 or 2), with an epsilon-stability check

`parse_argv` reads argv from `COMMANDS`, each command's largest --n, the
`OPTIONS` it reads besides --n, --format and --out, and its formats; any other
flag is a usage error, and each option checks its own value.  `main` builds every
report in one place: {command, n, parameters} with every option's value,
defaults included, then the fields the command's `run_*` returns (checks and
pass, plus the oracle's detail; quiver's dims, pass and export or
export_path).  There are no timestamps, so identical configurations give
byte-identical reports.  `_emit` prints the report as JSON or text, or writes
it to --out; quiver's --out receives the export, and its report is printed.
The exit code is 0 when every check passes, 1 when any check fails, and 2 for
usage errors (printed under the command's own usage line) and failed writes.
Seeded sweeps read the TDUAL_SEED environment variable (default 0).
"""
from __future__ import annotations

import functools
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Iterable, Iterator

from . import branes, bundles, cells, geometry, oracle
from .report import CheckReport


@dataclass
class RunConfig:
    """Resolved options of a single command-line invocation."""

    command: str
    n: int
    tol: float = 1e-12
    sym_tol: float = 1e-9
    fd_step: float = 1e-5
    graph_tol: float = 1e-7
    grid: int = 20
    samples: int = 10_000
    delta_probe: float = 0.05
    epsilon: Fraction = Fraction(1, 8)
    format: str = "json"
    out: str | None = None
    seed: int = 0

    def parameter_dict(self) -> dict:
        """Every field but command and out, defaults included, in field order."""
        values = {f.name: getattr(self, f.name) for f in fields(self) if f.name not in ("command", "out")}
        values["epsilon"] = str(self.epsilon)
        return values


def _fields(checks: list[CheckReport], **rest) -> dict:
    """The report fields after `parameters`: the checks, whether all passed, then `rest`."""
    return {"checks": [c.to_dict() for c in checks], "pass": all(c.passed for c in checks), **rest}


def run_geometry(cfg: RunConfig) -> dict:
    return _fields([
        geometry.check_moment_round_trip(cfg.n, cfg.tol),
        geometry.check_mirror_modulus(cfg.n, cfg.tol, cfg.seed),
        geometry.check_two_form_algebra(cfg.n, cfg.tol, cfg.seed),
        geometry.check_critical_points(cfg.n),
    ])


def run_branes(cfg: RunConfig) -> dict:
    levels = range(-cfg.n - 1, 0)
    checks = branes.check_exactness(cfg.n, levels, density=cfg.grid, tol=cfg.sym_tol)
    graph_density = {1: 100, 2: 12}.get(cfg.n, 6)
    offsets = cells.offset_window(cfg.n) if cfg.n <= 2 else [(0,) * cfg.n]
    for k in levels:
        for a in offsets:
            checks.append(
                branes.check_graph(
                    cfg.n,
                    k,
                    a,
                    density=graph_density,
                    fd_step=cfg.fd_step,
                    tol=cfg.graph_tol,
                )
            )
    return _fields(checks + branes.separation_probe(
        cfg.n,
        branes.domain_face_midpoints(cfg.n),
        delta_probe=cfg.delta_probe,
        num_samples=cfg.samples,
        seed=cfg.seed,
    ))


def run_verify(cfg: RunConfig) -> dict:
    quiver = cells.quotient_quiver(cfg.n)
    equivalence = bundles.verify_equivalence(cfg.n, quiver)
    exceptional = CheckReport(
        check="quiver.strong_exceptional",
        parameters={"n": cfg.n},
        max_deviation=None,
        passed=cells.is_strong_exceptional(quiver),
    )
    return _fields([equivalence, exceptional])


def run_oracle(cfg: RunConfig) -> dict:
    levels = range(-cfg.n - 1, 0)
    margins = (cfg.epsilon, cfg.epsilon / 2)
    detail = []
    mismatch = None
    unstable = None
    for i in levels:
        for j in levels:
            total = halved = [0] * (cfg.n + 1)
            for offset, pair, (betti, betti_halved) in oracle.cell_pair_profiles(i, j, cfg.n, margins):
                counts = {"X": list(oracle.counts_by_dim(cfg.n, pair.X)),
                          "A": list(oracle.counts_by_dim(cfg.n, pair.A))}
                detail.append({"i": i, "j": j, "b": list(offset), "betti": list(betti), "cells": counts})
                total = [t + b for t, b in zip(total, betti)]
                halved = [t + b for t, b in zip(halved, betti_halved)]
            expected = bundles.euler_pairing(i, j, cfg.n) if i <= j else 0
            if total[0] != expected or any(v != 0 for v in total[1:]):
                mismatch = mismatch or {"i": i, "j": j, "betti": total, "expected": expected}
            if halved != total:
                unstable = unstable or {"i": i, "j": j, "epsilon": str(cfg.epsilon)}
    return _fields([
        CheckReport(
            check="oracle.match",
            parameters={"n": cfg.n, "epsilon": str(cfg.epsilon)},
            max_deviation=None,
            witness=mismatch,
            passed=mismatch is None,
        ),
        CheckReport(
            check="oracle.stability",
            parameters={"n": cfg.n, "epsilon": str(cfg.epsilon), "halved": str(cfg.epsilon / 2)},
            max_deviation=None,
            witness=unstable,
            passed=unstable is None,
        ),
    ], detail=detail)


def run_quiver(cfg: RunConfig) -> dict:
    cell_quiver = cells.quotient_quiver(cfg.n)
    bundle_quiver = bundles.line_bundle_quiver(cfg.n)
    dims = {f"{i},{j}": d for (i, j), d in cell_quiver.dims().items()}
    if cfg.format == "dot":
        export = cells.quiver_to_dot(cell_quiver, "U", "cells") + cells.quiver_to_dot(
            bundle_quiver, "O", "bundles"
        )
    else:
        export = {
            "cells": functools.partial(cells.quiver_json, cell_quiver, "U"),
            "bundles": functools.partial(cells.quiver_json, bundle_quiver, "O"),
        }
    if cfg.out:
        _write(cfg.out, [export] if cfg.format == "dot" else _json_pieces(export))
        return {"dims": dims, "pass": True, "export_path": cfg.out}
    return {"dims": dims, "pass": True, "export": export}


def _json_pieces(value) -> Iterator[str]:
    """The text of `json.dumps(value, indent=2)` and a newline, in pieces.

    A quiver export in `value` is a partial of `cells.quiver_json` that still
    takes its `pad`.  json writes a placeholder string for it, and the
    export's own pieces go in its place at that depth, so no composition
    passes through json's pure-Python indent encoder.  json runs and every
    export is called before this returns, so a TypeError or an export's
    ValueError comes before anything is written; the exports' compositions
    are rendered only as the returned iterator is read.
    """
    exports = []

    def placeholder(export) -> str:
        if not callable(export):
            raise TypeError(f"Object of type {type(export).__name__} is not JSON serializable")
        exports.append(export)
        return f"\0{len(exports) - 1}"

    text = json.dumps(value, indent=2, default=placeholder)
    parts, pos = [], 0
    for number, export in enumerate(exports):
        token = json.dumps(f"\0{number}")
        at = text.index(token, pos)
        line = text[text.rfind("\n", 0, at) + 1 : at]
        parts += [[text[pos:at]], export("\n" + " " * (len(line) - len(line.lstrip(" "))))]
        pos = at + len(token)
    return itertools.chain.from_iterable([*parts, [text[pos:] + "\n"]])


def _write(path: str, pieces: Iterable[str]) -> None:
    try:
        with open(path, "w") as fh:
            fh.writelines(pieces)
    except OSError as exc:  # an error on write or close names no file
        raise OSError(exc.errno, exc.strerror, path) from None


def _emit(body: dict, cfg: RunConfig) -> None:
    """Print the report, or write it to --out; quiver's --out holds its export instead."""
    if cfg.format != "text":
        pieces = _json_pieces(body)
    else:
        lines = [f"{body['command']} n={body['n']}"]
        for check in body["checks"]:
            status = "PASS" if check["pass"] else "FAIL"
            dev = check.get("max_deviation")
            extra = f" max_deviation={dev:.3e}" if isinstance(dev, float) else ""
            lines.append(f"  {check['check']}: {status}{extra}")
        lines.append("pass" if body["pass"] else "fail")
        pieces = ["\n".join(lines) + "\n"]
    if cfg.out and cfg.command != "quiver":
        _write(cfg.out, pieces)
        pieces = [("pass" if body["pass"] else "fail") + f" -> {cfg.out}\n"]
    for piece in pieces:  # write, not writelines: a stream wrapper may override write alone
        sys.stdout.write(piece)
    sys.stdout.flush()  # a closed pipe or a full device fails here, not at the interpreter's exit


def _checked(check: tuple, text: str):
    """The value `text` parses to under check (parse, accept, expected), or None unless `accept` takes it."""
    parse, accept, _ = check
    try:
        value = parse(text)
    except (ValueError, ZeroDivisionError):
        return None
    return value if accept(value) else None


_TOLERANCE = (float, lambda v: 0 <= v < math.inf, "a finite non-negative number")  # NaN fails both comparisons
_COUNT = (int, lambda v: v >= 1, "a positive integer")
_OUT_FILE = (str, lambda p: p != "" and not os.path.isdir(p) and os.path.isdir(os.path.dirname(p) or "."), "a file in an existing directory")
# Each option that some command reads, as (parse, accept, expected value) for `_checked`, and its help.
# The option fills the RunConfig field of its name.
OPTIONS = {
    "--tol": (_TOLERANCE, "identity-check tolerance"),
    "--sym-tol": (_TOLERANCE, "two-form vanishing tolerance"),
    # check_graph needs 2 * fd_step <= (-k) * GRAPH_MARGIN; level -1 is the tightest.
    "--fd-step": ((float, lambda v: 0 < 2 * v <= branes.GRAPH_MARGIN, f"in (0, {branes.GRAPH_MARGIN / 2}]"), "finite-difference step"),
    "--graph-tol": (_TOLERANCE, "graph-check tolerance"),
    "--grid": (_COUNT, "grid density per axis"),
    "--samples": (_COUNT, "random samples per probe"),
    "--delta-probe": ((float, lambda v: 0 < v < 0.5, "in (0, 1/2)"), "probe time horizon"),
    "--epsilon": ((Fraction, lambda v: 0 < v < oracle.MAX_EPSILON, f"a rational number in (0, {oracle.MAX_EPSILON})"), "rational shrink margin of the oracle"),
}
# Each command: its largest --n and why (None: no limit), the OPTIONS it reads, its --format choices.
COMMANDS = {
    "geometry": (geometry.MAX_N, "larger n can overflow the two-form's values, scaled by (2 pi)^n", ("--tol",), ("json", "text")),
    "branes": (
        branes.MAX_N,
        f"for larger n the graph margin {branes.GRAPH_MARGIN} is not below 1/(n+1)",
        ("--sym-tol", "--fd-step", "--graph-tol", "--grid", "--samples", "--delta-probe"),
        ("json", "text"),
    ),
    "quiver": (None, None, (), ("json", "dot")),
    "verify": (None, None, (), ("json", "text")),
    "oracle": (2, "its shrink model clips planar polygons only", ("--epsilon",), ("json", "text")),
}


def parse_argv(argv: list[str]) -> RunConfig:
    """The RunConfig of a command line; -h prints the command's flags and exits 0, a usage error exits 2.

    The first token names the command.  Each flag is exact and takes one value,
    `--flag value` or `--flag=value`, which may be negative but cannot start
    with "--" or be -h; the last one wins.  A usage error names the first bad
    value in argv order, else a missing --n, else every token no flag read,
    else a bad TDUAL_SEED.
    """
    name = argv[0] if argv else None
    if name not in COMMANDS:
        usage = f"usage: tdual [-h] {{{','.join(COMMANDS)}}} ..."
        if name in ("-h", "--help"):
            sys.stdout.write(f"{usage}\n\nChecks and exports for the dual torus fibration toolkit; tdual COMMAND -h lists the flags of COMMAND.\n")
            raise SystemExit(0)
        sys.stderr.write(f"{usage}\ntdual: error: " + (f"argument command: invalid choice: {name!r} (choose from {str(tuple(COMMANDS))[1:-1]})" if argv else "the following arguments are required: command, options") + "\n")
        raise SystemExit(2)
    largest, why, reads, formats = COMMANDS[name]
    n_check = _COUNT if largest is None else (int, lambda v: 1 <= v <= largest, f"an integer from 1 to {largest} ({why})")
    flags = {  # flag: (check, metavar, help); --format names its choices instead of an expected value
        "--n": (n_check, "N", f"ambient dimension, {n_check[2]}"),
        **{flag: (OPTIONS[flag][0], flag[2:].upper().replace("-", "_"), f"{OPTIONS[flag][1]} (default {getattr(RunConfig, flag[2:].replace('-', '_'))})") for flag in reads},
        "--format": ((str, formats.__contains__, None), "{" + ",".join(formats) + "}", f"report format (default {RunConfig.format})"),
        "--out": (_OUT_FILE, "OUT", "write the report/export here"),
    }
    usage = f"usage: tdual {name} [-h] " + " ".join(f"{flag} {meta}" if flag == "--n" else f"[{flag} {meta}]" for flag, (_, meta, _) in flags.items())
    values, unread, error = {}, [], None
    tokens = iter(argv[1:])
    for token in tokens:
        if token in ("-h", "--help"):
            sys.stdout.write(f"{usage}\n\noptions:\n  -h, --help  show this help message and exit\n" + "".join(f"  {flag} {meta}  {text}\n" for flag, (_, meta, text) in flags.items()))
            raise SystemExit(0)
        flag, joined, text = token.partition("=")
        if flag not in flags:
            unread.append(token)
            continue
        if not joined:
            text = next(tokens, "--")  # the end of argv reads as a flag
            if text.startswith("--") or text == "-h":
                error = f"argument {flag}: expected one argument"
                break
        check = flags[flag][0]
        value = _checked(check, text)
        if value is None:
            error = f"argument {flag}: " + (f"invalid choice: {text!r} (choose from {str(formats)[1:-1]})" if flag == "--format" else f"must be {check[2]}, got {text!r}")
            break
        values[flag[2:].replace("-", "_")] = value
    seed_text = os.environ.get("TDUAL_SEED", "0")
    seed = _checked((int, lambda v: v >= 0, "a non-negative integer"), seed_text)
    error = error or ("the following arguments are required: --n" if "n" not in values else "unrecognized arguments: " + " ".join(unread) if unread
                      else f"TDUAL_SEED must be a non-negative integer, got {seed_text!r}" if seed is None else None)
    if error:
        sys.stderr.write(f"{usage}\ntdual {name}: error: {error}\n")
        raise SystemExit(2)
    return RunConfig(name, **values, seed=seed)


def main(argv: list[str] | None = None) -> int:
    cfg = parse_argv(sys.argv[1:] if argv is None else argv)
    # Looked up at each call, so a run_* replaced on the module is the one run.
    runner = {"geometry": run_geometry, "branes": run_branes, "quiver": run_quiver, "verify": run_verify, "oracle": run_oracle}
    try:
        body = {"command": cfg.command, "n": cfg.n, "parameters": cfg.parameter_dict(), **runner[cfg.command](cfg)}
        _emit(body, cfg)
    except OSError as exc:  # a report or export that cannot be written is not a failed check
        if exc.filename is None:  # stdout: point it at /dev/null, so the interpreter's last flush stays quiet
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.stderr.write(f"tdual {cfg.command}: error: cannot write {exc.filename or 'stdout'}: {exc.strerror}\n")
        raise SystemExit(2)
    return 0 if body["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
