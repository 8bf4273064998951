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

`COMMANDS` gives each command's largest --n, the options it reads besides
--n, --format and --out, and its formats; any other option is a usage error,
and each option checks its own value as it is parsed.  `main` builds every
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

import argparse
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


def _checked(parse, accept, expected: str):
    """An argparse `type=` that parses a value and refuses it unless `accept(value)`."""
    def convert(text: str):
        try:
            value = parse(text)
        except (ValueError, ZeroDivisionError):
            value = None
        if value is None or not accept(value):
            raise argparse.ArgumentTypeError(f"must be {expected}, got {text!r}")
        return value

    return convert


def _at_most(top: int, why: str) -> tuple:
    return (int, lambda v: 1 <= v <= top, f"an integer from 1 to {top} ({why})")


_TOLERANCE = (float, lambda v: 0 <= v < math.inf, "a finite non-negative number")  # NaN fails both comparisons
_COUNT = (int, lambda v: v >= 1, "a positive integer")
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


def build_parser(name: str) -> argparse.ArgumentParser:
    """The parser of command `name`; an option not given takes RunConfig's default."""
    largest, why, reads, formats = COMMANDS[name]
    parser = argparse.ArgumentParser(prog=f"tdual {name}", argument_default=argparse.SUPPRESS)
    n_check = _COUNT if largest is None else _at_most(largest, why)
    parser.add_argument("--n", type=_checked(*n_check), required=True, help=f"ambient dimension, {n_check[2]}")
    for flag in reads:
        check, help_text = OPTIONS[flag]
        default = getattr(RunConfig, flag[2:].replace("-", "_"))
        parser.add_argument(flag, type=_checked(*check), help=f"{help_text} (default {default})")
    parser.add_argument("--format", choices=formats, help=f"report format (default {RunConfig.format})")
    out_file = (str, lambda p: p != "" and not os.path.isdir(p) and os.path.isdir(os.path.dirname(p) or "."), "a file in an existing directory")
    parser.add_argument("--out", type=_checked(*out_file), help="write the report/export here")
    return parser


def _is_negative_number(token: str) -> bool:
    try:
        (Fraction if "/" in token else float)(token)
    except (ValueError, ZeroDivisionError):
        return False
    return token.startswith("-")


def _attach_negative_values(argv: list[str]) -> list[str]:
    """Join `--flag -1e-5` into `--flag=-1e-5`.

    argparse reads only -N and -N.N as negative numbers.  It takes -1e-5, -inf
    or -1/8 for an option, so the flag before it would fail with "expected
    one argument" instead of reaching the range checks.  Every long option
    but --help takes a value.
    """
    out: list[str] = []
    for token in argv:
        prev = out[-1] if out else ""
        if prev.startswith("--") and prev not in ("--", "--help") and "=" not in prev and _is_negative_number(token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv: list[str] | None = None) -> int:
    top = argparse.ArgumentParser(prog="tdual", description="Checks and exports for the dual torus fibration toolkit.")
    top.add_argument("command", choices=COMMANDS, help="the check or export to run")
    top.add_argument("options", nargs=argparse.REMAINDER, help="--n N and the options the command reads (tdual COMMAND -h)")
    run = top.parse_args(_attach_negative_values(sys.argv[1:] if argv is None else argv))
    parser = build_parser(run.command)  # only this command's parser is built, and it reports every usage error
    args = parser.parse_args(run.options)
    try:
        seed = _checked(int, lambda v: v >= 0, "a non-negative integer")(os.environ.get("TDUAL_SEED", "0"))
    except argparse.ArgumentTypeError as exc:
        parser.error(f"TDUAL_SEED {exc}")
    cfg = RunConfig(run.command, **vars(args), seed=seed)
    # Looked up at each call, so a run_* replaced on the module is the one run.
    runner = {"geometry": run_geometry, "branes": run_branes, "quiver": run_quiver, "verify": run_verify, "oracle": run_oracle}
    try:
        body = {"command": cfg.command, "n": cfg.n, "parameters": cfg.parameter_dict(), **runner[cfg.command](cfg)}
        _emit(body, cfg)
    except OSError as exc:  # a report or export that cannot be written is not a failed check
        if exc.filename is None:  # stdout: point it at /dev/null, so the interpreter's last flush stays quiet
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        parser.exit(2, f"{parser.prog}: error: cannot write {exc.filename or 'stdout'}: {exc.strerror}\n")
    return 0 if body["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
