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

Every run prints a machine-readable JSON report (or writes it to --out); the
report has the fixed shape {command, n, parameters, checks, pass} with no
timestamps, so identical configurations produce byte-identical reports.  The
exit code is 0 when every check passes, 1 when any check fails, and 2 for
usage errors.  Seeded sweeps read the TDUAL_SEED environment variable
(default 0).
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction

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
    fmt: str = "json"
    out: str | None = None
    seed: int = 0

    def parameter_dict(self) -> dict:
        return {
            "n": self.n,
            "tol": self.tol,
            "sym_tol": self.sym_tol,
            "fd_step": self.fd_step,
            "graph_tol": self.graph_tol,
            "grid": self.grid,
            "samples": self.samples,
            "delta_probe": self.delta_probe,
            "epsilon": str(self.epsilon),
            "format": self.fmt,
            "seed": self.seed,
        }


def run_geometry(cfg: RunConfig) -> list[CheckReport]:
    return [
        geometry.check_moment_round_trip(cfg.n, cfg.tol),
        geometry.check_mirror_modulus(cfg.n, cfg.tol, cfg.seed),
        geometry.check_two_form_algebra(cfg.n, cfg.tol, cfg.seed),
        geometry.check_critical_points(cfg.n),
    ]


def run_branes(cfg: RunConfig) -> list[CheckReport]:
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
    return checks + branes.separation_probe(
        cfg.n,
        branes.domain_face_midpoints(cfg.n),
        delta_probe=cfg.delta_probe,
        num_samples=cfg.samples,
        seed=cfg.seed,
    )


def run_verify(cfg: RunConfig) -> list[CheckReport]:
    quiver = cells.quotient_quiver(cfg.n)
    equivalence = bundles.verify_equivalence(cfg.n, quiver)
    exceptional = CheckReport(
        check="quiver.strong_exceptional",
        parameters={"n": cfg.n},
        max_deviation=None,
        passed=cells.is_strong_exceptional(quiver),
    )
    return [equivalence, exceptional]


def run_oracle(cfg: RunConfig) -> tuple[list[CheckReport], list[dict]]:
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
    checks = [
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
    ]
    return checks, detail


def run_quiver(cfg: RunConfig) -> dict:
    cell_quiver = cells.quotient_quiver(cfg.n)
    bundle_quiver = bundles.line_bundle_quiver(cfg.n)
    dims = {f"{i},{j}": d for (i, j), d in cell_quiver.dims().items()}
    if cfg.fmt == "dot":
        export = cells.quiver_to_dot(cell_quiver, "U", "cells") + cells.quiver_to_dot(
            bundle_quiver, "O", "bundles"
        )
    else:
        export = {
            "cells": functools.partial(cells.quiver_json, cell_quiver, "U"),
            "bundles": functools.partial(cells.quiver_json, bundle_quiver, "O"),
        }
    body = {
        "command": "quiver",
        "n": cfg.n,
        "parameters": cfg.parameter_dict(),
        "dims": dims,
        "pass": True,
    }
    if cfg.out:
        pieces = [export] if cfg.fmt == "dot" else _json_pieces(export)
        with open(cfg.out, "w") as fh:
            fh.writelines(pieces)
        body["export_path"] = cfg.out
    else:
        body["export"] = export
    return body


def _json_pieces(value) -> list[str]:
    """The text of `json.dumps(value, indent=2)` and a newline, in pieces.

    A quiver export in `value` is a partial of `cells.quiver_json` that still
    takes its `pad`.  json writes a placeholder string for it, and the
    export's own pieces go in its place at that depth, so no composition
    passes through json's pure-Python indent encoder.  The whole text is
    built before anything is written.
    """
    exports = []

    def placeholder(export) -> str:
        if not callable(export):
            raise TypeError(f"Object of type {type(export).__name__} is not JSON serializable")
        exports.append(export)
        return f"\0{len(exports) - 1}"

    text = json.dumps(value, indent=2, default=placeholder)
    pieces, pos = [], 0
    for number, export in enumerate(exports):
        token = json.dumps(f"\0{number}")
        at = text.index(token, pos)
        line = text[text.rfind("\n", 0, at) + 1 : at]
        pieces += [text[pos:at], *export("\n" + " " * (len(line) - len(line.lstrip(" "))))]
        pos = at + len(token)
    return pieces + [text[pos:] + "\n"]


def _emit(body: dict, cfg: RunConfig) -> None:
    if cfg.command == "quiver" or cfg.fmt == "json":
        pieces = _json_pieces(body)
    else:
        lines = [f"{body['command']} n={body['n']}"]
        for check in body.get("checks", []):
            status = "PASS" if check["pass"] else "FAIL"
            dev = check.get("max_deviation")
            extra = f" max_deviation={dev:.3e}" if isinstance(dev, float) else ""
            lines.append(f"  {check['check']}: {status}{extra}")
        lines.append("pass" if body["pass"] else "fail")
        pieces = ["\n".join(lines) + "\n"]
    if cfg.out and cfg.command != "quiver":
        with open(cfg.out, "w") as fh:
            fh.writelines(pieces)
        print(("pass" if body["pass"] else "fail") + f" -> {cfg.out}")
    else:
        for piece in pieces:  # write, not writelines: a stream wrapper may override write alone
            sys.stdout.write(piece)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tdual",
        description="Checks and exports for the dual torus fibration toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--n", type=int, required=True, help="ambient dimension n >= 1")
    common.add_argument("--tol", type=float, default=RunConfig.tol, help="identity-check tolerance")
    common.add_argument("--sym-tol", type=float, default=RunConfig.sym_tol, help="two-form vanishing tolerance")
    common.add_argument("--fd-step", type=float, default=RunConfig.fd_step, help="finite-difference step")
    common.add_argument("--graph-tol", type=float, default=RunConfig.graph_tol, help="graph-check tolerance")
    common.add_argument("--grid", type=int, default=RunConfig.grid, help="grid density per axis")
    common.add_argument("--samples", type=int, default=RunConfig.samples, help="random samples per probe")
    common.add_argument("--delta-probe", type=float, default=RunConfig.delta_probe, help="probe time horizon")
    common.add_argument("--epsilon", type=str, default=str(RunConfig.epsilon), help="oracle shrink margin (rational)")
    common.add_argument("--format", dest="fmt", choices=("json", "text", "dot"), default=RunConfig.fmt)
    common.add_argument("--out", type=str, default=None, help="write the report/export here")
    for name in ("geometry", "branes", "quiver", "verify", "oracle"):
        sub.add_parser(name, parents=[common])
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
    parser = build_parser()
    args = parser.parse_args(_attach_negative_values(sys.argv[1:] if argv is None else argv))
    if args.n < 1:
        parser.error("--n must be a positive integer")
    try:
        epsilon = Fraction(args.epsilon)
    except (ValueError, ZeroDivisionError):
        parser.error(f"--epsilon must be a rational number, got {args.epsilon!r}")
    if args.command == "oracle":
        if args.n not in (1, 2):
            parser.error("the oracle supports --n 1 and --n 2 only")
        if not 0 < epsilon < oracle.MAX_EPSILON:
            parser.error(f"--epsilon must lie strictly between 0 and {oracle.MAX_EPSILON}")
    if args.command == "geometry" and args.n > geometry.MAX_N:
        parser.error(f"geometry supports --n up to {geometry.MAX_N}; past it the two-form's values, scaled by (2 pi)^n, can overflow a float")
    if args.command == "branes" and args.n > branes.MAX_N:
        parser.error(f"branes supports --n up to {branes.MAX_N}; past it the graph margin {branes.GRAPH_MARGIN} is not below 1/(n+1)")
    formats = ("json", "dot") if args.command == "quiver" else ("json", "text")
    if args.fmt not in formats:
        parser.error(f"--format {args.fmt} is not supported by {args.command}; use {' or '.join(formats)}")
    if args.grid < 1:
        parser.error("--grid must be a positive integer")
    if args.samples < 1:
        parser.error("--samples must be a positive integer")
    for flag, value in (("--tol", args.tol), ("--sym-tol", args.sym_tol), ("--graph-tol", args.graph_tol)):
        if not 0 <= value < math.inf:  # NaN fails both comparisons
            parser.error(f"{flag} must be a finite non-negative number, got {value}")
    if args.out is not None and (
        os.path.isdir(args.out) or not os.path.isdir(os.path.dirname(args.out) or ".")
    ):
        parser.error(f"--out must name a file in an existing directory, got {args.out!r}")
    if not 0 < args.delta_probe < 0.5:
        parser.error("--delta-probe must lie strictly between 0 and 1/2")
    # check_graph needs 2 * fd_step <= (-k) * GRAPH_MARGIN; level -1 is the tightest.
    if not 0 < 2 * args.fd_step <= branes.GRAPH_MARGIN:
        parser.error(f"--fd-step must lie in (0, {branes.GRAPH_MARGIN / 2}]")
    raw_seed = os.environ.get("TDUAL_SEED", "0")
    try:
        seed = int(raw_seed)
    except ValueError:
        seed = -1
    if seed < 0:
        parser.error(f"TDUAL_SEED must be a non-negative integer, got {raw_seed!r}")
    cfg = RunConfig(**{**vars(args), "epsilon": epsilon, "seed": seed})
    if cfg.command == "quiver":
        _emit(run_quiver(cfg), cfg)
        return 0
    detail = None
    if cfg.command == "geometry":
        checks = run_geometry(cfg)
    elif cfg.command == "branes":
        checks = run_branes(cfg)
    elif cfg.command == "verify":
        checks = run_verify(cfg)
    else:
        checks, detail = run_oracle(cfg)
    ok = all(c.passed for c in checks)
    body = {
        "command": cfg.command,
        "n": cfg.n,
        "parameters": cfg.parameter_dict(),
        "checks": [c.to_dict() for c in checks],
        "pass": ok,
    }
    if detail is not None:
        body["detail"] = detail
    _emit(body, cfg)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
