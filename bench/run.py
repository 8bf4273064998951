"""Benchmark of the tdual batch verifier, end to end and layer by layer.

Run from the repository root (numpy must be importable; nothing is built):

    python3 bench/run.py --workload branes-sweep --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 1

Load model: this process runs one child at a time in a closed loop.  A
repetition runs the workload's invocations in order (bench/workloads.py),
each in a fresh interpreter (bench/child.py) that receives the seed only as
TDUAL_SEED.  Repetitions go on while the next one is expected to end within
--seconds; a warm-up child that only imports the CLI runs first and is not
counted, and with --trace 0 SETUP_PROBES more such children follow the
repetitions, so `setup_s` has enough samples on every workload.

--trace 0 reports the end-to-end metrics:
  norm_wall_s  time inside tdual.cli.main, summed over a repetition's
               invocations and scaled to a reference interpreter speed;
               median over repetitions (interpreter start excluded).  The
               child times a fixed 0.2 ms loop every 10 ms while `main`
               runs; the time is multiplied by REFERENCE_KERNEL_NS over the
               loop's mean time, after the loop's own time is subtracted.
  setup_s      spawn of a child until `import tdual.cli` returns, scaled to
               the reference speed by the loop timed right after the import;
               median over every child of the run
  peak_rss_mb  peak RSS (VmHWM) of each child, max over a repetition's
               invocations; median over repetitions
The unscaled times are printed as wall_s and raw_setup_s but carry no bound:
this machine's speed drifts by up to a quarter between runs.  Failed
invocations are reported as `failed` of `attempted` (failed_frac), not as a
metric, since the value is 0 whenever the program is correct.

--trace 1 alternates traced and untraced repetitions and reports the
per-layer metrics (bench/workloads.py), the split of the time inside `main`
by span (self time and share), the tracing overhead (traced over untraced
norm_wall_s, minus 1) and the exact work counts, which must repeat.

Every invocation's output is compared with bench/reference.json (floats and
the seed replaced by placeholders; the float-free quiver export by SHA-256).
An invocation fails if it exits non-zero, reports `pass: false` or differs
from the reference.  Each run also checks that the comparison flags a copy of
a real report with one `pass` flipped and one count changed.  The last line
of stdout is one JSON object with the keys correct, attempted, failed and
metrics.  Exit code 2 means the benchmark could not run at all.
"""
from __future__ import annotations

import argparse
import copy
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import EXACT_COUNTS, LAYER_METRICS, OVERHEAD_METRIC, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILD = BENCH / "child.py"
REFERENCE = BENCH / "reference.json"
MARKER = b"BENCH-CHILD "
SETUP_PROBES = 9
REFERENCE_KERNEL_NS = 200_000  # the sampling loop's time at the reference speed
RUN_LIMIT_S = 170.0  # children still running this long after the start are killed
FLOAT, SEED = "<float>", "<seed>"
COUNT_KEYS = ("grid_points", "density", "samples", "compositions_checked", "betti")


@dataclass
class Invocation:
    argv: list[str]
    code: int
    stdout: bytes
    setup_s: float | None = None
    raw_setup_s: float | None = None
    wall_s: float | None = None
    norm_wall_s: float | None = None
    rss_mb: float = 0.0
    info: dict = field(default_factory=dict)
    failure: str | None = None


def spawn(argv: list[str], mode: str, seed: int, deadline: float) -> Invocation:
    """Run one child to completion and collect its record."""
    env = dict(os.environ, TDUAL_SEED=str(seed), PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, str(CHILD), mode, "--", *argv]
    t_spawn = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    err: list[bytes] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    try:
        reader.start()
        timer.start()
        out = proc.stdout.read()
        reader.join()
    except BaseException:
        proc.kill()
        raise
    finally:
        timer.cancel()
        proc.wait()
        proc.stdout.close()
        proc.stderr.close()
    inv = Invocation(argv, proc.returncode, out)
    lines = (err[0] if err else b"").splitlines()
    if not lines or not lines[-1].startswith(MARKER):
        tail = lines[-1].decode(errors="replace") if lines else "no stderr"
        inv.failure = f"child left no record (exit {inv.code}): {tail}"
        return inv
    inv.info = json.loads(lines[-1][len(MARKER):])
    inv.raw_setup_s = (inv.info["t_import"] - t_spawn) / 1e9
    inv.setup_s = inv.raw_setup_s * REFERENCE_KERNEL_NS / inv.info["kernel_before_ns"]
    inv.rss_mb = inv.info["maxrss_kb"] / 1024
    if inv.info["t_main0"] is not None:
        main_ns = inv.info["t_main1"] - inv.info["t_main0"] - inv.info["kernel_in_main_ns"]
        inv.wall_s = main_ns / 1e9
        inv.norm_wall_s = inv.wall_s * REFERENCE_KERNEL_NS / inv.info["kernel_mean_ns"]
    if inv.info.get("error"):
        inv.failure = inv.info["error"]
    return inv


# --- correctness -------------------------------------------------------------

def normalize(value, seed: int):
    """Replace every float by FLOAT and every `seed` field equal to `seed` by SEED."""
    if isinstance(value, dict):
        return {
            k: SEED if k == "seed" and type(v) is int and v == seed else normalize(v, seed)
            for k, v in value.items()
        }
    if isinstance(value, list):
        return [normalize(v, seed) for v in value]
    return FLOAT if isinstance(value, float) else value


def export_digest(stdout: bytes, seed: int) -> str:
    return hashlib.sha256(
        re.sub(rb'"seed": %d(?!\d)' % seed, b'"seed": "<seed>"', stdout)
    ).hexdigest()


def output_failure(inv: Invocation, seed: int, reference: dict) -> str | None:
    """Why this invocation's output is wrong, or None when it matches the reference."""
    if inv.failure:
        return inv.failure
    if inv.code != 0:
        return f"exit code {inv.code}"
    ref = reference["invocations"][" ".join(inv.argv)]
    if "sha256" in ref:
        if export_digest(inv.stdout, seed) != ref["sha256"]:
            return "export differs from the reference SHA-256"
        return None
    try:
        report = json.loads(inv.stdout)
    except ValueError:
        return "report is not JSON"
    if report.get("pass") is not True:
        return "report has pass: false"
    if normalize(report, seed) != ref["report"]:
        return "report differs from the reference"
    return None


def _bump_first_count(value) -> bool:
    """Change the first count (COUNT_KEYS) found depth-first; False if none."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, v in items:
        if key in COUNT_KEYS and isinstance(v, int) and not isinstance(v, bool):
            value[key] = v + 1
            return True
        if key in COUNT_KEYS and isinstance(v, list) and v and type(v[0]) is int:
            v[0] += 1
            return True
        if isinstance(v, (dict, list)) and _bump_first_count(v):
            return True
    return False


def tampering_missed(inv: Invocation, seed: int, reference: dict) -> tuple[int, list[str]]:
    """Alter a correct output by hand; return how many ways, and those let through."""
    if "sha256" in reference["invocations"][" ".join(inv.argv)]:
        altered = {
            "pass flipped": inv.stdout.replace(b'"pass": true', b'"pass": false', 1),
            "count changed": re.sub(
                rb'"n": (\d+)', lambda m: b'"n": %d' % (int(m[1]) + 1), inv.stdout, count=1
            ),
        }
    else:
        report = json.loads(inv.stdout)
        flipped = copy.deepcopy(report)
        flipped["checks"][0]["pass"] = not flipped["checks"][0]["pass"]
        altered = {"pass flipped": json.dumps(flipped).encode()}
        bumped = copy.deepcopy(report)
        if _bump_first_count(bumped):
            altered["count changed"] = json.dumps(bumped).encode()
    missed = []
    for what, stdout in altered.items():
        fake = Invocation(inv.argv, 0, stdout)
        if output_failure(fake, seed, reference) is None:
            missed.append(f"{' '.join(inv.argv)}: {what}")
    return len(altered), missed


# --- traced repetitions ------------------------------------------------------

def layer_totals(invs: list[Invocation]) -> tuple[dict, dict, dict, dict]:
    """Per span name: inclusive seconds, self seconds, calls; plus summed counts."""
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, int] = {"cli.report_bytes": 0}
    for inv in invs:
        spans = inv.info.get("spans", [])
        child_time = [0] * len(spans)
        for name, parent, start, end, _exc in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for (name, _parent, start, end, _exc), inner in zip(spans, child_time):
            total[name] = total.get(name, 0.0) + (end - start) / 1e9
            self_s[name] = self_s.get(name, 0.0) + (end - start - inner) / 1e9
            calls[name] = calls.get(name, 0) + 1
        for name, v in inv.info.get("counts", {}).items():
            counts[name] = counts.get(name, 0) + v
        counts["cli.report_bytes"] += len(inv.stdout)
    return total, self_s, calls, counts


def layer_value(source: tuple, total: dict, self_s: dict, counts: dict) -> float:
    kind = source[0]
    if kind == "total":
        return total.get(source[1], 0.0)
    if kind == "self":
        return self_s.get(source[1], 0.0)
    if kind == "rss":
        return counts.get(source[1], 0) / 1024
    if kind == "ratio":
        den = counts.get(source[2], 0)
        return counts.get(source[1], 0) / den if den else 0.0
    return counts.get(source[1], 0)


# --- one workload ------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: int, trace: bool, reference: dict) -> dict:
    invocations = WORKLOADS[name]
    t0 = time.monotonic()
    deadline = t0 + RUN_LIMIT_S
    spawn([], "probe", seed, deadline)  # warm bytecode and file caches; not counted
    start = time.monotonic()
    reps: list[tuple[str, list[Invocation]]] = []
    longest = 0.0
    while True:
        mode = "trace" if trace and len(reps) % 2 == 0 else "plain"
        rep_start = time.monotonic()
        reps.append((mode, [spawn(argv, mode, seed, deadline) for argv in invocations]))
        longest = max(longest, time.monotonic() - rep_start)
        modes = {m for m, _ in reps}
        complete = not trace or modes == {"trace", "plain"}
        if time.monotonic() >= deadline:
            break
        if complete and time.monotonic() - start + longest > seconds:
            break
    probes = [] if trace else [spawn([], "probe", seed, deadline) for _ in range(SETUP_PROBES)]

    all_invs = [inv for _, invs in reps for inv in invs]
    failures = []
    for inv in all_invs:
        why = output_failure(inv, seed, reference)
        if why:
            failures.append(f"{' '.join(inv.argv)}: {why}")
    first_ok = [inv for inv in reps[0][1] if output_failure(inv, seed, reference) is None]
    altered, missed = 0, []
    for inv in first_ok:
        tried, let_through = tampering_missed(inv, seed, reference)
        altered += tried
        missed += let_through
    problems = [f"the reference check let through: {m}" for m in missed]
    if any(p.failure for p in probes):
        problems.append("a set-up probe failed")

    def rep_wall(invs, key="norm_wall_s"):
        return sum(getattr(inv, key) or 0.0 for inv in invs)

    plain = [invs for m, invs in reps if m == "plain"]
    result = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "repetitions": len(reps),
        "attempted": len(all_invs),
        "failed": len(failures),
        "failures": failures,
        "problems": problems,
        "altered_reports_flagged": altered - len(missed),
        "altered_reports": altered,
        "measured_s": time.monotonic() - t0,
    }
    if not trace:
        children = [inv for inv in all_invs + probes if inv.setup_s is not None]
        result["samples"] = {
            "norm_wall_s": [rep_wall(r) for r in plain],
            "wall_s": [rep_wall(r, "wall_s") for r in plain],
            "setup_s": [inv.setup_s for inv in children],
            "raw_setup_s": [inv.raw_setup_s for inv in children],
        }
        result["unbounded"] = {
            "wall_s": (statistics.median(result["samples"]["wall_s"]), "s", len(plain), "repetitions"),
            "raw_setup_s": (
                statistics.median(result["samples"]["raw_setup_s"]), "s", len(children), "children"
            ),
        }
        result["metrics"] = {
            "norm_wall_s": (
                statistics.median(result["samples"]["norm_wall_s"]), "s", len(plain), "repetitions"
            ),
            "setup_s": (
                statistics.median(result["samples"]["setup_s"]), "s", len(children), "children"
            ),
            "peak_rss_mb": (
                statistics.median(max(inv.rss_mb for inv in r) for r in plain),
                "MB", len(plain), "repetitions",
            ),
        }
        return result

    traced = [layer_totals(invs) for m, invs in reps if m == "trace"]
    traced_walls = [rep_wall(invs) for m, invs in reps if m == "trace"]
    metrics = {}
    for metric, unit, _better, source, _moves, _wls in LAYER_METRICS:
        values = [layer_value(source, total, self_s, counts) for total, self_s, _c, counts in traced]
        middle = statistics.median_low if source[0] == "count" else statistics.median
        metrics[metric] = (middle(values), unit, len(values), "traced repetitions")
    plain_wall = statistics.median(rep_wall(r) for r in plain) if plain else 0.0
    traced_wall = statistics.median(traced_walls)
    metrics[OVERHEAD_METRIC[0]] = (
        traced_wall / plain_wall - 1 if plain_wall else 0.0, OVERHEAD_METRIC[1],
        len(traced_walls) + len(plain), "repetitions",
    )
    result["metrics"] = metrics
    result["traced_norm_wall_s"] = traced_wall
    result["untraced_norm_wall_s"] = plain_wall

    counts_seen = [{k: counts.get(k, 0) for k in EXACT_COUNTS} for *_rest, counts in traced]
    result["work_counts"] = counts_seen[0]
    if any(c != counts_seen[0] for c in counts_seen):
        problems.append(f"work counts differ between traced repetitions: {counts_seen}")
    expected = reference["work_counts"][name]
    result["work_counts_match_reference"] = counts_seen[0] == expected

    # Split of the median traced repetition by span; shares are of the time
    # inside `main` (the cli.main spans), sampling loop included.
    mid = sorted(range(len(traced_walls)), key=traced_walls.__getitem__)[len(traced_walls) // 2]
    total, self_s, calls, _counts = traced[mid]
    in_main = total.get("cli.main", 0.0)
    result["split"] = [
        {"span": span, "calls": calls[span], "total_s": total[span], "self_s": self_s[span],
         "self_share": self_s[span] / in_main if in_main else 0.0}
        for span in sorted(self_s, key=self_s.get, reverse=True)
    ]
    result["missing_targets"] = sorted({m for _, invs in reps for inv in invs
                                        for m in inv.info.get("missing", [])})
    result["span_exceptions"] = sum(1 for _, invs in reps for inv in invs
                                    for s in inv.info.get("spans", []) if s[4])
    return result


# --- reporting ---------------------------------------------------------------

def context() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None  # a checkout without .git (or with packed refs only) has none
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        ref_file = ROOT / ".git" / ref.removeprefix("ref: ")
        if not ref.startswith("ref: "):
            commit = ref  # detached HEAD
        elif ref_file.is_file():
            commit = ref_file.read_text().strip()
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    try:
        from importlib.metadata import version
        numpy_version = version("numpy")
    except ImportError:
        numpy_version = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def print_result(result: dict) -> None:
    name = result["workload"]
    print(f"== {name}  seed={result['seed']}  trace={result['trace']}  "
          f"repetitions={result['repetitions']}  measured {result['measured_s']:.1f} s")
    moves = {metric: f"-> {m} on {w}" for metric, _u, _b, _s, m, w in LAYER_METRICS}
    hidden = 0
    for metric, (value, unit, n, what) in result["metrics"].items():
        if metric in moves and name not in moves[metric] and not value:
            hidden += 1
            continue
        print(f"  {metric:38s} {value:16.6f} {unit:6s} (n={n} {what}) {moves.get(metric, '')}")
    for metric, (value, unit, n, what) in result.get("unbounded", {}).items():
        print(f"  {metric:38s} {value:16.6f} {unit:6s} (n={n} {what}) unscaled, no bound")
    if hidden:
        print(f"  ({hidden} more layer metrics are 0: their layers do no work on {name})")
    frac = result["failed"] / result["attempted"]
    print(f"  {'failed_frac':38s} {frac:16.6f} {'ratio':6s} "
          f"({result['failed']} of {result['attempted']} invocations)")
    print(f"  reference check flagged {result['altered_reports_flagged']} of "
          f"{result['altered_reports']} hand-altered reports (pass flipped, count changed)")
    for line in result["failures"] + result["problems"]:
        print(f"  FAILED: {line}")
    if not result["trace"]:
        return
    print(f"  norm_wall_s traced {result['traced_norm_wall_s']:.4f} s, "
          f"untraced {result['untraced_norm_wall_s']:.4f} s")
    print(f"  {'span':32s} {'calls':>7s} {'total_s':>10s} {'self_s':>10s} {'self/main':>9s}")
    for row in result["split"]:
        print(f"  {row['span']:32s} {row['calls']:7d} {row['total_s']:10.4f} "
              f"{row['self_s']:10.4f} {row['self_share']:9.1%}")
    same = "identical to" if result["work_counts_match_reference"] else "DIFFERENT from"
    counts = {k: v for k, v in result["work_counts"].items() if v}
    flag = "" if result["work_counts_match_reference"] else "FLAG: "
    print(f"  {flag}exact work counts {counts or 'all 0'}: {same} bench/reference.json")
    if result["missing_targets"]:
        print(f"  not traced (function missing): {', '.join(result['missing_targets'])}")
    if result["span_exceptions"]:
        print(f"  spans that raised: {result['span_exceptions']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full results as JSON to this file")
    args = parser.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be positive and --seed non-negative")
    if not (ROOT / "src" / "tdual" / "cli.py").is_file():
        print(f"bench: no tdual sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    reference = json.loads(REFERENCE.read_text())
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    ctx = context()
    print("context: " + json.dumps(ctx))
    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace), reference)
        print_result(result)
        results.append(result)
    if args.out:
        Path(args.out).write_text(json.dumps({"context": ctx, "results": results}, indent=2) + "\n")
    single = len(results) == 1
    summary = {
        "correct": all(not r["failed"] and not r["problems"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            (metric if single else f"{r['workload']}.{metric}"): {"value": value, "unit": unit}
            for r in results
            for metric, (value, unit, _n, _what) in r["metrics"].items()
        },
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
