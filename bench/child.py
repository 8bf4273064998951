"""One benchmark invocation: import the tdual CLI, run `main` once, report.

Usage: python3 bench/child.py MODE -- CLI-ARGS...

MODE is `probe` (import the CLI, time the speed kernel and exit), `plain`
(run `tdual.cli.main`) or `trace` (run it with the public functions of every
module wrapped in spans and counters).  The CLI's report goes to stdout
unchanged.  The last line on stderr is `BENCH-CHILD <json>` with monotonic
timestamps (import done, main entered, main left), the exit code, the peak
RSS, the interpreter speed sampled before and during `main` and, when
traced, the spans and counts of this invocation.  The seed reaches the CLI
only through the inherited TDUAL_SEED variable.

Spans are kept in memory and written once, at exit.  Wrapping happens after
the import timestamp and before `main` is entered, so it is counted in
neither set-up nor wall time.
"""
import sys
import time

import tdual.cli  # set-up ends when this import returns

T_IMPORT = time.clock_gettime_ns(time.CLOCK_MONOTONIC)

import functools  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402

MARKER = "BENCH-CHILD "
KERNEL_LOOPS = 4000  # about 0.2 ms of interpreter work
SAMPLE_PERIOD_S = 0.01


def _clock() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def _maxrss_kb() -> int:
    """Peak RSS of this process image in KiB.

    VmHWM, not getrusage: after vfork and exec, Linux folds the parent's
    high-water mark into the child's ru_maxrss, so a large benchmark driver
    would set a floor under every child's figure.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _kernel_ns() -> int:
    """Time a fixed pure-Python loop: the interpreter's speed right now."""
    t0 = _clock()
    x = 0
    for i in range(KERNEL_LOOPS):
        x += i & 7
    return _clock() - t0


class SpeedSampler:
    """Time the kernel every SAMPLE_PERIOD_S while `main` runs (SIGALRM).

    The machine's speed drifts by tens of percent within a minute, and
    differently on each CPU.  Sampling in the same process, on whatever CPU
    it runs on, lets the driver scale `main`'s time to a reference speed.
    """

    def __init__(self) -> None:
        self.before = [_kernel_ns() for _ in range(8)]
        self.during: list[int] = []

    def __enter__(self) -> "SpeedSampler":
        self.stdout = sys.stdout
        sys.stdout = _MaskedStream(sys.stdout)
        signal.signal(signal.SIGALRM, lambda _sig, _frame: self.during.append(_kernel_ns()))
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        sys.stdout = self.stdout

    def record(self) -> dict:
        """Mean kernel time before `main` and overall; kernel time inside `main`."""
        before = self.before[2:]  # the first two also warm the loop up
        samples = before + self.during
        return {
            "kernel_before_ns": sum(before) / len(before),
            "kernel_mean_ns": sum(samples) / len(samples),
            "kernel_in_main_ns": sum(self.during),
        }


class _MaskedStream:
    """A text stream whose writes and flushes hold SIGALRM off.

    On CPython 3.11, a signal that arrives during a large write to a full pipe
    makes sys.stdout drop everything after the first pipe-buffer's worth,
    without an error, even with SA_RESTART.  Blocking the signal for the
    duration of each write keeps the report whole; samples resume afterwards.
    """

    def __init__(self, stream) -> None:
        self._stream = stream

    def _masked(self, method, *args):
        old = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            return method(*args)
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, old)

    def write(self, text):
        return self._masked(self._stream.write, text)

    def flush(self):
        return self._masked(self._stream.flush)

    def __getattr__(self, name):
        return getattr(self._stream, name)


class Tracer:
    """Spans (name, parent index, start, end, exception) and named counts."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.pairs: set = set()

    def add(self, name: str, value: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + int(value)

    def span(self, name, fn, after=None, rss=False):
        """Wrap `fn` in a span; `after(tracer, bound_args, result)` records counts."""
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self.stack[-1] if self.stack else -1
            rec = [name, parent, _clock(), 0, None]
            self.stack.append(len(self.spans))
            self.spans.append(rec)
            rss0 = _maxrss_kb() if rss else 0
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[4] = type(exc).__name__
                raise
            finally:
                rec[3] = _clock()
                self.stack.pop()
            if rss:
                self.add(name + ".rss_kb", _maxrss_kb() - rss0)
            if after is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                after(self, bound.arguments, result)
            return result

        return wrapper

    def counter(self, name, fn, amount=None):
        """Count calls of a hot function (no span); `amount(args)` adds to `name`."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.add(name, 1 if amount is None else amount(args))
            return fn(*args, **kwargs)

        return wrapper


def _region_pair_after(tr, a, result):
    tr.add("oracle.region_pair.calls", 1)
    tr.pairs.add((a["outer"], a["inner"]))


def _rank_entries(args):
    rows = args[0]
    return len(rows) * len(rows[0]) if rows else 0


# (module, function, kind, extra): every public entry point a workload reaches.
TARGETS = [
    ("cli", "main", "span", None),
    ("cli", "run_geometry", "span", None),
    ("cli", "run_branes", "span", None),
    ("cli", "run_verify", "span", None),
    ("cli", "run_quiver", "span", None),
    ("cli", "run_oracle", "span", None),
    ("geometry", "symplectic_form_eval", "counter", ("geometry.symplectic_form_eval.calls", None)),
    ("branes", "check_exactness", "span",
     lambda tr, a, r: tr.add("branes.check_exactness.points", a["density"] ** a["n"])),
    ("branes", "check_graph", "span",
     lambda tr, a, r: tr.add("branes.check_graph.samples", r.parameters["samples"])),
    ("branes", "separation_probe", "span", None),
    ("cells", "quotient_quiver", "span+rss",
     lambda tr, a, r: tr.add("cells.composition_entries", len(r.composition))),
    ("cells", "is_strong_exceptional", "span", None),
    ("cells", "quiver_to_dict", "span", None),
    ("bundles", "line_bundle_quiver", "span", None),
    ("bundles", "verify_equivalence", "span+rss",
     lambda tr, a, r: tr.add("bundles.compositions_checked", r.parameters["compositions_checked"])),
    ("oracle", "hom_dim_detail", "span", None),
    ("oracle", "oracle_hom_dim", "span", None),
    ("oracle", "region_pair", "span", _region_pair_after),
    ("oracle", "shrink_and_triangulate", "span",
     lambda tr, a, r: tr.add("oracle.simplices", len(r.simplices))),
    ("oracle", "relative_cohomology", "span", None),
    ("oracle", "matrix_rank_exact", "counter", ("oracle.rank_entries", _rank_entries)),
]


def install(tracer: Tracer) -> list[str]:
    """Replace each target in every tdual namespace that holds it; return misses."""
    missing = []
    namespaces = [m for name, m in sys.modules.items() if name.split(".")[0] == "tdual"]
    for module, func, kind, extra in TARGETS:
        original = getattr(sys.modules.get("tdual." + module), func, None)
        if original is None:
            missing.append(f"{module}.{func}")
            continue
        if kind == "counter":
            wrapped = tracer.counter(extra[0], original, extra[1])
        else:
            wrapped = tracer.span(f"{module}.{func}", original, extra, rss=kind == "span+rss")
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, attr, wrapped)
    return missing


def main() -> int:
    mode = sys.argv[1]
    argv = sys.argv[sys.argv.index("--") + 1:]
    info = {"t_import": T_IMPORT, "t_main0": None, "t_main1": None, "error": None}
    tracer = None
    if mode == "trace":
        tracer = Tracer()
        info["missing"] = install(tracer)
    code = 0
    sampler = SpeedSampler()
    if mode != "probe":
        main_fn = tdual.cli.main
        with sampler:
            info["t_main0"] = _clock()
            try:
                code = main_fn(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:  # reported as a failed invocation, not re-raised
                code = 1
                info["error"] = f"{type(exc).__name__}: {exc}"
            sys.stdout.flush()
            info["t_main1"] = _clock()
    info.update(sampler.record())
    info["code"] = code
    info["maxrss_kb"] = _maxrss_kb()
    if tracer is not None:
        tracer.add("oracle.region_pair.distinct", len(tracer.pairs))
        info["spans"] = tracer.spans
        info["counts"] = tracer.counts
    sys.stderr.write(MARKER + json.dumps(info) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
