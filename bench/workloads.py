"""Workloads of the tdual benchmark and the map from layer to end-to-end metric.

A workload is a fixed list of CLI invocations; each one runs in a fresh
interpreter, because users start one process per run.  The sizes are the
largest the seed code handles in seconds, so that later speed-ups of one
layer show in `wall_s` rather than vanishing under interpreter start-up.
LAYER_METRICS records, for every per-layer metric, which end-to-end metric
it should move and on which workload.
"""
from __future__ import annotations

# Each workload is the list of CLI argument vectors of one repetition.  Why
# each was chosen (one line each is in BENCHMARK.json):
#   branes-sweep   floating-point work in per-point Python loops; at the seed
#                  check_exactness is about 95% of it, and check_graph plus the
#                  geometry checks take over once exactness is vectorised.
#                  cells, bundles and oracle do no work here, so quiver and
#                  oracle changes should not move it.
#   quiver-verify  the composition table of n = 6 (54,264 entries), built and
#                  checked in cells and bundles with one dataclass per entry.
#                  n = 7 (346,104 entries, 14 s) would fit only two
#                  repetitions in a run, too few for a steady median on a
#                  machine whose speed drifts; n = 6 fits about fifteen.
#   quiver-export  the same cells/bundles tables written out as 7.3 MB of JSON
#                  instead of checked, so an array-based quiver that speeds up
#                  verify but slows export or grows memory shows here.
#   oracle-exact   exact Fraction arithmetic with no numpy and no quiver;
#                  region_pair takes about 97% and runs twice per pair.
WORKLOADS: dict[str, list[list[str]]] = {
    "branes-sweep": [
        ["branes", "--n", "4", "--grid", "10"],
        ["branes", "--n", "2"],
        ["geometry", "--n", "4"],
    ],
    "quiver-verify": [["verify", "--n", "6"]],
    "quiver-export": [["quiver", "--n", "5"]],
    "oracle-exact": [["oracle", "--n", "2"]],
}

# (metric, unit, better, source, end-to-end metrics it should move, workloads).
# Sources: ("total", span) is inclusive span time, ("self", span) span time
# minus time in child spans, ("count", name) and ("rss", name) are counts the
# child records at the span boundary, ("ratio", a, b) is count a / count b.
LAYER_METRICS = [
    ("geometry.symplectic_form_eval.calls", "count", "lower",
     ("count", "geometry.symplectic_form_eval.calls"), "norm_wall_s", "branes-sweep"),
    ("geometry.run_geometry.s", "s", "lower",
     ("total", "cli.run_geometry"), "norm_wall_s", "branes-sweep"),
    ("branes.check_exactness.s", "s", "lower",
     ("total", "branes.check_exactness"), "norm_wall_s", "branes-sweep"),
    ("branes.check_exactness.points", "count", "lower",
     ("count", "branes.check_exactness.points"), "norm_wall_s", "branes-sweep"),
    ("branes.check_graph.s", "s", "lower",
     ("total", "branes.check_graph"), "norm_wall_s", "branes-sweep"),
    ("branes.check_graph.samples", "count", "lower",
     ("count", "branes.check_graph.samples"), "norm_wall_s", "branes-sweep"),
    ("branes.separation_probe.s", "s", "lower",
     ("total", "branes.separation_probe"), "norm_wall_s", "branes-sweep"),
    ("cells.quotient_quiver.s", "s", "lower",
     ("total", "cells.quotient_quiver"), "norm_wall_s, peak_rss_mb", "quiver-verify, quiver-export"),
    ("cells.quotient_quiver.rss_mb", "MB", "lower",
     ("rss", "cells.quotient_quiver.rss_kb"), "norm_wall_s, peak_rss_mb", "quiver-verify, quiver-export"),
    ("cells.composition_entries", "count", "lower",
     ("count", "cells.composition_entries"), "norm_wall_s, peak_rss_mb", "quiver-verify, quiver-export"),
    ("bundles.verify_equivalence.s", "s", "lower",
     ("total", "bundles.verify_equivalence"), "norm_wall_s, peak_rss_mb", "quiver-verify"),
    ("bundles.verify_equivalence.rss_mb", "MB", "lower",
     ("rss", "bundles.verify_equivalence.rss_kb"), "norm_wall_s, peak_rss_mb", "quiver-verify"),
    ("bundles.compositions_checked", "count", "higher",
     ("count", "bundles.compositions_checked"), "norm_wall_s, peak_rss_mb", "quiver-verify"),
    ("cells.is_strong_exceptional.s", "s", "lower",
     ("total", "cells.is_strong_exceptional"), "norm_wall_s, peak_rss_mb", "quiver-verify"),
    ("bundles.line_bundle_quiver.s", "s", "lower",
     ("total", "bundles.line_bundle_quiver"), "norm_wall_s, peak_rss_mb", "quiver-export"),
    ("cells.quiver_to_dict.s", "s", "lower",
     ("total", "cells.quiver_to_dict"), "norm_wall_s, peak_rss_mb", "quiver-export"),
    ("cli.self_s", "s", "lower",
     ("self", "cli.main"), "norm_wall_s, peak_rss_mb", "quiver-export"),
    ("cli.report_bytes", "bytes", "lower",
     ("count", "cli.report_bytes"), "norm_wall_s, peak_rss_mb", "quiver-export"),
    ("oracle.region_pair.s", "s", "lower",
     ("total", "oracle.region_pair"), "norm_wall_s", "oracle-exact"),
    ("oracle.region_pair.calls", "count", "lower",
     ("count", "oracle.region_pair.calls"), "norm_wall_s", "oracle-exact"),
    ("oracle.region_pair.useful_ratio", "ratio", "higher",
     ("ratio", "oracle.region_pair.distinct", "oracle.region_pair.calls"), "norm_wall_s", "oracle-exact"),
    ("oracle.oracle_hom_dim.s", "s", "lower",
     ("total", "oracle.oracle_hom_dim"), "norm_wall_s", "oracle-exact"),
    ("oracle.shrink_and_triangulate.s", "s", "lower",
     ("total", "oracle.shrink_and_triangulate"), "norm_wall_s", "oracle-exact"),
    ("oracle.simplices", "count", "lower",
     ("count", "oracle.simplices"), "norm_wall_s", "oracle-exact"),
    ("oracle.relative_cohomology.s", "s", "lower",
     ("total", "oracle.relative_cohomology"), "norm_wall_s", "oracle-exact"),
    ("oracle.rank_entries", "count", "lower",
     ("count", "oracle.rank_entries"), "norm_wall_s", "oracle-exact"),
]

# Work counts that must repeat exactly: a run doing less work is flagged.
EXACT_COUNTS = [
    "bundles.compositions_checked",
    "branes.check_exactness.points",
    "branes.check_graph.samples",
    "oracle.simplices",
    "oracle.region_pair.calls",
]

OVERHEAD_METRIC = ("trace.overhead_frac", "ratio", "lower")
