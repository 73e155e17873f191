"""Per-layer metrics from the spans of a traced replay.

A span's ``<module>.<function>.s`` is the wall time of its calls, not
counting calls nested in a call of the same function.  A module's
``self_s`` is the time spent in its own functions outside any call into
another traced diracdiag function; numpy.linalg calls are kernels under
every module, so their time stays with the caller's self time and is also
reported on its own as ``linalg.*``.  ``linalg.svd`` includes the SVD that
every ``linalg.norm2`` runs.  Time spent recording counts is in
``trace.annotate`` spans and belongs to no layer.  ``trace.overhead_s`` is
the replay's wall time minus the untraced median ``wall_s`` of the same run;
host noise larger than the overhead can make it negative.
"""

from __future__ import annotations

from collections import Counter, defaultdict

PER_LAYER = (
    ("series.series_mul.calls", "count"),
    ("series.series_mul.s", "s"),
    ("series.series_mul.useful_frac", "fraction"),
    ("series.series_inv_sqrt.s", "s"),
    ("series.make_series.calls", "count"),
    ("series.make_series.s", "s"),
    ("series.series_eval.s", "s"),
    ("series.self_s", "s"),
    ("decoupling.build_decoupling_bundle.s", "s"),
    ("decoupling.riesz_projection_series.s", "s"),
    ("decoupling.u_gamma_series.s", "s"),
    ("decoupling.h_diag_series.s", "s"),
    ("decoupling.resolvent_distance.calls", "count"),
    ("decoupling.resolvent_distance.s", "s"),
    ("decoupling.self_s", "s"),
    ("oneparticle.assemble_system.calls", "count"),
    ("oneparticle.assemble_system.s", "s"),
    ("oneparticle.exact_u_gamma.s", "s"),
    ("oneparticle.check_kato.s", "s"),
    ("oneparticle.check_dgamma_bound.s", "s"),
    ("oneparticle.self_s", "s"),
    ("manybody.assemble_furry_exact.calls", "count"),
    ("manybody.assemble_furry_exact.s", "s"),
    ("manybody.assemble_h_diag_series_N.s", "s"),
    ("manybody.converge_main_theorem.s", "s"),
    ("manybody.check_restriction_consistency.s", "s"),
    ("manybody.check_form_bound.s", "s"),
    ("manybody.check_kinetic_weight_bound.s", "s"),
    ("manybody.build_pair_interaction.s", "s"),
    ("manybody.self_s", "s"),
    ("grids.self_s", "s"),
    ("cli.self_s", "s"),
    ("report.s", "s"),
    ("report.bytes", "bytes"),
    ("linalg.norm2.calls", "count"),
    ("linalg.norm2.s", "s"),
    ("linalg.svd.calls", "count"),
    ("linalg.svd.s", "s"),
    ("linalg.eigh.calls", "count"),
    ("linalg.eigh.s", "s"),
    ("linalg.eigvalsh.calls", "count"),
    ("linalg.eigvalsh.s", "s"),
    ("linalg.inv.calls", "count"),
    ("linalg.inv.s", "s"),
    ("linalg.flops_computed", "flop"),
    ("trace.overhead_s", "s"),
)

UNTIMED = ("linalg", "trace")  # span prefixes that are no layer's self time


def _module(name: str) -> str:
    return name.split(".", 1)[0]


def summarize(spans: list[list]) -> dict:
    """Calls and time per span name, self time per module, outermost report time."""
    calls = Counter(s[0] for s in spans)
    total: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    report_s = 0.0
    nested = [0.0] * len(spans)  # time of nested spans that are not the owner's self time
    for name, start, end, parent in spans:
        if _module(name) == "linalg":
            continue
        while parent >= 0 and _module(spans[parent][0]) == "linalg":
            parent = spans[parent][3]
        if parent >= 0:
            nested[parent] += end - start
    for i, (name, start, end, parent) in enumerate(spans):
        ancestors = []
        while parent >= 0:
            ancestors.append(spans[parent][0])
            parent = spans[parent][3]
        if name not in ancestors:
            total[name] += end - start
        module = _module(name)
        if module == "report" and not any(_module(a) == "report" for a in ancestors):
            report_s += end - start
        if module not in UNTIMED:
            self_s[module] += end - start - nested[i]
    return {"calls": calls, "total": total, "self_s": self_s, "report_s": report_s}


def per_layer_metrics(spans: list[list], counters: dict, report_bytes: int,
                      overhead_s: float) -> dict:
    summary = summarize(spans)
    pairs = counters.get("series.series_mul.pairs", 0)
    values = {
        "series.series_mul.useful_frac":
            counters.get("series.series_mul.useful_pairs", 0) / pairs if pairs else 0.0,
        "report.s": summary["report_s"],
        "report.bytes": report_bytes,
        "linalg.flops_computed": round(counters.get("linalg.flops_computed", 0)),
        "trace.overhead_s": overhead_s,
    }
    metrics = {}
    for name, unit in PER_LAYER:
        if name in values:
            value = values[name]
        elif name.endswith(".self_s"):
            value = summary["self_s"].get(name[: -len(".self_s")], 0.0)
        elif name.endswith(".calls"):
            value = summary["calls"].get(name[: -len(".calls")], 0)
        else:
            value = summary["total"].get(name[: -len(".s")], 0.0)
        metrics[name] = {"value": value, "unit": unit}
    return metrics
