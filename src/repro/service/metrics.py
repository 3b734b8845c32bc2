"""Prometheus-style text exposition of run and service telemetry.

One renderer serves both surfaces: ``table2 --metrics-out metrics.prom``
writes a batch run's own counters, and the evaluation service's
``/metrics`` endpoint exposes the queue's live counters plus this
process's perception-substrate cache totals since it started (a job's
own counters are in its run manifest).  The format is the Prometheus text
exposition format, version 0.0.4 — ``# HELP`` / ``# TYPE`` headers,
one ``name{labels} value`` sample per line — which is also trivially
greppable, so the artifact stays useful without a scrape stack.

Everything here is deterministic: families and labels are emitted in
sorted order so two renders of the same counters are byte-identical
(the same posture as checkpoints and manifests).
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional

from repro.core.perfstats import STAGE_TIMINGS_NAME

#: Metric suffix per perf-cache counter key (``size`` is a gauge of
#: current occupancy; everything else accumulates).
_CACHE_COUNTERS = ("hits", "misses", "evictions", "size",
                   "spill_hits", "spill_misses", "spill_corrupt")

#: Unit statuses exported as ``repro_run_units{status=...}``.
_UNIT_STATUSES = ("completed", "failed", "resumed", "fast_failed",
                  "timed_out")


def _sanitize(name: str) -> str:
    """Coerce an arbitrary counter key to a legal metric-name token."""
    token = re.sub(r"[^a-zA-Z0-9_]", "_", name)
    if token and token[0].isdigit():
        token = "_" + token
    return token


def _family(lines: List[str], name: str, help_text: str,
            kind: str = "gauge") -> None:
    lines.append(f"# HELP {name} {help_text}")
    lines.append(f"# TYPE {name} {kind}")


def _fmt(value: object) -> str:
    number = float(value)  # type: ignore[arg-type]
    if number == int(number):
        return str(int(number))
    return repr(number)


def render_prometheus(
    stats=None,
    perf_caches: Optional[Dict[str, Dict[str, int]]] = None,
    extra: Optional[Dict[str, object]] = None,
) -> str:
    """Render counters as Prometheus text exposition.

    ``stats`` is a :class:`~repro.core.runner.RunStats` (or None):
    unit-status counts, retry/cache totals and wall time become
    ``repro_run_*`` samples, the run's own
    :attr:`~repro.core.runner.RunStats.perf_caches` become
    ``repro_cache_*{cache="..."}`` samples, and its coordinator fleet
    counters become ``repro_fleet_*``.  ``perf_caches`` overrides the
    cache source (the service passes the process totals,
    :func:`repro.core.perfstats.snapshot`).  ``extra`` is a flat
    mapping of service-side counters, emitted as
    ``repro_service_<key>``.

    Returns the full payload, trailing-newline-terminated.
    """
    lines: List[str] = []
    if stats is not None:
        _family(lines, "repro_run_units",
                "Work units of the most recent run by terminal status")
        for status in _UNIT_STATUSES:
            count = getattr(stats, status)
            lines.append(
                f'repro_run_units{{status="{status}"}} {_fmt(count)}')
        _family(lines, "repro_run_retries_total",
                "Transient-fault retries across the run", "counter")
        lines.append(f"repro_run_retries_total {_fmt(stats.total_retries)}")
        _family(lines, "repro_run_cache_hits_total",
                "Run-cache (per-question memo) hits", "counter")
        lines.append(f"repro_run_cache_hits_total {_fmt(stats.cache_hits)}")
        _family(lines, "repro_run_cache_misses_total",
                "Run-cache (per-question memo) misses", "counter")
        lines.append(
            f"repro_run_cache_misses_total {_fmt(stats.cache_misses)}")
        _family(lines, "repro_run_quarantined_total",
                "Questions salvaged as quarantined", "counter")
        lines.append(
            f"repro_run_quarantined_total {_fmt(stats.quarantined)}")
        _family(lines, "repro_run_wall_time_seconds",
                "Summed per-unit wall time of the run")
        lines.append(
            f"repro_run_wall_time_seconds {_fmt(stats.total_wall_time())}")
        if perf_caches is None:
            perf_caches = stats.perf_caches
    stages: Dict[str, int] = {}
    if perf_caches:
        perf_caches = dict(perf_caches)
        stages = perf_caches.pop(STAGE_TIMINGS_NAME, {})
        for counter in _CACHE_COUNTERS:
            relevant = {name: entry for name, entry in perf_caches.items()
                        if counter in entry}
            if not relevant:
                continue
            metric = f"repro_cache_{counter}"
            kind = "gauge" if counter == "size" else "counter"
            _family(lines, metric,
                    f"Perception-substrate cache {counter} by cache",
                    kind)
            for name in sorted(relevant):
                lines.append(
                    f'{metric}{{cache="{_sanitize(name)}"}} '
                    f"{_fmt(relevant[name][counter])}")
    if stages:
        names = sorted({key[:-3] for key in stages
                        if key.endswith("_ns")})
        _family(lines, "repro_stage_seconds_total",
                "Pipeline hot-path time by stage (docs/PERF.md)",
                "counter")
        for name in names:
            lines.append(
                f'repro_stage_seconds_total{{stage="{_sanitize(name)}"}} '
                f"{_fmt(stages.get(name + '_ns', 0) / 1e9)}")
        _family(lines, "repro_stage_calls_total",
                "Pipeline hot-path invocations by stage", "counter")
        for name in names:
            lines.append(
                f'repro_stage_calls_total{{stage="{_sanitize(name)}"}} '
                f"{_fmt(stages.get(name + '_calls', 0))}")
    coordinator = (getattr(stats, "coordinator", None) or {}
                   if stats is not None else {})
    if coordinator:
        for key in sorted(coordinator):
            metric = f"repro_fleet_{_sanitize(key)}"
            _family(lines, metric,
                    f"Sweep-coordinator fleet counter {key}")
            lines.append(f"{metric} {_fmt(coordinator[key])}")
    if extra:
        for key in sorted(extra):
            metric = f"repro_service_{_sanitize(key)}"
            _family(lines, metric, f"Evaluation-service counter {key}")
            lines.append(f"{metric} {_fmt(extra[key])}")
    return "\n".join(lines) + "\n" if lines else ""
