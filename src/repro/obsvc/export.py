"""Exposition: render the registry and the cost history for machines.

Two formats, both pure functions over collected samples:

- :func:`prometheus_text` — the Prometheus text exposition format
  (``# HELP`` / ``# TYPE`` preambles, ``name{label="v"} value`` lines,
  histogram ``_bucket``/``_sum``/``_count`` expansion).  Sourced views
  are typed ``gauge``; ledger-unit values are emitted as exact
  integers.
- :func:`registry_json` / :func:`history_json` — plain-data dicts
  (``json.dumps``-ready) for programmatic consumers; the history form
  nests tenant slices with their drill-down leaves.

``warehouse.observe()`` is the unified entry point that feeds both.
"""

from __future__ import annotations

from repro.obsvc.history import CostHistoryStore
from repro.obsvc.metrics import MetricsRegistry, Sample

__all__ = [
    "history_json",
    "prometheus_text",
    "registry_json",
]


def _escape(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _label_str(labels: tuple[tuple[str, str], ...]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{name}="{_escape(value)}"' for name, value in labels)
    return "{" + inner + "}"


def _fmt_bound(bound: float) -> str:
    return "+Inf" if bound == float("inf") else repr(bound)


def _scalar_lines(sample: Sample) -> list[str]:
    return [f"{sample.name}{_label_str(sample.labels)} {sample.value}"]


def _histogram_lines(sample: Sample) -> list[str]:
    lines = []
    snap = sample.value
    for bound, count in snap["buckets"]:
        labels = sample.labels + (("le", _fmt_bound(bound)),)
        lines.append(f"{sample.name}_bucket{_label_str(labels)} {count}")
    lines.append(f"{sample.name}_sum{_label_str(sample.labels)} {snap['sum']}")
    lines.append(
        f"{sample.name}_count{_label_str(sample.labels)} {snap['count']}"
    )
    return lines


#: Registry kind -> Prometheus TYPE.
_PROM_TYPES = {
    "counter": "counter",
    "histogram": "histogram",
    "source": "gauge",
}


def prometheus_text(registry: MetricsRegistry) -> str:
    """Render every live sample in the Prometheus text format."""
    lines: list[str] = []
    seen_preamble: set[str] = set()
    for sample in registry.collect():
        if sample.name not in seen_preamble:
            seen_preamble.add(sample.name)
            lines.append(f"# HELP {sample.name} {sample.help}")
            lines.append(f"# TYPE {sample.name} {_PROM_TYPES[sample.kind]}")
        if sample.kind == "histogram":
            lines.extend(_histogram_lines(sample))
        else:
            lines.extend(_scalar_lines(sample))
    return "\n".join(lines) + ("\n" if lines else "")


def registry_json(registry: MetricsRegistry) -> dict:
    """Plain-data image of the registry, keyed by metric name."""
    metrics: dict[str, dict] = {}
    for sample in registry.collect():
        entry = metrics.setdefault(
            sample.name,
            {"kind": sample.kind, "help": sample.help, "samples": []},
        )
        value = sample.value
        if sample.kind == "histogram":
            value = {
                "buckets": [
                    [_fmt_bound(bound), count]
                    for bound, count in value["buckets"]
                ],
                "sum": value["sum"],
                "count": value["count"],
            }
        entry["samples"].append({"labels": dict(sample.labels), "value": value})
    return metrics


def history_json(store: CostHistoryStore) -> dict:
    """Plain-data image of the collected cost history."""
    snapshots = []
    for snapshot in store.snapshots():
        snapshots.append(
            {
                "seq": snapshot.seq,
                "clock": snapshot.clock,
                "log_len": snapshot.log_len,
                "tenants": [
                    {
                        "tenant": entry.tenant,
                        "queries": entry.queries,
                        "machine_seconds": entry.machine_seconds,
                        "serving_units": entry.serving_units,
                        "background_units": entry.background_units,
                        "retry_units": entry.retry_units,
                        "total_units": entry.total_units,
                        "total_dollars": entry.total_dollars,
                        "leaves": [
                            {
                                "template": leaf.template,
                                "pipeline": leaf.pipeline,
                                "operator": leaf.operator,
                                "units": leaf.units,
                            }
                            for leaf in entry.leaves
                        ],
                    }
                    for entry in snapshot.tenants
                ],
            }
        )
    return {"snapshots": snapshots, "tenants": list(store.tenants())}
