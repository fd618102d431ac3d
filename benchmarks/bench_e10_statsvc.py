"""E10 / §4: the Statistics Service's own cost-efficiency.

Sweeps the log sampling rate: summary error (access counts, join-graph
weights, template counts) rises as the rate drops while the service's
processing cost falls proportionally; hot/cold tiering cuts the summary
storage bill.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import run_once
from repro.statsvc.logs import LogView, QueryRecord
from repro.statsvc.sampling import StatsServiceCostModel, summary_error
from repro.statsvc.summaries import build_summary
from repro.util.rng import derive_rng
from repro.util.tables import TextTable

TEMPLATES = {
    "q3": ("customer", "orders", "lineitem"),
    "q5": ("customer", "orders", "lineitem", "supplier", "nation", "region"),
    "q12": ("orders", "lineitem"),
    "adhoc": ("lineitem", "part"),
}
SAMPLE_RATES = (1.0, 0.5, 0.2, 0.05, 0.01)
NUM_RECORDS = 5000


def _synth_log(seed=0):
    """A synthetic analysis log: every record, read through the
    unbounded :class:`LogView` (the serving log keeps only a window)."""
    rng = derive_rng(seed, "e10")
    records = []
    names = list(TEMPLATES)
    weights = np.array([0.4, 0.15, 0.25, 0.2])
    time = 0.0
    for i in range(NUM_RECORDS):
        template = names[int(rng.choice(len(names), p=weights))]
        tables = TEMPLATES[template]
        edges = tuple(
            (f"{a}.key", f"{b}.key") for a, b in zip(tables, tables[1:])
        )
        time += float(rng.exponential(30.0))
        records.append(
            QueryRecord(
                query_id=i,
                timestamp=time,
                sql="...",
                template=template,
                tables=tables,
                columns=tuple(f"{t}.key" for t in tables),
                join_edges=edges,
                filter_columns=(f"{tables[0]}.key",),
                latency_s=1.0,
                machine_seconds=5.0,
                dollars=0.005,
                bytes_scanned=1e8,
            )
        )
    return LogView(records)


def test_e10_sampling_tradeoff(benchmark):
    def experiment():
        store = _synth_log()
        records = list(store)
        reference = build_summary(records)
        cost_model = StatsServiceCostModel()
        records_per_hour = len(records) / (store.horizon[1] / 3600.0)

        table = TextTable(
            ["sample rate", "attr err", "edge err", "template err", "service $/h"],
            title="E10 — Statistics Service: sampling rate vs accuracy vs cost",
        )
        errors = []
        costs = []
        for rate in SAMPLE_RATES:
            sampled = build_summary(records, sample_rate=rate, seed=5)
            err = summary_error(reference, sampled)
            dollars = cost_model.total_dollars_per_hour(
                sampled, records_per_hour=records_per_hour
            )
            errors.append(err["attribute_access"])
            costs.append(dollars)
            table.add_row(
                [
                    rate,
                    f"{err['attribute_access']:.3f}",
                    f"{err['join_edges']:.3f}",
                    f"{err['template_counts']:.3f}",
                    f"{dollars:.6f}",
                ]
            )
        print()
        print(table)

        tier_table = TextTable(
            ["hot fraction", "storage $/h"],
            title="E10 — hot/cold tiering of the summary store",
        )
        tier_costs = []
        for hot in (1.0, 0.5, 0.2, 0.0):
            dollars = cost_model.storage_dollars_per_hour(reference, hot_fraction=hot)
            tier_costs.append(dollars)
            tier_table.add_row([hot, f"{dollars:.8f}"])
        print(tier_table)

        assert errors[0] == 0.0, "full-rate summary is exact"
        assert errors[-1] > errors[1], "1% sampling is noticeably worse than 50%"
        assert costs[-1] < costs[0] * 0.15, "1% sampling cuts cost ~proportionally"
        assert tier_costs == sorted(tier_costs, reverse=True)
        return errors[-1]

    run_once(benchmark, experiment)
