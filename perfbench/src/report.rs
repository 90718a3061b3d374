//! The metric catalogue — names, units, which way is better, bounds,
//! and which end-to-end metric each layer metric should move — and the
//! `BENCHMARK.json` it renders.

use crate::stats::{json_num, json_str};
use crate::workload::WORKLOADS;

/// An end-to-end metric, reported by every untraced run.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
    /// What it measures.
    pub about: &'static str,
}

/// A per-layer metric, reported by every traced run.
pub struct Layer {
    /// Metric name, prefixed by its layer.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// The end-to-end metric it should move, and on which workload.
    pub moves: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
    about: &'static str,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        about,
    }
}

/// The end-to-end metrics, in report order. On a 2-vCPU guest of a
/// shared host, ten runs of the timing metrics spread by 0.04–0.13 of
/// their median (interquartile range), so their bounds sit at the 0.25
/// ceiling; peak memory spreads by under 0.03. The access tail is p95
/// because the access p99 on `replicated_shards` spread by up to 0.2
/// with host contention; the re-key tail stays p99 because the re-key
/// p95 on `paper_mix` sits between its fast and its slow mode.
pub const END_TO_END: &[EndToEnd] = &[
    e2e(
        "throughput_ops_s",
        "ops/s",
        "higher",
        0.25,
        "wire commands completed per second, median over the quiet 50 ms slots of all windows",
    ),
    e2e(
        "access_p50_us",
        "us",
        "lower",
        0.25,
        "median client round trip of access, quiet slots of all windows, median over slices",
    ),
    e2e(
        "access_p95_us",
        "us",
        "lower",
        0.25,
        "p95 client round trip of access, quiet slots of all windows, median over slices",
    ),
    e2e(
        "update_p50_us",
        "us",
        "lower",
        0.25,
        "median client round trip of one re-key, quiet slots of all windows, median over slices",
    ),
    e2e(
        "update_p99_us",
        "us",
        "lower",
        0.25,
        "p99 client round trip of one re-key, quiet slots of all windows, median over slices",
    ),
    e2e(
        "ok_ratio",
        "ratio",
        "higher",
        0.01,
        "commands answered ok on their first attempt / attempted (1 - error_rate)",
    ),
    e2e(
        "setup_s",
        "s",
        "lower",
        0.25,
        "server spawn to every view read once, median over the windows' set-ups",
    ),
    e2e(
        "server_rss_mb",
        "MiB",
        "lower",
        0.2,
        "peak resident memory (VmHWM) of the server process, median over windows",
    ),
];

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        better,
        moves,
    }
}

/// The per-layer metrics, grouped by crate, in report order.
pub const PER_LAYER: &[Layer] = &[
    // procdb-wire (client spans)
    layer("wire.codec_us", "us", "lower", "access_p50_us on dashboard"),
    layer(
        "wire.bytes_per_op",
        "bytes",
        "lower",
        "throughput_ops_s on dashboard",
    ),
    layer(
        "wire.ping_p50_us",
        "us",
        "lower",
        "access_p50_us on dashboard",
    ),
    layer("wire.decode_errors", "count", "lower", "guard: must be 0"),
    // client totals the in-process split is measured against
    layer(
        "client.access_rt_us",
        "us",
        "lower",
        "access_p50_us on every workload (traced mean)",
    ),
    layer(
        "client.update_rt_us",
        "us",
        "lower",
        "update_p50_us on every workload (traced mean)",
    ),
    layer(
        "client.access_p99_us",
        "us",
        "lower",
        "access_p95_us on every workload (the farther tail, untraced window)",
    ),
    layer(
        "client.error_rate",
        "ratio",
        "lower",
        "ok_ratio on every workload",
    ),
    // procdb-server
    layer(
        "server.front_access_us",
        "us",
        "lower",
        "access_p50_us on dashboard; access_p95_us on update_storm",
    ),
    layer(
        "server.front_update_us",
        "us",
        "lower",
        "update_p99_us on update_storm",
    ),
    layer(
        "server.busy_sheds",
        "count",
        "lower",
        "ok_ratio on every workload",
    ),
    layer(
        "server.deadline_expiries",
        "count",
        "lower",
        "ok_ratio on every workload",
    ),
    layer(
        "server.render_us",
        "us",
        "lower",
        "access_p50_us on paper_mix",
    ),
    layer(
        "session.access_self_us",
        "us",
        "lower",
        "access_p50_us on paper_mix",
    ),
    layer(
        "session.update_self_us",
        "us",
        "lower",
        "update_p50_us on update_storm",
    ),
    layer(
        "session.escalation_ratio",
        "ratio",
        "lower",
        "access_p95_us on paper_mix",
    ),
    // procdb-cache
    layer(
        "cache.hit_ratio",
        "ratio",
        "higher",
        "throughput_ops_s on dashboard",
    ),
    layer(
        "cache.invalidations_per_update",
        "count",
        "lower",
        "throughput_ops_s on dashboard",
    ),
    layer(
        "cache.lookup_us",
        "us",
        "lower",
        "access_p50_us on dashboard",
    ),
    layer("cache.fill_us", "us", "lower", "access_p50_us on dashboard"),
    layer(
        "cache.fill_accept_ratio",
        "ratio",
        "higher",
        "throughput_ops_s on dashboard",
    ),
    layer("cache.stale_served", "count", "lower", "guard: must be 0"),
    // procdb-shard
    layer(
        "shard.fanout_us",
        "us",
        "lower",
        "access_p50_us on replicated_shards",
    ),
    layer(
        "shard.escalation_ratio",
        "ratio",
        "lower",
        "access_p95_us on replicated_shards",
    ),
    layer(
        "shard.cross_moves_per_update",
        "count",
        "lower",
        "update_p50_us on replicated_shards",
    ),
    layer(
        "replica.applied_per_update",
        "count",
        "lower",
        "update_p50_us on replicated_shards",
    ),
    layer(
        "shard.torn_read_ratio",
        "ratio",
        "lower",
        "guard: accesses that overlapped a cross-shard move and saw it half done",
    ),
    layer("replica.max_lag", "count", "lower", "guard only"),
    layer("replica.hedged_read_ratio", "ratio", "lower", "guard only"),
    // procdb-core
    layer(
        "engine.access_us",
        "us",
        "lower",
        "access_p50_us on paper_mix",
    ),
    layer(
        "engine.update_us",
        "us",
        "lower",
        "update_p50_us on update_storm",
    ),
    layer(
        "engine.refill_ratio",
        "ratio",
        "lower",
        "access_p95_us on paper_mix",
    ),
    layer(
        "engine.model_ms_per_op",
        "model-ms",
        "lower",
        "no wall-clock metric: the paper's priced cost",
    ),
    layer(
        "engine.model_error",
        "ratio",
        "lower",
        "no wall-clock metric: cost-model accuracy",
    ),
    // procdb-avm, procdb-rete, procdb-ilock
    layer(
        "avm.delta_tuples_per_update",
        "count",
        "lower",
        "update_p50_us on update_storm",
    ),
    layer(
        "rete.tokens_per_update",
        "count",
        "lower",
        "update_p50_us on replicated_shards",
    ),
    layer(
        "ilock.invalidations_per_update",
        "count",
        "lower",
        "access_p95_us on paper_mix",
    ),
    layer(
        "ilock.locks_set_per_refill",
        "count",
        "lower",
        "access_p95_us on paper_mix",
    ),
    // procdb-storage
    layer(
        "storage.page_reads_per_op",
        "count",
        "lower",
        "access_p50_us on paper_mix; update_p50_us on update_storm",
    ),
    layer(
        "storage.page_writes_per_op",
        "count",
        "lower",
        "update_p50_us on update_storm",
    ),
    layer(
        "storage.buffer_hit_ratio",
        "ratio",
        "higher",
        "access_p50_us on paper_mix",
    ),
    layer(
        "storage.flushes_per_op",
        "count",
        "lower",
        "access_p50_us on paper_mix; update_p50_us on update_storm",
    ),
    // the trace itself
    layer(
        "trace_overhead_pct",
        "%",
        "lower",
        "none: traced against untraced throughput",
    ),
];

/// Seconds one run measures.
pub const RUN_SECONDS: u64 = 24;

/// The `BENCHMARK.json` this catalogue defines.
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"command\": [\"bash\", \"perfbench/run.sh\"],\n");
    s.push_str("  \"paths\": [\"perfbench\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json_str(w.name),
                json_str(w.why)
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better),
                json_num(m.bound)
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better)
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{valid_metric_name, valid_unit};
    use std::collections::HashSet;

    #[test]
    fn catalogue_follows_the_contract() {
        let mut seen = HashSet::new();
        for (name, unit) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
            .chain(WORKLOADS.iter().map(|w| (w.name, "x")))
        {
            assert!(valid_metric_name(name), "{name}");
            assert!(valid_unit(unit), "{unit}");
            assert!(seen.insert(name), "{name} used twice");
        }
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(["lower", "higher"].contains(&m.better));
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        for w in WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
    }

    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with `perfbench --benchmark-json`"
        );
    }
}
