//! The four served workloads and the schema each one loads.

use std::collections::BTreeMap;

use crate::gen::{Layout, Mix, DEPTS};

/// Wire commands each connection keeps in flight on the v2 protocol.
pub const PIPELINE: usize = 16;
/// Client connections driving every workload.
pub const CONNS: usize = 2;

/// One served traffic mix.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why the workload is in the benchmark (one line).
    pub why: &'static str,
    /// `strategy` argument on the wire.
    pub strategy: &'static str,
    /// Front result cache on.
    pub front_cache: bool,
    /// Framed v2 protocol, pipelined [`PIPELINE`] deep; v1 lines otherwise.
    pub v2: bool,
    /// Hash shards of the relation.
    pub shards: usize,
    /// Engines per shard.
    pub replicas: usize,
    /// Model 1 population: 8 selections plus 8 joins with `DEPT`.
    /// Without it: 8 selections only.
    pub joins: bool,
    /// Operation mix.
    pub mix: Mix,
}

const fn mix(procs: usize, p_update: f64, users: usize) -> Mix {
    Mix {
        procs,
        p_update,
        l: 4,
        z: 0.25,
        users,
        affinity: 0.8,
    }
}

/// Every workload, in the order `--workload all` runs them.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "dashboard",
        why: "read-mostly session-affine users over pipelined v2 with the front cache on: hits skip the engine, so wire, demux and cache lookup do the work",
        strategy: "recompute",
        front_cache: true,
        v2: true,
        shards: 1,
        replicas: 1,
        joins: false,
        mix: mix(8, 0.03, 64),
    },
    Workload {
        name: "paper_mix",
        why: "the paper's Model 1 selections and joins under Cache and Invalidate at 10% updates: every access reaches the engine, i-locks and cold-buffer pager",
        strategy: "cache",
        front_cache: false,
        v2: false,
        shards: 1,
        replicas: 1,
        joins: true,
        mix: mix(16, 0.10, 0),
    },
    Workload {
        name: "update_storm",
        why: "the paper_mix schema under AVM at 50% updates: delta maintenance and page writes dominate and re-keys take the exclusive session lock",
        strategy: "avm",
        front_cache: false,
        v2: false,
        shards: 1,
        replicas: 1,
        joins: true,
        mix: mix(16, 0.50, 0),
    },
    Workload {
        name: "replicated_shards",
        why: "the paper_mix schema on 2 shards x 2 replicas under RVM at 20% updates: the only workload through scatter-gather, delta shipping and Rete",
        strategy: "rvm",
        front_cache: false,
        v2: false,
        shards: 2,
        replicas: 2,
        joins: true,
        mix: mix(16, 0.20, 0),
    },
];

/// Look a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Rows of `EMP`, the updatable relation, in every workload.
pub const ROWS: usize = 12_000;

impl Workload {
    /// How `EMP`'s keys map onto the procedures' windows.
    pub fn layout(&self) -> Layout {
        Layout {
            windows: self.mix.procs,
            rows_per_window: ROWS / self.mix.procs,
        }
    }

    /// Procedure `p`'s view name: `V*` selections, then `J*` joins.
    pub fn view_name(&self, p: usize) -> String {
        let selections = if self.joins {
            self.mix.procs / 2
        } else {
            self.mix.procs
        };
        if p < selections {
            format!("V{p}")
        } else {
            format!("J{}", p - selections)
        }
    }

    /// Whether procedure `p` joins `EMP` with `DEPT`.
    pub fn is_join(&self, p: usize) -> bool {
        self.joins && p >= self.mix.procs / 2
    }

    /// Every view name, by procedure index.
    pub fn view_names(&self) -> Vec<String> {
        (0..self.mix.procs).map(|p| self.view_name(p)).collect()
    }

    /// Data load: tables and rows. Inserts commute, so a client may
    /// pipeline them.
    pub fn load_lines(&self) -> Vec<String> {
        let mut lines =
            vec!["create table EMP (eid int, dept int, pad bytes 16) btree eid".to_string()];
        if self.joins {
            lines.push("create table DEPT (dname int, floor int) hash dname".to_string());
            lines.extend((0..DEPTS).map(|d| format!("insert DEPT ({d}, {})", d % 4)));
        }
        lines.extend(
            self.layout()
                .initial_rows()
                .iter()
                .map(|(eid, dept)| format!("insert EMP ({eid}, {dept}, \"pad\")")),
        );
        lines
    }

    /// Procedures, layout and strategy, run in order after the load.
    pub fn config_lines(&self) -> Vec<String> {
        let layout = self.layout();
        let mut lines: Vec<String> = (0..self.mix.procs)
            .map(|p| {
                let (lo, hi) = layout.bounds(p);
                let name = self.view_name(p);
                if self.is_join(p) {
                    format!(
                        "define view {name} (EMP.all, DEPT.all) where EMP.eid >= {lo} and \
                         EMP.eid <= {hi} and EMP.dept = DEPT.dname and DEPT.floor = 1"
                    )
                } else {
                    format!(
                        "define view {name} (EMP.all) where EMP.eid >= {lo} and EMP.eid <= {hi}"
                    )
                }
            })
            .collect();
        if self.shards > 1 {
            lines.push(format!("shards {}", self.shards));
        }
        if self.replicas > 1 {
            lines.push(format!("replicas {}", self.replicas));
        }
        lines.push(format!("strategy {}", self.strategy));
        lines.push(format!(
            "cache {}",
            if self.front_cache { "on" } else { "off" }
        ));
        lines
    }

    /// Procedure `p`'s rows in `model` as `(eid, dept)`, by key.
    pub fn expected_rows(&self, model: &BTreeMap<i64, i64>, p: usize) -> Vec<(i64, i64)> {
        let (lo, hi) = self.layout().bounds(p);
        model
            .range(lo..=hi)
            .filter(|(_, &dept)| !self.is_join(p) || dept % 4 == 1)
            .map(|(&k, &d)| (k, d))
            .collect()
    }

    /// A row as the server renders it in an `access` reply.
    pub fn render_row(&self, p: usize, (eid, dept): (i64, i64)) -> String {
        if self.is_join(p) {
            format!("  ({eid}, {dept}, \"pad\", {dept}, 1)")
        } else {
            format!("  ({eid}, {dept}, \"pad\")")
        }
    }
}
