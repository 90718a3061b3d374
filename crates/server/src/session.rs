//! The session: declarative state (tables, rows, views, strategy) plus a
//! lazily rebuilt engine. Shared by the interactive shell and the
//! server's connection threads.
//!
//! The engine is always a [`ShardedEngine`]: `shards` hash partitions
//! (1 by default) of `replicas` engines each (1 by default). It is built
//! from the declared rows whenever the schema, view set, shard layout or
//! strategy changes — switching strategies mid-session replays the same
//! database under the new algorithm, which is exactly the comparison the
//! paper is about. While it is built, the engine holds the only copy of
//! the base table's rows; dropping it takes them back out first.
//!
//! For the server, [`Session::access_shared`] and
//! [`Session::update_shared`] serve through `&self`, so concurrent
//! commands proceed under a read lock with per-shard engine locks doing
//! the isolation; a [`WorkloadObserver`] behind a mutex counts
//! per-procedure accesses and conflicting updates either way (surfaced
//! by the `stats` command).

use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use procdb_cache::ResultCache;
use procdb_core::{
    parse_define_view, DeltaObserver, Engine, EngineOptions, ProcedureDef, RecoveryOutcome,
    StrategyKind, WorkloadObserver,
};
use procdb_query::{Catalog, FieldType, Organization, Schema, Table, Tuple, Value};
use procdb_shard::{Router, ShardedEngine};
use procdb_storage::{CostConstants, FaultPlan, Pager, PagerConfig};

/// Health-check cadence of the replica supervisor the session starts
/// when a replicated backend is built.
const SUPERVISOR_INTERVAL: Duration = Duration::from_millis(20);

/// One declared table: schema, organization, and its current rows.
#[derive(Debug, Clone)]
pub struct TableSpec {
    /// Table name.
    pub name: String,
    /// Schema.
    pub schema: Schema,
    /// Physical organization.
    pub org: Organization,
    /// Current contents. The first (base) table's rows move into the
    /// engine while one is built, so this is empty until it is dropped.
    pub rows: Vec<Tuple>,
}

/// Session errors (string-typed: every message is user-facing).
pub type SessionError = String;

/// Interactive session state.
pub struct Session {
    tables: Vec<TableSpec>,
    views: Vec<(String, procdb_avm::ViewDef)>,
    strategy: StrategyKind,
    constants: CostConstants,
    engine: Option<ShardedEngine>,
    page_size: usize,
    /// Shard count the next engine build partitions into.
    shards: usize,
    /// Replica-group size per shard the next build creates (1 = none).
    replicas: usize,
    /// Per-procedure workload counters; a mutex (not `&mut`) so the
    /// shared read path can record accesses too.
    observer: Mutex<WorkloadObserver>,
    /// The front result cache, when the server attached one. The
    /// session keeps it configured (procedure intervals, shard layout);
    /// the engine feeds it every committed write as a [`DeltaObserver`].
    cache: Option<Arc<ResultCache>>,
}

impl Session {
    /// Fresh session (Always Recompute, paper cost constants).
    pub fn new() -> Session {
        Session {
            tables: Vec::new(),
            views: Vec::new(),
            strategy: StrategyKind::AlwaysRecompute,
            constants: CostConstants::default(),
            engine: None,
            page_size: 4000,
            shards: 1,
            replicas: 1,
            observer: Mutex::new(WorkloadObserver::new(0)),
            cache: None,
        }
    }

    /// Attach the front result cache. The server does this once at
    /// startup, before any connection can reach the session.
    pub fn attach_cache(&mut self, cache: Arc<ResultCache>) {
        self.cache = Some(cache);
    }

    /// The attached front result cache, if any.
    pub fn cache(&self) -> Option<&Arc<ResultCache>> {
        self.cache.as_ref()
    }

    /// (Re)register the engine layout and every procedure's selection
    /// interval with the cache — its predicate index must be current
    /// before any fill can run (see `procdb-cache`'s fill protocol) —
    /// then subscribe it to the engine's committed delta stream.
    fn attach_cache_to(&self, sharded: &ShardedEngine) {
        let Some(cache) = self.cache.as_ref() else {
            return;
        };
        let key_field = self.base_key_field().unwrap_or(0);
        let epochs: Vec<u64> = (0..sharded.shards()).map(|s| sharded.epoch_of(s)).collect();
        let procs: Vec<(String, i64, i64)> = self
            .views
            .iter()
            .map(|(name, def)| {
                let (lo, hi) = def
                    .selection
                    .int_bounds(key_field)
                    .unwrap_or((i64::MIN, i64::MAX));
                (name.clone(), lo, hi)
            })
            .collect();
        cache.configure(&epochs, key_field, &procs);
        let observer: Arc<dyn DeltaObserver> = cache.clone();
        sharded.set_delta_observer(Some(observer));
    }

    /// The active strategy.
    pub fn strategy(&self) -> StrategyKind {
        self.strategy
    }

    /// Declared tables.
    pub fn tables(&self) -> &[TableSpec] {
        &self.tables
    }

    /// Defined views, in definition order.
    pub fn views(&self) -> impl Iterator<Item = &str> {
        self.views.iter().map(|(n, _)| n.as_str())
    }

    /// Defined views with their definitions, in definition order.
    pub fn view_defs(&self) -> &[(String, procdb_avm::ViewDef)] {
        &self.views
    }

    /// Key field index of the first-declared (updatable) base table.
    pub fn base_key_field(&self) -> Result<usize, SessionError> {
        let base = self
            .tables
            .first()
            .ok_or_else(|| "no tables declared".to_string())?;
        match base.org {
            Organization::BTree { key_field } | Organization::Hash { key_field } => Ok(key_field),
            Organization::Heap => Ok(0),
        }
    }

    /// The base tuples whose key lies in `[lo, hi]`, sorted by key, and
    /// the base relation's live row count. A built engine reads only the
    /// window (a B-tree range read per shard, uncharged); before the
    /// first build the declared rows are filtered.
    pub fn base_window(&self, lo: i64, hi: i64) -> Result<(Vec<Tuple>, usize), SessionError> {
        let key_field = self.base_key_field()?;
        if let Some(sharded) = self.engine.as_ref() {
            let rows = sharded.r1_window(lo, hi).map_err(|e| e.to_string())?;
            return Ok((rows, sharded.r1_len() as usize));
        }
        let base = &self.tables[0].rows;
        let key = |r: &Tuple| match r.get(key_field) {
            Some(Value::Int(k)) => *k,
            _ => i64::MAX,
        };
        let mut rows: Vec<Tuple> = base
            .iter()
            .filter(|r| (lo..=hi).contains(&key(r)))
            .cloned()
            .collect();
        rows.sort_by_key(key);
        Ok((rows, base.len()))
    }

    fn table(&self, name: &str) -> Result<&TableSpec, SessionError> {
        self.tables
            .iter()
            .find(|t| t.name == name)
            .ok_or_else(|| format!("unknown table {name}"))
    }

    /// Drop the built engine (schema/view/strategy changed), taking the
    /// base table's rows back out of it first with one uncharged scan.
    /// The server also calls this when it stops, so the session it hands
    /// back holds every row.
    pub(crate) fn dirty(&mut self) {
        if let Some(sharded) = self.engine.take() {
            // The fault plan goes with the engine's pagers; lift it so
            // an uncharged-fault plan cannot fail the read-back.
            for s in 0..sharded.shards() {
                sharded.with_engine(s, |e| e.pager().clear_faults());
            }
            // Should even that read fail (an uncharged-fault plan tore a
            // page), the rows the engine was built from stand in.
            if let Ok(rows) = sharded.scan_r1() {
                self.tables[0].rows = rows;
            }
        }
        // Whatever the next engine computes may differ from what the
        // old one answered — nothing cached survives a rebuild.
        if let Some(cache) = self.cache.as_ref() {
            cache.flash_all();
        }
    }

    /// Partition the engine `shards` ways on the next build. A live
    /// engine is rebuilt lazily, exactly like a strategy switch.
    pub fn set_shards(&mut self, n: usize) -> Result<(), SessionError> {
        if n == 0 {
            return Err("shards must be at least 1".to_string());
        }
        if n > 64 {
            return Err(format!("shards capped at 64, got {n}"));
        }
        self.shards = n;
        self.dirty();
        Ok(())
    }

    /// Configured shard count (what the next engine build partitions
    /// into).
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Replicate each shard `n` ways on the next build (1 disables
    /// replication). `n >= 2` makes every shard a primary + followers
    /// group with supervised failover.
    pub fn set_replicas(&mut self, n: usize) -> Result<(), SessionError> {
        if n == 0 {
            return Err("replicas must be at least 1".to_string());
        }
        if n > 8 {
            return Err(format!("replicas capped at 8, got {n}"));
        }
        self.replicas = n;
        self.dirty();
        Ok(())
    }

    /// Configured replica-group size per shard (1 = unreplicated).
    pub fn replicas(&self) -> usize {
        self.replicas
    }

    /// Declare a table.
    pub fn create_table(
        &mut self,
        name: &str,
        schema: Schema,
        org: Organization,
    ) -> Result<(), SessionError> {
        if self.tables.iter().any(|t| t.name == name) {
            return Err(format!("table {name} already exists"));
        }
        if let Organization::BTree { key_field } | Organization::Hash { key_field } = org {
            if key_field >= schema.arity() {
                return Err(format!("key field {key_field} out of range"));
            }
            if !matches!(schema.fields()[key_field].ty, FieldType::Int) {
                return Err("organization key must be an int field".to_string());
            }
        }
        self.tables.push(TableSpec {
            name: name.to_string(),
            schema,
            org,
            rows: Vec::new(),
        });
        self.dirty();
        Ok(())
    }

    /// Insert a row (typed against the declared schema).
    pub fn insert(&mut self, table: &str, row: Tuple) -> Result<(), SessionError> {
        let ti = self
            .tables
            .iter()
            .position(|t| t.name == table)
            .ok_or_else(|| format!("unknown table {table}"))?;
        let schema = &self.tables[ti].schema;
        if row.len() != schema.arity() {
            return Err(format!(
                "arity mismatch: {} fields given, {} expected",
                row.len(),
                schema.arity()
            ));
        }
        for (v, f) in row.iter().zip(schema.fields()) {
            match (v, f.ty) {
                (Value::Int(_), FieldType::Int) => {}
                (Value::Bytes(b), FieldType::Bytes(w)) if b.len() <= w => {}
                _ => return Err(format!("value does not fit field {}", f.name)),
            }
        }
        // Canonical (padded) form everywhere: declared rows and engine.
        let row = schema.normalize(&row);
        // A built engine holds the base relation's rows: route the insert
        // through it (charged maintenance). Anything else rebuilds lazily.
        if let (0, Some(sharded)) = (ti, self.engine.as_ref()) {
            sharded
                .apply_insert(&[row], &self.constants)
                .map_err(|e| e.to_string())?;
            return Ok(());
        }
        self.tables[ti].rows.push(row);
        self.dirty();
        Ok(())
    }

    /// Build a catalog from the declared tables (uncharged). With
    /// `with_rows = false` only the schemas/organizations are created —
    /// enough for name resolution, without copying any data. A shard
    /// build passes `base_rows` to load only its partition of the first
    /// (updatable) table; every other table is loaded in full (inner
    /// relations are replicated per shard).
    fn build_catalog(
        &self,
        pager: &Arc<Pager>,
        with_rows: bool,
        base_rows: Option<&[Tuple]>,
    ) -> Result<Catalog, SessionError> {
        pager.set_charging(false);
        let mut cat = Catalog::new();
        for (ti, spec) in self.tables.iter().enumerate() {
            let rows: &[Tuple] = match (ti, base_rows) {
                (0, Some(part)) => part,
                _ => &spec.rows,
            };
            let mut t = Table::create(
                pager.clone(),
                &spec.name,
                spec.schema.clone(),
                spec.org,
                rows.len().max(16),
            )
            .map_err(|e| e.to_string())?;
            if with_rows {
                for row in rows {
                    t.insert(row).map_err(|e| e.to_string())?;
                }
            }
            cat.add(t);
        }
        pager.ledger().reset();
        pager.set_charging(true);
        Ok(cat)
    }

    /// Define a view/procedure in the paper's syntax.
    pub fn define_view(&mut self, statement: &str) -> Result<String, SessionError> {
        // Resolve against a throwaway catalog of the declared schemas.
        let pager = Pager::new(PagerConfig {
            page_size: self.page_size,
            buffer_capacity: 1024,
            mode: procdb_storage::AccountingMode::Logical,
        });
        // Name resolution only needs schemas, not data.
        let cat = self.build_catalog(&pager, false, None)?;
        let dv = parse_define_view(statement, &cat).map_err(|e| e.to_string())?;
        let name = if dv.name.is_empty() {
            format!("view{}", self.views.len())
        } else {
            dv.name.clone()
        };
        if self.views.iter().any(|(n, _)| *n == name) {
            return Err(format!("view {name} already exists"));
        }
        // The engine requires the view's base to be the session's first
        // (updatable) table.
        if self
            .tables
            .first()
            .map(|t| t.name != dv.view.base)
            .unwrap_or(true)
        {
            return Err(format!(
                "views must select from the first-declared (updatable) table; \
                 {} is not {}",
                dv.view.base,
                self.tables.first().map(|t| t.name.as_str()).unwrap_or("?")
            ));
        }
        self.views.push((name.clone(), dv.view));
        self.observer.lock().add_procedure();
        self.dirty();
        Ok(name)
    }

    /// Switch processing strategy (rebuilds the engine lazily).
    pub fn set_strategy(&mut self, kind: StrategyKind) {
        self.strategy = kind;
        self.dirty();
    }

    /// Build one shard's engine over the declared schema, loading
    /// `base_rows` (that shard's partition) into the base table.
    fn build_engine(
        &self,
        shard: u32,
        r1_key_field: usize,
        base_rows: &[Tuple],
    ) -> Result<Engine, SessionError> {
        let pager = Pager::new(PagerConfig {
            page_size: self.page_size,
            buffer_capacity: 16 * 1024,
            mode: procdb_storage::AccountingMode::Physical,
        });
        let catalog = self.build_catalog(&pager, true, Some(base_rows))?;
        let procs: Vec<ProcedureDef> = self
            .views
            .iter()
            .enumerate()
            .map(|(i, (n, v))| ProcedureDef::new(i as u32, n.clone(), v.clone()))
            .collect();
        let probe = self
            .views
            .iter()
            .find_map(|(_, v)| v.joins.first().map(|j| j.outer_key_field))
            .unwrap_or(r1_key_field);
        Engine::new(
            pager,
            catalog,
            procs,
            self.strategy,
            EngineOptions {
                r1: self.tables[0].name.clone(),
                r1_key_field,
                rvm_base_probe_field: probe,
                rvm_update_frequencies: None,
                clear_buffer_between_ops: true,
                shard: Some(shard),
            },
        )
        .map_err(|e| e.to_string())
    }

    /// Build `shards` x `replicas` engines over the partitioned base
    /// rows, warm them, and start failover support when replicated.
    fn build_backend(
        &self,
        key_field: usize,
        parts: &[Vec<Tuple>],
    ) -> Result<ShardedEngine, SessionError> {
        let sharded = ShardedEngine::new_replicated(self.shards, self.replicas, |sid, _| {
            self.build_engine(sid as u32, key_field, &parts[sid])
        })?;
        sharded.warm_up().map_err(|e| e.to_string())?;
        if self.replicas > 1 {
            // With followers available, contended reads may hedge and a
            // crashed primary is promoted away from even when no traffic
            // touches the failed shard.
            sharded.set_hedged_reads(true);
            sharded.start_supervisor(SUPERVISOR_INTERVAL);
        }
        Ok(sharded)
    }

    fn ensure_backend(&mut self) -> Result<&ShardedEngine, SessionError> {
        if self.engine.is_none() {
            let base = self
                .tables
                .first()
                .ok_or_else(|| "no tables declared".to_string())?;
            if self.views.is_empty() {
                return Err("no views defined".to_string());
            }
            let Organization::BTree { key_field } = base.org else {
                return Err("the first table must be B-tree organized".to_string());
            };
            // The base rows move into the engine, partition by partition.
            let router = Router::new(self.shards);
            let mut parts: Vec<Vec<Tuple>> = vec![Vec::new(); self.shards];
            for row in std::mem::take(&mut self.tables[0].rows) {
                parts[router.shard_of(row[key_field].as_int())].push(row);
            }
            match self.build_backend(key_field, &parts) {
                Ok(sharded) => {
                    self.attach_cache_to(&sharded);
                    self.engine = Some(sharded);
                }
                Err(e) => {
                    self.tables[0].rows = parts.into_iter().flatten().collect();
                    return Err(e);
                }
            }
        }
        Ok(self.engine.as_ref().expect("built above"))
    }

    /// Build the engine now if it would be built on the next access.
    /// Lets the server warm up under its write lock once, instead of on
    /// the first unlucky client's access.
    pub fn prepare(&mut self) -> Result<(), SessionError> {
        if !self.views.is_empty() && !self.tables.is_empty() {
            self.ensure_backend()?;
        }
        Ok(())
    }

    fn view_index(&self, view: &str) -> Result<usize, SessionError> {
        self.views
            .iter()
            .position(|(n, _)| n == view)
            .ok_or_else(|| format!("unknown view {view}"))
    }

    /// Serve procedure `idx` from the built engine and count it. With
    /// `escalate`, a shard whose strategy must write first (a Cache &
    /// Invalidate refill, a post-crash rebuild) takes its own exclusive
    /// lock; without, the access declines with `Ok(None)`, as it does
    /// when no engine is built.
    fn serve_access(
        &self,
        idx: usize,
        escalate: bool,
    ) -> Result<Option<(Vec<Tuple>, f64)>, SessionError> {
        let Some(sharded) = self.engine.as_ref() else {
            return Ok(None);
        };
        let mut sp = procdb_obs::span!(procdb_obs::global(), "session.access", proc = idx);
        let served = if escalate {
            sharded.access(idx, &self.constants).map(Some)
        } else {
            sharded.access_shared(idx, &self.constants)
        }
        .map_err(|e| e.to_string())?;
        if let Some((rows, ms)) = &served {
            self.observer.lock().record_access(idx);
            sp.field("rows", rows.len() as f64);
            sp.field("priced_ms", *ms);
        }
        Ok(served)
    }

    /// Read a view's current value; returns the rows and the priced cost.
    pub fn access(&mut self, view: &str) -> Result<(Vec<Tuple>, f64), SessionError> {
        let idx = self.view_index(view)?;
        self.ensure_backend()?;
        Ok(self
            .serve_access(idx, true)?
            .expect("a built engine serves an escalating access"))
    }

    /// Serve a read through `&self`. `Ok(None)` means the caller must
    /// escalate to [`Session::access`] under the exclusive lock: the
    /// engine is not built yet, or it is one unreplicated shard that
    /// must write to answer (a Cache & Invalidate refill). Several
    /// shards or replicas escalate per shard instead, inside that
    /// shard's own lock, and always serve here.
    pub fn access_shared(&self, view: &str) -> Result<Option<(Vec<Tuple>, f64)>, SessionError> {
        let idx = self.view_index(view)?;
        self.serve_access(idx, self.shard_locks_isolate())
    }

    /// Whether the per-shard engine locks isolate writers, so a caller
    /// holding only the shared session lock may write. Not for one
    /// unreplicated shard: its re-keys, run under the shared lock,
    /// interleave with long recomputes and make front-cache fills fail,
    /// so they (and reads that must write) keep the exclusive lock.
    fn shard_locks_isolate(&self) -> bool {
        self.shards > 1 || self.replicas > 1
    }

    /// Count which procedures an applied re-key conflicted with: any
    /// whose selection window (on the base key field) contains the
    /// vacated or the newly written key.
    fn note_update(&self, n: usize, key_field: usize, victim: i64, new_key: i64) {
        if n > 0 {
            let conflicting: Vec<usize> = self
                .views
                .iter()
                .enumerate()
                .filter(|(_, (_, def))| {
                    let (lo, hi) = def
                        .selection
                        .int_bounds(key_field)
                        .unwrap_or((i64::MIN, i64::MAX));
                    (lo..=hi).contains(&victim) || (lo..=hi).contains(&new_key)
                })
                .map(|(i, _)| i)
                .collect();
            self.observer.lock().record_update(conflicting);
        } else {
            self.observer.lock().record_update([]);
        }
    }

    /// Re-key one tuple of the base table; returns the priced maintenance
    /// cost.
    pub fn update(&mut self, victim: i64, new_key: i64) -> Result<(usize, f64), SessionError> {
        self.ensure_backend()?;
        Ok(self.rekey(victim, new_key)?.expect("the engine is built"))
    }

    /// Re-key one base tuple through `&self`, when the per-shard engine
    /// locks isolate it. `Ok(None)` means escalate to [`Session::update`]
    /// under the exclusive lock: the engine is not built yet, or it is
    /// one unreplicated shard.
    pub fn update_shared(
        &self,
        victim: i64,
        new_key: i64,
    ) -> Result<Option<(usize, f64)>, SessionError> {
        if !self.shard_locks_isolate() {
            return Ok(None);
        }
        self.rekey(victim, new_key)
    }

    /// Re-key one base tuple on the built engine (`Ok(None)` when there
    /// is none) and count it.
    fn rekey(&self, victim: i64, new_key: i64) -> Result<Option<(usize, f64)>, SessionError> {
        let Some(sharded) = self.engine.as_ref() else {
            return Ok(None);
        };
        let _sp = procdb_obs::span!(procdb_obs::global(), "session.update", victim = victim);
        let key_field = self.base_key_field()?;
        let (n, ms) = sharded
            .apply_update(&[(victim, new_key)], &self.constants)
            .map_err(|e| e.to_string())?;
        self.note_update(n, key_field, victim, new_key);
        Ok(Some((n, ms)))
    }

    /// Install a fault plan on every shard primary's pager (building the
    /// engine first if needed). Note that rebuilding the engine — a
    /// strategy switch or DDL — discards the plan with the pagers.
    pub fn fault_inject(&mut self, plan: FaultPlan) -> Result<String, SessionError> {
        let desc = format!(
            "fault plan installed: seed {} io-reads {} io-writes {} torn {}{}{}{}",
            plan.seed,
            plan.io_read_prob,
            plan.io_write_prob,
            plan.torn_write_prob,
            plan.kill_after
                .map(|n| format!(" kill-at {n}"))
                .unwrap_or_default(),
            plan.fail_window
                .map(|(a, b)| format!(" window [{a}, {b})"))
                .unwrap_or_default(),
            if plan.charged_only {
                ""
            } else {
                " (uncharged included)"
            },
        );
        let sharded = self.ensure_backend()?;
        for s in 0..sharded.shards() {
            let plan = plan.clone();
            sharded.with_engine(s, |e| e.pager().install_faults(plan));
        }
        Ok(match sharded.shards() {
            1 => desc,
            n => format!("{desc} (all {n} shards)"),
        })
    }

    /// Remove the installed fault plan, if any.
    pub fn fault_off(&mut self) -> Result<String, SessionError> {
        let sharded = self.ensure_backend()?;
        for s in 0..sharded.shards() {
            sharded.with_engine(s, |e| e.pager().clear_faults());
        }
        Ok("fault injection off".to_string())
    }

    /// Injector counters and the active plan (the `fault status`
    /// command), one block per shard when partitioned.
    pub fn fault_status_text(&self) -> String {
        let Some(sharded) = self.engine.as_ref() else {
            return "no fault plan installed".to_string();
        };
        let shards = sharded.shards();
        let mut out = Vec::with_capacity(shards);
        for s in 0..shards {
            let text = sharded.with_engine(s, |e| match e.pager().fault_injector() {
                None => "no fault plan installed".to_string(),
                Some(inj) => {
                    let st = inj.status();
                    let p = inj.plan();
                    format!(
                        "plan: seed {} io-reads {} io-writes {} torn {} kill-at {} \
                         window {} charged-only {}\n\
                         injected: {} transfers, {} io failures, {} torn writes, \
                         {} kills, crashed {}",
                        p.seed,
                        p.io_read_prob,
                        p.io_write_prob,
                        p.torn_write_prob,
                        p.kill_after
                            .map(|n| n.to_string())
                            .unwrap_or_else(|| "-".to_string()),
                        p.fail_window
                            .map(|(a, b)| format!("[{a}, {b})"))
                            .unwrap_or_else(|| "-".to_string()),
                        p.charged_only,
                        st.transfers,
                        st.io_failures,
                        st.torn_writes,
                        st.kills,
                        st.crashed,
                    )
                }
            });
            out.push(if shards == 1 {
                text
            } else {
                format!("shard {s}: {}", text.replace('\n', "; "))
            });
        }
        out.join("\n")
    }

    /// Install a message-chaos plan on the replication layer (the
    /// `chaos inject` command). Chaos only has meaning on a replicated
    /// backend — there is no delta-shipping path to break otherwise.
    pub fn chaos_inject(&mut self, plan: procdb_shard::ChaosPlan) -> Result<String, SessionError> {
        let desc = plan.describe();
        let sharded = self.ensure_backend()?;
        if sharded.replicas() < 2 {
            return Err("not replicated; use 'replicas R' (R >= 2) first".to_string());
        }
        sharded.install_chaos(plan);
        Ok(format!("{desc} (installed)"))
    }

    /// Remove the installed chaos plan, reporting its final counters.
    pub fn chaos_off(&mut self) -> Result<String, SessionError> {
        Ok(match self.ensure_backend()?.chaos_off() {
            Some(st) => format!(
                "chaos off; injected: {} delayed, {} dropped, {} duplicated, \
                 {} reordered, {} heartbeats delayed, {} fenced",
                st.delayed,
                st.dropped,
                st.duplicated,
                st.reordered,
                st.heartbeats_delayed,
                st.fenced,
            ),
            None => "no chaos plan installed".to_string(),
        })
    }

    /// The active chaos plan and its decision counters (the
    /// `chaos status` command).
    pub fn chaos_status_text(&self) -> String {
        match self.engine.as_ref().and_then(|s| s.chaos_status()) {
            Some((plan, st)) => format!(
                "{}\ninjected: {} delayed, {} dropped, {} duplicated, \
                 {} reordered, {} heartbeats delayed, {} fenced",
                plan.describe(),
                st.delayed,
                st.dropped,
                st.duplicated,
                st.reordered,
                st.heartbeats_delayed,
                st.fenced,
            ),
            None => "no chaos plan installed".to_string(),
        }
    }

    /// Check an operator's shard selection against the built engine.
    fn check_shard(sharded: &ShardedEngine, shard: Option<usize>) -> Result<(), SessionError> {
        match shard {
            Some(s) if s >= sharded.shards() => {
                Err(format!("shard {s} out of range (0..{})", sharded.shards()))
            }
            _ => Ok(()),
        }
    }

    /// Simulate a crash on the live engine: `shard` selects one shard to
    /// kill (others keep serving); `None` crashes every shard.
    pub fn crash(&mut self, shard: Option<usize>) -> Result<String, SessionError> {
        // A crash distrusts all derived state; the cached results are
        // derived state held outside the engine, so they go too. (A
        // replicated crash also promotes — the epoch bump would fence
        // the crashed shard's entries anyway — but the unreplicated
        // paths have no bump to lean on.)
        if let Some(cache) = self.cache.as_ref() {
            cache.flash_all();
        }
        let sharded = self.ensure_backend()?;
        Self::check_shard(sharded, shard)?;
        sharded.crash(shard);
        let replicated = sharded.replicas() > 1;
        Ok(match shard {
            Some(s) if replicated => format!(
                "shard {s} primary crashed; replica {} promoted, service continues. \
                 run 'recover {s}' (or 'resync {s}') to rejoin the ex-primary",
                sharded.primary_of(s)
            ),
            Some(s) => format!(
                "shard {s} crashed: its frames dropped, its derived state \
                 distrusted; other shards keep serving. run 'recover {s}' to resume"
            ),
            None if replicated => format!(
                "all {} shard primaries crashed; each promoted a live follower, \
                 service continues. run 'recover' to rejoin the ex-primaries",
                sharded.shards()
            ),
            None if sharded.shards() == 1 => format!(
                "crashed (epoch {}): buffered frames dropped, derived state distrusted; \
                 run 'recover' to resume",
                sharded.with_engine(0, Engine::crash_epoch)
            ),
            None => format!(
                "all {} shards crashed; run 'recover' to resume",
                sharded.shards()
            ),
        })
    }

    /// Run crash recovery and report what it did: `shard` recovers one
    /// shard independently, `None` every shard.
    pub fn recover(&mut self, shard: Option<usize>) -> Result<String, SessionError> {
        let sharded = self.ensure_backend()?;
        Self::check_shard(sharded, shard)?;
        // One unpartitioned engine needs no shard prefix.
        let who = |s: usize| match sharded.shards() {
            1 => String::new(),
            _ => format!("shard {s} "),
        };
        let mut out = String::new();
        for (s, outcome) in sharded.recover(shard) {
            match outcome {
                RecoveryOutcome::Recovered(rep) => out.push_str(&format!(
                    "{}recovered (epoch {}): {} WAL records ({} bytes) replayed, \
                     {} conservative invalidations, {} rebuilds deferred to first access\n",
                    who(s),
                    rep.crash_epoch,
                    rep.wal_records_replayed,
                    rep.wal_bytes_replayed,
                    rep.conservative_invalidations,
                    rep.rebuilds_pending,
                )),
                RecoveryOutcome::NotCrashed if sharded.replicas() > 1 => out.push_str(&format!(
                    "shard {s}: primary not crashed; replicas resynced\n"
                )),
                RecoveryOutcome::NotCrashed => {
                    out.push_str(&format!("{}not crashed; nothing to recover\n", who(s)))
                }
            }
        }
        Ok(out.trim_end().to_string())
    }

    /// The built engine, when its shards are replicated.
    fn replicated_backend(&mut self) -> Result<&ShardedEngine, SessionError> {
        let sharded = self.ensure_backend()?;
        if sharded.replicas() < 2 {
            return Err("not replicated; use 'replicas R' (R >= 2) first".to_string());
        }
        Ok(sharded)
    }

    /// Force a failover drill: promote the freshest live follower of
    /// `shard` to primary (the `promote N` command).
    pub fn promote(&mut self, shard: usize) -> Result<String, SessionError> {
        let sharded = self.replicated_backend()?;
        Self::check_shard(sharded, Some(shard))?;
        let new = sharded.promote(shard)?;
        Ok(format!("shard {shard}: replica {new} promoted to primary"))
    }

    /// Resync lagging or dead replicas of one shard (or all shards):
    /// delta-log replay past each replica's last applied LSN, with a
    /// conservative full rebuild when the log was truncated past its
    /// position (the `resync [N]` command).
    pub fn resync(&mut self, shard: Option<usize>) -> Result<String, SessionError> {
        let sharded = self.replicated_backend()?;
        Self::check_shard(sharded, shard)?;
        let reports = sharded.resync(shard).map_err(|e| e.to_string())?;
        if reports.is_empty() {
            return Ok("all replicas live and caught up; nothing to resync".to_string());
        }
        let mut out = String::new();
        for r in reports {
            out.push_str(&format!(
                "shard {} replica {}: {}\n",
                r.shard,
                r.replica,
                if r.full_rebuild {
                    "conservative full rebuild (log truncated or position ambiguous)".to_string()
                } else {
                    format!("replayed {} delta op(s)", r.replayed)
                }
            ));
        }
        Ok(out.trim_end().to_string())
    }

    /// Total priced cost accumulated on the live engine's ledgers.
    pub fn total_cost_ms(&self) -> f64 {
        let Some(sharded) = self.engine.as_ref() else {
            return 0.0;
        };
        (0..sharded.shards())
            .map(|s| sharded.with_engine(s, |e| e.ledger().snapshot().priced(&self.constants)))
            .sum()
    }

    /// Turn the front result cache on (the `cache on` command). Builds
    /// the engine first if it is buildable, so the cache's predicate
    /// index is registered before the first fill.
    pub fn cache_on(&mut self) -> Result<String, SessionError> {
        if self.cache.is_none() {
            return Err("no result cache attached (server-only feature)".to_string());
        }
        if self.engine.is_none() && !self.views.is_empty() && !self.tables.is_empty() {
            self.prepare()?;
        }
        let cache = self.cache.as_ref().expect("checked above");
        cache.set_enabled(true);
        Ok("result cache on".to_string())
    }

    /// Turn the front result cache off (the `cache off` command).
    /// Invalidation tracking stays live, so `cache on` later is safe.
    pub fn cache_off(&mut self) -> Result<String, SessionError> {
        match self.cache.as_ref() {
            Some(cache) => {
                cache.set_enabled(false);
                Ok("result cache off".to_string())
            }
            None => Err("no result cache attached (server-only feature)".to_string()),
        }
    }

    /// Machine-parseable cache counters (the `cache stats` command):
    /// one `totals:` line plus one watermark line per shard, following
    /// the `shards` command's `key=value` convention.
    pub fn cache_stats_text(&self) -> Result<String, SessionError> {
        let cache = self
            .cache
            .as_ref()
            .ok_or_else(|| "no result cache attached (server-only feature)".to_string())?;
        let s = cache.stats();
        let mut out = format!("cache: enabled={}\n", s.enabled);
        out.push_str(&format!(
            "totals: hits={} misses={} fills={} invalidations={} stale_served={} \
             hit_ratio={:.4} entries={} bytes={}\n",
            s.hits,
            s.misses,
            s.fills,
            s.invalidations,
            s.stale_served,
            s.hit_ratio,
            s.entries,
            s.bytes,
        ));
        let engine_lsns: Vec<u64> = match self.engine.as_ref() {
            Some(sharded) => sharded.shard_stats().iter().map(|st| st.last_lsn).collect(),
            None => Vec::new(),
        };
        for (i, w) in s.per_shard.iter().enumerate() {
            // Invalidation lag: deltas the engine has committed that the
            // cache has not been notified of. Synchronous taps keep it
            // at zero; nonzero means notifications are being lost.
            let lag = engine_lsns
                .get(i)
                .map(|&l| l.saturating_sub(w.lsn))
                .unwrap_or(0);
            out.push_str(&format!(
                "cache_shard {i}: epoch={} lsn={} lag={}\n",
                w.epoch, w.lsn, lag
            ));
        }
        Ok(out.trim_end().to_string())
    }

    /// Per-procedure workload counters (the `stats` command): accesses,
    /// conflicting updates, the per-procedure `k/q` conflict rate, and —
    /// once the engine is live and the procedure has been accessed — the
    /// strategy [`procdb_core::decide_one`] would pick for it today.
    pub fn stats_text(&self) -> String {
        let obs = self.observer.lock();
        let mut out = format!("operations: {}\n", obs.operations);
        for (i, (name, _)) in self.views.iter().enumerate() {
            let s = obs.stats(i);
            let rate = obs
                .conflict_rate(i)
                .map(|r| format!("{r:.2}"))
                .unwrap_or_else(|| "-".to_string());
            let advice = match (self.engine.as_ref(), obs.conflict_rate(i)) {
                (Some(sharded), Some(rate)) => {
                    let c = self.constants;
                    // Full-relation estimates: the sum of each shard's
                    // estimate over its slice.
                    let (mut recompute_ms, mut cached_read_ms) = (0.0, 0.0);
                    for s in 0..sharded.shards() {
                        sharded.with_engine(s, |e| {
                            recompute_ms += e.estimate_recompute_ms(i, &c);
                            cached_read_ms += e.estimate_cached_read_ms(i, &c).unwrap_or(c.c2);
                        });
                    }
                    let input = procdb_core::DecisionInput {
                        recompute_ms,
                        // Always Recompute keeps no cache to measure; a
                        // one-page read stands in for the hypothetical one.
                        cached_read_ms,
                        conflict_rate: rate,
                        // Shell updates re-key one base tuple at a time.
                        tuples_per_conflict: 1.0,
                    };
                    procdb_core::decide_one(&input, &c).label()
                }
                _ => "-",
            };
            out.push_str(&format!(
                "  {name}: {} accesses, {} conflicting updates, conflict rate {rate}, \
                 advisor {advice}\n",
                s.accesses, s.conflicting_updates
            ));
        }
        if self.views.is_empty() {
            out.push_str("  (no procedures defined)\n");
        }
        match self.engine.as_ref() {
            // One unpartitioned, unreplicated engine reports its own
            // recovery history in place of a one-row shard table.
            Some(sharded) if sharded.shards() == 1 && sharded.replicas() == 1 => {
                out.push_str(&sharded.with_engine(0, recovery_line));
            }
            Some(sharded) => {
                out.push_str(&format!(
                    "shards: {} ({} cross-shard moves)\n",
                    sharded.shards(),
                    sharded.cross_moves(),
                ));
                if sharded.replicas() > 1 {
                    out.push_str(&format!(
                        "replicas: {} per shard, {} failover(s), {} hedged read(s)\n",
                        sharded.replicas(),
                        sharded.failovers(),
                        sharded.hedged_read_count(),
                    ));
                }
                for st in sharded.shard_stats() {
                    out.push_str(&format!(
                        "  shard {}: {} accesses, {} updates, buffer hit ratio {:.2}, \
                         conflict rate {:.2}, {} R1 rows, crash epoch {}",
                        st.shard,
                        st.accesses,
                        st.updates,
                        st.hit_ratio(),
                        st.conflict_rate(),
                        st.r1_rows,
                        st.crash_epoch,
                    ));
                    if st.rebuilds_pending > 0 {
                        out.push_str(&format!(", {} rebuild(s) pending", st.rebuilds_pending));
                    }
                    if let Some(vf) = st.valid_fraction {
                        out.push_str(&format!(", valid fraction {vf:.2}"));
                    }
                    if st.replicas > 1 {
                        out.push_str(&format!(
                            ", group epoch {}, {} fenced write(s), breaker {}",
                            st.epoch, st.fenced, st.breaker,
                        ));
                    }
                    out.push('\n');
                    if st.replicas > 1 {
                        for rs in &st.replica_status {
                            out.push_str(&format!(
                                "    replica {}: {}, applied lsn {} (lag {})\n",
                                rs.replica, rs.role, rs.applied_lsn, rs.lag,
                            ));
                        }
                    }
                }
            }
            None => {}
        }
        if let Some(cache) = self.cache.as_ref() {
            let s = cache.stats();
            out.push_str(&format!(
                "cache: {}, {} entries ({} bytes), {} hits / {} misses \
                 (hit ratio {:.2}), {} fills, {} invalidations, {} stale served\n",
                if s.enabled { "on" } else { "off" },
                s.entries,
                s.bytes,
                s.hits,
                s.misses,
                s.hit_ratio,
                s.fills,
                s.invalidations,
                s.stale_served,
            ));
        }
        out
    }

    /// Machine-parseable per-shard status (the `shards` command): one
    /// `key=value` line per shard.
    pub fn shards_text(&self) -> String {
        match self.engine.as_ref() {
            Some(sharded) => {
                let mut out = format!("shards: {}\n", sharded.shards());
                out.push_str(&format!("cross_moves: {}\n", sharded.cross_moves()));
                out.push_str(&format!("replicas: {}\n", sharded.replicas()));
                for st in sharded.shard_stats() {
                    out.push_str(&format!(
                        "shard {}: accesses={} updates={} escalations={} hits={} faults={} \
                         hit_ratio={:.4} conflict_rate={:.4} crash_epoch={} \
                         rebuilds_pending={} r1_rows={} access_ms={:.3} \
                         replicas={} live={} primary={} last_lsn={} max_lag={} failovers={} \
                         epoch={} fenced={} breaker={} breaker_sheds={}\n",
                        st.shard,
                        st.accesses,
                        st.updates,
                        st.escalations,
                        st.buffer_hits,
                        st.buffer_faults,
                        st.hit_ratio(),
                        st.conflict_rate(),
                        st.crash_epoch,
                        st.rebuilds_pending,
                        st.r1_rows,
                        st.access_ms_sum,
                        st.replicas,
                        st.live_replicas,
                        st.primary_replica,
                        st.last_lsn,
                        st.max_replica_lag,
                        st.failovers,
                        st.epoch,
                        st.fenced,
                        st.breaker,
                        st.breaker_sheds,
                    ));
                    if st.replicas > 1 {
                        for rs in &st.replica_status {
                            out.push_str(&format!(
                                "replica {}.{}: role={} applied_lsn={} lag={}\n",
                                st.shard, rs.replica, rs.role, rs.applied_lsn, rs.lag,
                            ));
                        }
                    }
                }
                out.trim_end().to_string()
            }
            None => format!("shards: {} (engine not built yet)", self.shards),
        }
    }

    /// Prometheus text exposition of the process-global metric registry,
    /// with session-level gauges (CI valid fraction, total priced cost)
    /// refreshed first (the `metrics` command).
    pub fn metrics_text(&self) -> String {
        let reg = procdb_obs::global();
        if let Some(sharded) = self.engine.as_ref() {
            reg.gauge("procdb_shard_count", &[])
                .set(sharded.shards() as f64);
            reg.gauge("procdb_replica_count", &[])
                .set(sharded.replicas() as f64);
            reg.gauge("procdb_session_cost_ms", &[])
                .set(self.total_cost_ms());
            for st in sharded.shard_stats() {
                let shard = st.shard.to_string();
                let labels = [("shard", shard.as_str())];
                reg.gauge("procdb_shard_buffer_hit_ratio", &labels)
                    .set(st.hit_ratio());
                reg.gauge("procdb_shard_conflict_rate", &labels)
                    .set(st.conflict_rate());
                reg.gauge("procdb_replica_live", &labels)
                    .set(st.live_replicas as f64);
                reg.gauge("procdb_replica_primary", &labels)
                    .set(st.primary_replica as f64);
                reg.gauge("procdb_replica_max_lag", &labels)
                    .set(st.max_replica_lag as f64);
                reg.gauge("procdb_replica_epoch", &labels)
                    .set(st.epoch as f64);
                if let Some(vf) = st.valid_fraction {
                    reg.gauge("procdb_ci_valid_fraction", &labels).set(vf);
                }
            }
        }
        reg.render_prometheus()
    }

    /// Enable or disable span recording (the `trace on|off` command).
    pub fn set_tracing(&self, on: bool) {
        procdb_obs::global().set_tracing(on);
    }

    /// Whether spans are currently recorded.
    pub fn tracing_enabled(&self) -> bool {
        procdb_obs::global().tracing_enabled()
    }

    /// How many spans `explain` dumps per procedure.
    const SPAN_DUMP_LIMIT: usize = 10;

    /// EXPLAIN a view: the precompiled plan, plus (when tracing has
    /// recorded any) the most recent spans touching this procedure —
    /// accesses and recomputes with their predicted/observed costs.
    pub fn explain(&self, view: &str) -> Result<String, SessionError> {
        let idx = self.view_index(view)?;
        let def = &self.views[idx].1;
        let mut out = def.to_plan().explain();
        let reg = procdb_obs::global();
        let spans = reg.recent_spans(Self::SPAN_DUMP_LIMIT, |e| {
            e.field("proc") == Some(idx as f64)
        });
        if !spans.is_empty() {
            if !out.ends_with('\n') {
                out.push('\n');
            }
            out.push_str("recent spans (oldest first):\n");
            for s in &spans {
                out.push_str(&s.render());
                out.push('\n');
            }
        } else if self.tracing_enabled() {
            if !out.ends_with('\n') {
                out.push('\n');
            }
            out.push_str("recent spans: none recorded yet (run an access)\n");
        }
        Ok(out)
    }

    /// Pretty row rendering against the base schemas (for display).
    pub fn render_rows(&self, rows: &[Tuple], limit: usize) -> String {
        let mut out = String::new();
        for row in rows.iter().take(limit) {
            let cells: Vec<String> = row
                .iter()
                .map(|v| match v {
                    Value::Int(i) => i.to_string(),
                    Value::Bytes(b) => {
                        let end = b.iter().position(|&c| c == 0).unwrap_or(b.len());
                        format!("{:?}", String::from_utf8_lossy(&b[..end]))
                    }
                })
                .collect();
            out.push_str(&format!("  ({})\n", cells.join(", ")));
        }
        if rows.len() > limit {
            out.push_str(&format!("  ... {} more\n", rows.len() - limit));
        }
        out
    }

    /// Summary of the table used by `show tables`.
    pub fn table_summary(&self, name: &str) -> Result<String, SessionError> {
        let t = self.table(name)?;
        // A built engine holds the base table's rows.
        let rows = match self.engine.as_ref() {
            Some(sharded) if t.name == self.tables[0].name => sharded.r1_len() as usize,
            _ => t.rows.len(),
        };
        let org = match t.org {
            Organization::BTree { key_field } => {
                format!("btree on {}", t.schema.fields()[key_field].name)
            }
            Organization::Hash { key_field } => {
                format!("hash on {}", t.schema.fields()[key_field].name)
            }
            Organization::Heap => "heap".to_string(),
        };
        Ok(format!("{} ({rows} rows, {org})", t.name))
    }
}

/// The `stats` line on one engine's crash/recovery history.
fn recovery_line(e: &Engine) -> String {
    let mut out = format!("recovery: {} crash(es)", e.crash_epoch());
    if let Some(rep) = e.last_recovery() {
        out.push_str(&format!(
            "; last recovery replayed {} WAL records ({} bytes), \
             {} conservative invalidations",
            rep.wal_records_replayed, rep.wal_bytes_replayed, rep.conservative_invalidations,
        ));
    }
    if let Some((log, tail)) = e.wal_stats() {
        out.push_str(&format!(
            "; validity WAL {log} bytes ({tail} past checkpoint)"
        ));
    }
    let pending = e.rebuilds_pending();
    if pending > 0 {
        out.push_str(&format!("; {pending} rebuild(s) pending"));
    }
    out.push('\n');
    out
}

impl Default for Session {
    fn default() -> Self {
        Session::new()
    }
}

// Connection threads share one `Session` behind a readers-writer lock.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Session>()
};

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_session() -> Session {
        let mut s = Session::new();
        s.create_table(
            "EMP",
            Schema::new(vec![
                ("eid", FieldType::Int),
                ("dept", FieldType::Int),
                ("job", FieldType::Bytes(8)),
            ]),
            Organization::BTree { key_field: 0 },
        )
        .unwrap();
        s.create_table(
            "DEPT",
            Schema::new(vec![("dname", FieldType::Int), ("floor", FieldType::Int)]),
            Organization::Hash { key_field: 0 },
        )
        .unwrap();
        for d in 0..4i64 {
            s.insert("DEPT", vec![Value::Int(d), Value::Int(d % 2)])
                .unwrap();
        }
        for i in 0..40i64 {
            s.insert(
                "EMP",
                vec![
                    Value::Int(i),
                    Value::Int(i % 4),
                    Value::Bytes(b"w".to_vec()),
                ],
            )
            .unwrap();
        }
        s
    }

    #[test]
    fn create_insert_define_access() {
        let mut s = demo_session();
        let name = s
            .define_view(
                "define view F0 (EMP.all, DEPT.all) \
                 where EMP.dept = DEPT.dname and DEPT.floor = 0",
            )
            .unwrap();
        assert_eq!(name, "F0");
        let (rows, ms) = s.access("F0").unwrap();
        assert_eq!(rows.len(), 20); // depts 0, 2 are floor 0
        assert!(ms > 0.0);
    }

    #[test]
    fn strategy_switch_preserves_answers() {
        let mut s = demo_session();
        s.define_view("define view V (EMP.all) where EMP.eid >= 10 and EMP.eid <= 19")
            .unwrap();
        let (rows_ar, _) = s.access("V").unwrap();
        for kind in [
            StrategyKind::CacheInvalidate,
            StrategyKind::UpdateCacheAvm,
            StrategyKind::UpdateCacheRvm,
        ] {
            s.set_strategy(kind);
            let (rows, _) = s.access("V").unwrap();
            assert_eq!(rows.len(), rows_ar.len(), "{kind}");
        }
    }

    #[test]
    fn updates_flow_through_live_engine() {
        let mut s = demo_session();
        s.define_view("define view V (EMP.all) where EMP.eid >= 10 and EMP.eid <= 19")
            .unwrap();
        s.set_strategy(StrategyKind::UpdateCacheRvm);
        assert_eq!(s.access("V").unwrap().0.len(), 10);
        let (n, _) = s.update(15, 99).unwrap();
        assert_eq!(n, 1);
        assert_eq!(s.access("V").unwrap().0.len(), 9);
        // The rows taken back out of the engine carry the re-key, so a
        // strategy switch (rebuild) sees the same data.
        s.set_strategy(StrategyKind::AlwaysRecompute);
        assert_eq!(s.access("V").unwrap().0.len(), 9);
    }

    #[test]
    fn inserts_after_engine_build_are_maintained() {
        let mut s = demo_session();
        s.define_view("define view V (EMP.all) where EMP.eid >= 10 and EMP.eid <= 19")
            .unwrap();
        s.set_strategy(StrategyKind::UpdateCacheAvm);
        assert_eq!(s.access("V").unwrap().0.len(), 10);
        s.insert(
            "EMP",
            vec![Value::Int(12), Value::Int(1), Value::Bytes(b"x".to_vec())],
        )
        .unwrap();
        assert_eq!(s.access("V").unwrap().0.len(), 11);
    }

    #[test]
    fn errors_are_descriptive() {
        let mut s = Session::new();
        assert!(s.access("nope").is_err());
        assert!(s
            .create_table(
                "T",
                Schema::new(vec![("x", FieldType::Bytes(4))]),
                Organization::BTree { key_field: 0 }
            )
            .is_err());
        s.create_table(
            "T",
            Schema::new(vec![("x", FieldType::Int)]),
            Organization::BTree { key_field: 0 },
        )
        .unwrap();
        assert!(
            s.create_table(
                "T",
                Schema::new(vec![("x", FieldType::Int)]),
                Organization::Heap
            )
            .is_err(),
            "duplicate table"
        );
        assert!(s.insert("T", vec![]).is_err(), "arity");
        assert!(s.define_view("define view V (NOPE.all)").is_err());
    }

    #[test]
    fn explain_and_summaries() {
        let mut s = demo_session();
        s.define_view("define view F0 (EMP.all, DEPT.all) where EMP.dept = DEPT.dname")
            .unwrap();
        assert!(s.explain("F0").unwrap().contains("HashJoin"));
        assert!(s.table_summary("EMP").unwrap().contains("btree on eid"));
        assert!(s.table_summary("DEPT").unwrap().contains("hash on dname"));
        let rendered = s.render_rows(&[vec![Value::Int(1), Value::Bytes(b"hi\0\0".to_vec())]], 5);
        assert!(rendered.contains("1, \"hi\""));
    }

    #[test]
    fn shared_access_escalates_then_serves() {
        let mut s = demo_session();
        s.define_view("define view V (EMP.all) where EMP.eid >= 10 and EMP.eid <= 19")
            .unwrap();
        // No engine yet: the shared path asks the caller to escalate.
        assert_eq!(s.access_shared("V").unwrap(), None);
        s.prepare().unwrap();
        let (rows, ms) = s.access_shared("V").unwrap().expect("engine is live");
        assert_eq!(rows.len(), 10);
        assert!(ms > 0.0);
        // Unknown views fail on either path.
        assert!(s.access_shared("nope").is_err());
    }

    #[test]
    fn shared_access_declines_invalid_ci_cache() {
        let mut s = demo_session();
        s.define_view("define view V (EMP.all) where EMP.eid >= 10 and EMP.eid <= 19")
            .unwrap();
        s.set_strategy(StrategyKind::CacheInvalidate);
        s.prepare().unwrap();
        assert!(
            s.access_shared("V").unwrap().is_some(),
            "warm cache is valid"
        );
        // A conflicting update invalidates; the shared path must decline.
        s.update(15, 99).unwrap();
        assert_eq!(s.access_shared("V").unwrap(), None);
        // The exclusive path refills, after which shared reads work again.
        assert_eq!(s.access("V").unwrap().0.len(), 9);
        assert_eq!(s.access_shared("V").unwrap().unwrap().0.len(), 9);
    }

    #[test]
    fn stats_include_advisor_pick() {
        let mut s = demo_session();
        s.define_view("define view V (EMP.all) where EMP.eid >= 10 and EMP.eid <= 19")
            .unwrap();
        // Before any access the advisor has no conflict rate: dash.
        assert!(s.stats_text().contains("advisor -"), "{}", s.stats_text());
        // Read-only workload: maintaining a cache is free, so the
        // advisor must pick an Update Cache flavor.
        for _ in 0..3 {
            s.access("V").unwrap();
        }
        let text = s.stats_text();
        assert!(text.contains("advisor UpdateCache"), "{text}");
    }

    #[test]
    fn metrics_text_renders_global_registry() {
        let mut s = demo_session();
        s.define_view("define view V (EMP.all) where EMP.eid >= 10 and EMP.eid <= 19")
            .unwrap();
        s.set_strategy(StrategyKind::CacheInvalidate);
        s.access("V").unwrap();
        let text = s.metrics_text();
        assert!(text.contains("procdb_engine_accesses_total"), "{text}");
        assert!(text.contains("procdb_pager_reads_total"), "{text}");
        assert!(text.contains("procdb_session_cost_ms"), "{text}");
        assert!(text.contains("procdb_ci_valid_fraction"), "{text}");
        assert!(!text.contains("NaN"), "{text}");
    }

    #[test]
    fn explain_appends_spans_when_tracing() {
        let mut s = demo_session();
        s.define_view("define view V (EMP.all) where EMP.eid >= 10 and EMP.eid <= 19")
            .unwrap();
        // Tracing off: the plan alone.
        s.access("V").unwrap();
        s.set_tracing(true);
        let plain = s.explain("V").unwrap();
        assert!(
            plain.contains("recent spans: none recorded yet") || plain.contains("recent spans ("),
            "{plain}"
        );
        s.access("V").unwrap();
        let text = s.explain("V").unwrap();
        s.set_tracing(false);
        assert!(text.contains("recent spans (oldest first):"), "{text}");
        assert!(text.contains("access"), "{text}");
        assert!(text.contains("observed_ms"), "{text}");
    }

    #[test]
    fn stats_count_accesses_and_conflicts() {
        let mut s = demo_session();
        s.define_view("define view V (EMP.all) where EMP.eid >= 10 and EMP.eid <= 19")
            .unwrap();
        s.define_view("define view W (EMP.all) where EMP.eid >= 30 and EMP.eid <= 39")
            .unwrap();
        s.access("V").unwrap();
        s.access("V").unwrap();
        s.access("W").unwrap();
        // Re-keys 15 -> 12: inside V's window, outside W's.
        s.update(15, 12).unwrap();
        // Misses entirely (no tuple with key 500).
        s.update(500, 501).unwrap();
        let text = s.stats_text();
        assert!(text.contains("operations: 5"), "{text}");
        assert!(
            text.contains("V: 2 accesses, 1 conflicting updates"),
            "{text}"
        );
        assert!(
            text.contains("W: 1 accesses, 0 conflicting updates"),
            "{text}"
        );
    }
}
