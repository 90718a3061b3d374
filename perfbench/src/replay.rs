//! In-process replay: the command stream a traced window sent, run again
//! through the program's public `ResultCache`, `Session` and `execute`
//! in the order the server's request path calls them, with a span
//! around each call. No network, no other client: the difference to the
//! served round trip is transport, admission, lock wait and hand-off.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use procdb_cache::ResultCache;
use procdb_query::Value;
use procdb_server::{execute, parse, Command, Outcome, Session};

use crate::drive::Cmd;
use crate::gen::apply_rekeys;
use crate::server::{reply_rows, Metrics};
use crate::workload::Workload;

/// Span totals of one replay.
#[derive(Debug, Default)]
pub struct Replay {
    /// Accesses replayed.
    pub accesses: u64,
    /// Accesses the front cache answered.
    pub hits: u64,
    /// Accesses served by `Session::access_shared`.
    pub shared: u64,
    /// Accesses where `access_shared` returned `None` and the exclusive
    /// `execute` path ran.
    pub escalations: u64,
    /// Fill tickets issued, and fills the cache accepted.
    pub tickets: u64,
    /// Fills accepted.
    pub fills: u64,
    /// Re-keys replayed.
    pub rekeys: u64,
    /// Time in `ResultCache::lookup`.
    pub lookup_ns: u64,
    /// Time in `begin_fill` plus `try_fill`.
    pub fill_ns: u64,
    /// Time in the session's access calls (shared, or escalated).
    pub session_access_ns: u64,
    /// Time rendering rows for shared-path accesses.
    pub render_ns: u64,
    /// Time in the session's update calls.
    pub session_update_ns: u64,
    /// In-process engine metric deltas over the replay.
    pub engine: Metrics,
    /// Wrong answers found.
    pub problems: Vec<String>,
}

impl Replay {
    /// In-process time per access, every layer together (µs).
    pub fn access_us(&self) -> f64 {
        let ns = self.lookup_ns + self.fill_ns + self.session_access_ns + self.render_ns;
        per(ns as f64, self.accesses) / 1e3
    }

    /// In-process time per re-key (µs).
    pub fn update_us(&self) -> f64 {
        per(self.session_update_ns as f64, self.rekeys) / 1e3
    }
}

/// `num / den`, or 0 without a denominator.
pub fn per(num: f64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num / den as f64
    }
}

fn ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

struct Stack<'a> {
    wl: &'a Workload,
    names: Vec<String>,
    expected_rows: &'a [usize],
    session: Session,
    cache: Arc<ResultCache>,
    out: Replay,
}

impl Stack<'_> {
    fn run_line(&mut self, line: &str) -> Result<String, String> {
        let cmd = parse(line)?.ok_or_else(|| format!("empty command {line:?}"))?;
        match execute(&mut self.session, cmd)? {
            Outcome::Text(t) => Ok(t),
            Outcome::Quit => Err(format!("{line:?} quit the session")),
        }
    }

    /// The server's access path: front cache, then the shared session
    /// read, else the exclusive one.
    fn access(&mut self, p: usize) -> Result<(), String> {
        let name = &self.names[p];
        let o = &mut self.out;
        o.accesses += 1;
        let t = Instant::now();
        let hit = self.cache.lookup(name);
        o.lookup_ns += ns(t);
        let first = if let Some(body) = hit {
            o.hits += 1;
            body.lines().next().unwrap_or("").to_string()
        } else {
            let t = Instant::now();
            let ticket = self.cache.begin_fill();
            o.fill_ns += ns(t);
            let t = Instant::now();
            let shared = self.session.access_shared(name)?;
            o.session_access_ns += ns(t);
            match shared {
                Some((rows, ms)) => {
                    o.shared += 1;
                    let t = Instant::now();
                    let mut text = format!("{} rows in {ms:.1} model-ms:\n", rows.len());
                    text.push_str(&self.session.render_rows(&rows, 20));
                    o.render_ns += ns(t);
                    if let Some(ticket) = ticket {
                        o.tickets += 1;
                        let t = Instant::now();
                        let stored = self.cache.try_fill(name, &ticket, text.clone(), rows.len());
                        o.fill_ns += ns(t);
                        o.fills += u64::from(stored);
                    }
                    text.lines().next().unwrap_or("").to_string()
                }
                None => {
                    o.escalations += 1;
                    let t = Instant::now();
                    let out = execute(&mut self.session, Command::Access(name.clone()))?;
                    self.out.session_access_ns += ns(t);
                    match out {
                        Outcome::Text(text) => text.lines().next().unwrap_or("").to_string(),
                        Outcome::Quit => String::new(),
                    }
                }
            }
        };
        if reply_rows(&first) != Some(self.expected_rows[p]) {
            self.problem(format!("in-process access {name} answered {first:?}"));
        }
        Ok(())
    }

    /// The server's update path: shared (sharded backends), else
    /// exclusive through `execute`.
    fn rekey(&mut self, victim: i64, new_key: i64) -> Result<(), String> {
        self.out.rekeys += 1;
        let t = Instant::now();
        let n = match self.session.update_shared(victim, new_key)? {
            Some((n, _)) => n,
            None => match execute(&mut self.session, Command::Update(victim, new_key))? {
                Outcome::Text(t) => t
                    .split(' ')
                    .next()
                    .and_then(|n| n.parse().ok())
                    .unwrap_or(0),
                Outcome::Quit => 0,
            },
        };
        self.out.session_update_ns += ns(t);
        if n != 1 {
            self.problem(format!(
                "in-process re-key {victim} -> {new_key} moved {n} rows"
            ));
        }
        Ok(())
    }

    fn problem(&mut self, msg: String) {
        if self.out.problems.len() < 5 {
            self.out.problems.push(msg);
        }
    }
}

/// Build `wl`'s session in process, warm it like the served one, then
/// replay `streams` (interleaved, each in its send order) for at most
/// `budget`. Finally every view is read in full and compared with the
/// relation the replayed re-keys produce.
pub fn replay(
    wl: &Workload,
    streams: &[&[Cmd]],
    expected_rows: &[usize],
    budget: Duration,
) -> Result<Replay, String> {
    let cache = Arc::new(ResultCache::new());
    let mut session = Session::new();
    session.attach_cache(cache.clone());
    let mut st = Stack {
        wl,
        names: wl.view_names(),
        expected_rows,
        session,
        cache,
        out: Replay::default(),
    };
    for line in wl.load_lines().iter().chain(&wl.config_lines()) {
        st.run_line(line)?;
    }
    for p in 0..wl.mix.procs {
        st.access(p)?;
    }
    st.out = Replay::default();
    let mut model = wl.layout().initial_rows();
    let before = Metrics::parse(&st.session.metrics_text());
    let start = Instant::now();
    let longest = streams.iter().map(|s| s.len()).max().unwrap_or(0);
    'replay: for i in 0..longest {
        for s in streams {
            if start.elapsed() > budget {
                break 'replay;
            }
            match s.get(i) {
                Some(Cmd::Access(p)) => st.access(*p)?,
                Some(Cmd::Rekey(r)) => {
                    st.rekey(r.victim, r.new_key)?;
                    if !apply_rekeys(&mut model, [r]) {
                        st.problem(format!("replayed re-key {r:?} broke the model"));
                    }
                }
                None => {}
            }
        }
    }
    st.out.engine = Metrics::parse(&st.session.metrics_text()).since(&before);
    for p in 0..wl.mix.procs {
        let name = st.names[p].clone();
        let (rows, _) = st.session.access(&name)?;
        let mut got: Vec<(i64, i64)> = rows
            .iter()
            .filter_map(|r| match (r.first(), r.get(1)) {
                (Some(Value::Int(k)), Some(Value::Int(d))) => Some((*k, *d)),
                _ => None,
            })
            .collect();
        got.sort_unstable();
        if got != st.wl.expected_rows(&model, p) {
            st.problem(format!("in-process view {name} differs from the model"));
        }
    }
    Ok(st.out)
}

/// Relation model after a window: the seeded rows with every
/// acknowledged re-key applied (connections own disjoint keys, so the
/// order between connections does not matter).
pub fn model_after(wl: &Workload, acked: &[&[crate::gen::Rekey]]) -> Option<BTreeMap<i64, i64>> {
    let mut model = wl.layout().initial_rows();
    acked
        .iter()
        .all(|rs| apply_rekeys(&mut model, rs.iter()))
        .then_some(model)
}
