//! `perfbench`: procdb's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --server PATH --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]
//! perfbench --benchmark-json
//! ```
//!
//! Each run starts a fresh `procdb-server` process per measured window,
//! loads the workload's schema, reads every view once, then drives a
//! closed loop of two client connections for the window. Untraced runs
//! (`--trace 0`) report the end-to-end metrics; traced runs
//! (`--trace 1`) split the same traffic across the layers, from outside
//! the program: client spans around the codec, server counter deltas,
//! and an in-process replay through the public `ResultCache`, `Session`
//! and `execute`. Every run checks the served answers against the
//! generator's model of the relation and exits non-zero if one is wrong.
//! The last line of stdout is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.

mod drive;
mod gen;
mod replay;
mod report;
mod server;
mod stats;
mod workload;

use std::collections::BTreeMap;
use std::time::Duration;

use drive::{Cmd, Window};
use replay::{model_after, per, replay, Replay};
use report::{END_TO_END, PER_LAYER};
use server::{Control, Metrics};
use stats::{json_num, json_str, median, sliced_percentile, tail_percentile};
use workload::{Workload, CONNS, WORKLOADS};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 8;

struct Args {
    server: String,
    workloads: Vec<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --server PATH --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]\n\
         \x20      perfbench --benchmark-json\n\
         workloads: {}",
        WORKLOADS.map(|w| w.name).join(", ")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = std::env::args().skip(1);
    let mut out = Args {
        server: String::new(),
        workloads: Vec::new(),
        seed: 1,
        seconds: report::RUN_SECONDS as f64,
        trace: false,
    };
    while let Some(flag) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--benchmark-json" => {
                print!("{}", report::benchmark_json());
                std::process::exit(0);
            }
            "--server" => out.server = value(),
            "--workload" => {
                let v = value();
                out.workloads = if v == "all" {
                    WORKLOADS.iter().collect()
                } else {
                    vec![workload::by_name(&v).unwrap_or_else(|| usage())]
                };
            }
            "--seed" => out.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                // Each of the SETUPS windows needs at least one whole second.
                out.seconds = value().parse().unwrap_or_else(|_| usage());
                if !out.seconds.is_finite() || out.seconds < SETUPS as f64 {
                    usage();
                }
            }
            "--trace" => {
                out.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    if out.server.is_empty() || out.workloads.is_empty() {
        usage();
    }
    out
}

/// One workload's outcome.
struct Outcome {
    metrics: Vec<(&'static str, &'static str, f64)>,
    /// Human-readable details beside the metrics (percentile levels and
    /// sample counts, error rate).
    notes: Vec<String>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

fn main() {
    let args = parse_args();
    println!("host: {}", host_json());
    let mut results = Vec::new();
    for wl in &args.workloads {
        let outcome = if args.trace {
            run_traced(&args, wl)
        } else {
            run_untraced(&args, wl)
        };
        let outcome = outcome.unwrap_or_else(|e| Outcome {
            metrics: Vec::new(),
            notes: Vec::new(),
            attempted: 0,
            failed: 0,
            problems: vec![format!("run aborted: {e}")],
        });
        print_outcome(wl, args.seed, &outcome);
        results.push((wl.name, outcome));
    }
    let correct = results
        .iter()
        .all(|(_, o)| o.problems.is_empty() && !o.metrics.is_empty());
    let single = results.len() == 1;
    let metrics: Vec<String> = results
        .iter()
        .flat_map(|(name, o)| {
            o.metrics.iter().map(move |(m, unit, v)| {
                let key = if single {
                    m.to_string()
                } else {
                    format!("{name}.{m}")
                };
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(&key),
                    json_num(*v),
                    json_str(unit)
                )
            })
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        results.iter().map(|(_, o)| o.attempted).sum::<u64>().max(1),
        results.iter().map(|(_, o)| o.failed).sum::<u64>(),
        metrics.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}

fn print_outcome(wl: &Workload, seed: u64, o: &Outcome) {
    println!("workload {} (seed {seed}):", wl.name);
    let about = |name: &str| {
        END_TO_END
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.about)
            .or_else(|| PER_LAYER.iter().find(|m| m.name == name).map(|m| m.moves))
            .unwrap_or("")
    };
    for (name, unit, v) in &o.metrics {
        println!("  {name:<32} {v:>14.4} {unit:<8} {}", about(name));
    }
    for note in &o.notes {
        println!("  note: {note}");
    }
    for p in &o.problems {
        println!("  CHECK FAILED: {p}");
    }
}

/// Host facts recorded with every result.
fn host_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|l| l.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let sha = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".to_string());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\"nproc\": {nproc}, \"cpu\": {}, \"profile\": {}, \"git_sha\": {}}}",
        json_str(&cpu),
        json_str(profile),
        json_str(&sha)
    )
}

/// Rows each procedure returns (constant: re-keys stay in their window).
fn expected_rows(wl: &Workload) -> Vec<usize> {
    let model = wl.layout().initial_rows();
    (0..wl.mix.procs)
        .map(|p| wl.expected_rows(&model, p).len())
        .collect()
}

/// A window measured on a fresh server, with what surrounds it: set-up
/// time, server counter deltas, output checks and peak memory.
struct Measured {
    window: Window,
    setup_s: f64,
    /// Server `metrics` deltas over the window, and the scrape after it.
    metrics: Metrics,
    metrics_after: Metrics,
    /// `cache stats` totals before and after the window.
    cache: [BTreeMap<String, f64>; 2],
    rss_mib: f64,
    /// v2 `PING` p50 after the window (traced windows only).
    ping_p50_us: f64,
    problems: Vec<String>,
}

impl Measured {
    fn cache_delta(&self, key: &str) -> f64 {
        let get = |m: &BTreeMap<String, f64>| m.get(key).copied().unwrap_or(0.0);
        get(&self.cache[1]) - get(&self.cache[0])
    }
}

fn measure(
    args: &Args,
    wl: &Workload,
    seed: u64,
    len: Duration,
    traced: bool,
) -> Result<Measured, String> {
    let expected = expected_rows(wl);
    let (srv, setup) = server::start(&args.server, wl)?;
    let mut control = Control::connect(&srv.addr)?;
    let (m0, c0) = (control.metrics()?, control.cache_totals()?);
    let window = drive::drive(&srv.addr, wl, seed, len, traced, &expected)?;
    let (m1, c1) = (control.metrics()?, control.cache_totals()?);
    let mut m = Measured {
        window,
        setup_s: setup.as_secs_f64(),
        metrics: m1.since(&m0),
        metrics_after: m1,
        cache: [c0, c1],
        rss_mib: 0.0,
        ping_p50_us: 0.0,
        problems: Vec::new(),
    };
    m.problems = window_problems(wl, &m.window, &mut control, m.cache_delta("stale_served"))?;
    if traced {
        m.ping_p50_us = ping_p50_us(&srv.addr)?;
    }
    m.rss_mib = srv.peak_rss_mib()?;
    drop(control);
    srv.stop()?;
    Ok(m)
}

/// Checks shared by every measured window: answers during the window,
/// the served views and base relation afterwards, and no stale bodies.
fn window_problems(
    wl: &Workload,
    window: &Window,
    control: &mut Control,
    stale_served: f64,
) -> Result<Vec<String>, String> {
    let mut problems: Vec<String> = window
        .conns
        .iter()
        .flat_map(|c| c.problems.clone())
        .collect();
    let wrong = window.total(|c| c.wrong);
    if wrong > problems.len() as u64 {
        problems.push(format!("{wrong} wrong or failed answers in total"));
    }
    if stale_served != 0.0 {
        problems.push(format!("front cache served {stale_served} stale bodies"));
    }
    let acked: Vec<&[gen::Rekey]> = window.conns.iter().map(|c| c.acked.as_slice()).collect();
    match model_after(wl, &acked) {
        Some(model) => problems.extend(control.check_outputs(wl, &model)?),
        None => problems.push("acknowledged re-keys do not replay onto the seeded relation".into()),
    }
    Ok(problems)
}

/// [`SETUPS`] windows, each on its own fresh server and with its own
/// inputs drawn from the seed. The timing metrics pool the windows'
/// quiet slots (see [`stats::quiet_slots`]); `setup_s` and
/// `server_rss_mb` are medians over the windows.
fn run_untraced(args: &Args, wl: &Workload) -> Result<Outcome, String> {
    let len = Duration::from_secs_f64(args.seconds / SETUPS as f64);
    let mut notes = Vec::new();
    let mut problems = Vec::new();
    let mut runs = Vec::new();
    for i in 0..SETUPS as u64 {
        let m = measure(args, wl, gen::sub_seed(args.seed, 100 + i), len, false)?;
        problems.extend(m.problems.iter().map(|p| format!("window {i}: {p}")));
        runs.push(m);
    }
    let steal: Vec<u64> = runs
        .iter()
        .flat_map(|m| m.window.steal.iter().copied())
        .collect();
    let keep = stats::quiet_slots(&steal);
    // Every window is `len` long, so each holds the same number of slots.
    let keeps: Vec<&[bool]> = keep.chunks(runs[0].window.steal.len()).collect();
    let slot_s = drive::SLOT.as_secs_f64();
    let per_slot: Vec<f64> = runs
        .iter()
        .zip(&keeps)
        .flat_map(|(m, k)| {
            let counts = m.window.per_slot();
            counts
                .into_iter()
                .zip(k.iter())
                .filter(|(_, &k)| k)
                .map(|(n, _)| n as f64 / slot_s)
                .collect::<Vec<_>>()
        })
        .collect();
    // At most one percentile slice per measured second.
    let measured = ((per_slot.len() as f64 * slot_s).round() as usize).max(1);
    let mut pct = |label: &str, update: bool, want: f64| {
        let lat: Vec<f64> = runs
            .iter()
            .zip(&keeps)
            .flat_map(|(m, k)| m.window.latencies_in(update, k))
            .collect();
        let p = sliced_percentile(&lat, want, measured);
        if let Some((p, k)) = p {
            notes.push(format!(
                "{label}: median over {k} slices of p{:.2}, {} samples{}",
                p.level * 100.0,
                p.count,
                if p.level < want {
                    " (highest level with 10 samples beyond it)"
                } else {
                    ""
                }
            ));
        }
        p.map_or(0.0, |(p, _)| p.value)
    };
    let attempted: u64 = runs.iter().map(|m| m.window.total(|c| c.attempted)).sum();
    let not_first_ok: u64 = runs
        .iter()
        .map(|m| m.window.total(|c| c.not_first_ok))
        .sum();
    let setups: Vec<f64> = runs.iter().map(|m| m.setup_s).collect();
    let rss: Vec<f64> = runs.iter().map(|m| m.rss_mib).collect();
    let values: Vec<f64> = END_TO_END
        .iter()
        .map(|e| match e.name {
            "throughput_ops_s" => median(&per_slot).unwrap_or(0.0),
            "access_p50_us" => pct(e.name, false, 0.5),
            "access_p95_us" => pct(e.name, false, 0.95),
            "update_p50_us" => pct(e.name, true, 0.5),
            "update_p99_us" => pct(e.name, true, 0.99),
            "ok_ratio" => 1.0 - per(not_first_ok as f64, attempted),
            "setup_s" => median(&setups).unwrap_or(0.0),
            "server_rss_mb" => median(&rss).unwrap_or(0.0),
            other => unreachable!("no rule for end-to-end metric {other}"),
        })
        .collect();
    for (i, (m, k)) in runs.iter().zip(&keeps).enumerate() {
        notes.push(format!(
            "window {i}: {} commands; {} of {} slots measured; host steal {} ticks",
            m.window.per_slot().iter().sum::<usize>(),
            k.iter().filter(|&&k| k).count(),
            k.len(),
            m.window.steal.iter().sum::<u64>()
        ));
    }
    notes.push(format!(
        "throughput_ops_s: median over {} of {} {} ms slots (the quiet ones)",
        per_slot.len(),
        keep.len(),
        drive::SLOT.as_millis()
    ));
    notes.push(format!(
        "setup_s: median of {setups:?}; server_rss_mb: median of {rss:?}"
    ));
    notes.push(format!(
        "error_rate = {} ({not_first_ok} of {attempted} commands not ok on the first attempt)",
        per(not_first_ok as f64, attempted)
    ));
    let torn: u64 = runs.iter().map(|m| m.window.total(|c| c.torn_reads)).sum();
    let accesses: usize = runs.iter().map(|m| m.window.latencies(false).len()).sum();
    notes.push(format!(
        "torn reads (row count off while a cross-shard move was half done): {torn} of {accesses} accesses"
    ));
    Ok(Outcome {
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(e, v)| (e.name, e.unit, v))
            .collect(),
        notes,
        attempted,
        failed: not_first_ok,
        problems,
    })
}

/// Mean of values.
fn mean(v: &[f64]) -> f64 {
    per(v.iter().sum(), v.len() as u64)
}

/// An untraced window for `trace_overhead_pct`, then a traced one with
/// client spans and server counters, then the in-process replay of the
/// traced window's commands.
fn run_traced(args: &Args, wl: &Workload) -> Result<Outcome, String> {
    let expected = expected_rows(wl);
    let phase = Duration::from_secs_f64(args.seconds * 0.35);
    let base = measure(args, wl, args.seed, phase, false)?;
    let traced = measure(args, wl, args.seed, phase, true)?;
    let streams: Vec<&[Cmd]> = traced
        .window
        .conns
        .iter()
        .map(|c| c.sent.as_slice())
        .collect();
    let rp = replay(
        wl,
        &streams,
        &expected,
        Duration::from_secs_f64(args.seconds * 0.2),
    )?;
    let mut problems = base.problems.clone();
    problems.extend(traced.problems.iter().cloned());
    problems.extend(rp.problems.iter().cloned());
    let (metrics, notes) = layer_metrics(wl, &base.window, &traced, &rp);
    // The in-process layers of each op type must fit inside the traced
    // client round trip; the remainder is the front (transport,
    // admission, lock wait, hand-off).
    for (name, _, v) in &metrics {
        if name.starts_with("server.front_") && *v < 0.0 {
            problems.push(format!(
                "{name} = {v}: in-process layers exceed the client round trip"
            ));
        }
    }
    let windows = [&base.window, &traced.window];
    Ok(Outcome {
        metrics,
        notes,
        attempted: windows.iter().map(|w| w.total(|c| c.attempted)).sum(),
        failed: windows.iter().map(|w| w.total(|c| c.not_first_ok)).sum(),
        problems,
    })
}

/// Median v2 `PING` round trip over two connections pinging at once.
fn ping_p50_us(addr: &str) -> Result<f64, String> {
    let rounds: Vec<Result<Vec<f64>, String>> = std::thread::scope(|s| {
        let hs: Vec<_> = (0..CONNS)
            .map(|_| {
                s.spawn(|| {
                    let mut c = Control::connect(addr)?;
                    (0..2000)
                        .map(|_| c.ping().map(|d| d.as_secs_f64() * 1e6))
                        .collect::<Result<Vec<f64>, String>>()
                })
            })
            .collect();
        hs.into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("ping thread panicked".into()))
            })
            .collect()
    });
    let all: Vec<f64> = rounds.into_iter().collect::<Result<Vec<_>, _>>()?.concat();
    Ok(median(&all).unwrap_or(0.0))
}

/// Split the traced window across the layers.
fn layer_metrics(
    wl: &Workload,
    base: &Window,
    traced: &Measured,
    rp: &Replay,
) -> (Vec<(&'static str, &'static str, f64)>, Vec<String>) {
    let (tw, sm, after) = (&traced.window, &traced.metrics, &traced.metrics_after);
    let cache = |k: &str| traced.cache_delta(k);
    let ping_p50 = traced.ping_p50_us;
    let done = tw.conns.iter().map(|c| c.samples.len() as u64).sum::<u64>();
    let rekeys = tw.conns.iter().map(|c| c.acked.len() as u64).sum::<u64>();
    let attempted = tw.total(|c| c.attempted);
    let access_rt = mean(&tw.latencies(false));
    let update_rt = mean(&tw.latencies(true));
    let access_p99 = tail_percentile(&base.latencies(false), 0.99).map_or(0.0, |p| p.value);
    // In-process engine means: the part of each session call spent in
    // the engine (per engine call; for shards, per partial).
    let engine_access = per(
        rp.engine.sum("procdb_engine_access_us_sum"),
        rp.engine.sum("procdb_engine_access_us_count") as u64,
    );
    let engine_update = per(
        rp.engine.sum("procdb_engine_update_us_sum"),
        rp.engine.sum("procdb_engine_update_us_count") as u64,
    );
    let session_access = per(rp.session_access_ns as f64, rp.shared + rp.escalations) / 1e3;
    let session_update = rp.update_us();
    let sharded = wl.shards > 1;
    let shard_accesses = sm.sum("procdb_shard_accesses_total") as u64;
    let hits = cache("hits");
    let misses = cache("misses");
    let faults = sm.sum("procdb_pager_buffer_faults_total");
    let buffer_hits = sm.sum("procdb_pager_buffer_hits_total");
    let refills = sm.sum("procdb_engine_cache_refills_total") as u64;
    let values: Vec<f64> = PER_LAYER
        .iter()
        .map(|m| match m.name {
            "wire.codec_us" => per(tw.total(|c| c.codec_ns) as f64, done) / 1e3,
            "wire.bytes_per_op" => per(tw.total(|c| c.bytes) as f64, done),
            "wire.ping_p50_us" => ping_p50,
            "wire.decode_errors" => sm.sum("procdb_wire_decode_errors_total"),
            "client.access_rt_us" => access_rt,
            "client.update_rt_us" => update_rt,
            "client.access_p99_us" => access_p99,
            "client.error_rate" => per(tw.total(|c| c.not_first_ok) as f64, attempted),
            "server.front_access_us" => access_rt - rp.access_us(),
            "server.front_update_us" => update_rt - rp.update_us(),
            "server.busy_sheds" => sm.sum("procdb_server_busy_sheds_total"),
            "server.deadline_expiries" => sm.sum("procdb_server_deadline_expired_total"),
            "server.render_us" => per(rp.render_ns as f64, rp.shared) / 1e3,
            "session.access_self_us" => session_access - engine_access,
            "session.update_self_us" => session_update - engine_update,
            "session.escalation_ratio" => per(rp.escalations as f64, rp.shared + rp.escalations),
            "cache.hit_ratio" => per(hits, (hits + misses) as u64),
            "cache.invalidations_per_update" => per(cache("invalidations"), rekeys),
            "cache.lookup_us" => per(rp.lookup_ns as f64, rp.accesses) / 1e3,
            "cache.fill_us" => per(rp.fill_ns as f64, rp.tickets) / 1e3,
            "cache.fill_accept_ratio" if wl.front_cache => per(cache("fills"), misses as u64),
            "cache.fill_accept_ratio" => 0.0,
            "cache.stale_served" => cache("stale_served"),
            "shard.fanout_us" if sharded => session_access - engine_access,
            "shard.fanout_us" => 0.0,
            "shard.torn_read_ratio" => per(
                tw.total(|c| c.torn_reads) as f64,
                tw.latencies(false).len() as u64,
            ),
            "shard.escalation_ratio" => {
                per(sm.sum("procdb_shard_escalations_total"), shard_accesses)
            }
            "shard.cross_moves_per_update" => per(sm.sum("procdb_shard_cross_moves_total"), rekeys),
            "replica.applied_per_update" => per(sm.sum("procdb_replica_applied_total"), rekeys),
            "replica.max_lag" => after.max("procdb_replica_max_lag"),
            "replica.hedged_read_ratio" => {
                per(sm.sum("procdb_replica_hedged_reads_total"), shard_accesses)
            }
            "engine.access_us" => per(
                sm.sum("procdb_engine_access_us_sum"),
                sm.sum("procdb_engine_access_us_count") as u64,
            ),
            "engine.update_us" => per(
                sm.sum("procdb_engine_update_us_sum"),
                sm.sum("procdb_engine_update_us_count") as u64,
            ),
            "engine.refill_ratio" => per(
                refills as f64,
                sm.sum("procdb_engine_accesses_total") as u64,
            ),
            "engine.model_ms_per_op" => per(sm.sum("procdb_session_cost_ms"), done),
            "engine.model_error" => per(
                sm.sum("procdb_cost_model_abs_rel_error_sum"),
                sm.sum("procdb_cost_model_abs_rel_error_count") as u64,
            ),
            "avm.delta_tuples_per_update" => per(sm.sum("procdb_avm_delta_tuples_total"), rekeys),
            "rete.tokens_per_update" => per(sm.sum("procdb_rete_tokens_total"), rekeys),
            "ilock.invalidations_per_update" => {
                per(sm.sum("procdb_ci_invalidations_total"), rekeys)
            }
            "ilock.locks_set_per_refill" => per(sm.sum("procdb_ilock_locks_set_total"), refills),
            "storage.page_reads_per_op" => per(sm.sum("procdb_pager_reads_total"), done),
            "storage.page_writes_per_op" => per(sm.sum("procdb_pager_writes_total"), done),
            "storage.buffer_hit_ratio" => per(buffer_hits, (buffer_hits + faults) as u64),
            "storage.flushes_per_op" => per(sm.sum("procdb_pager_flushes_total"), done),
            "trace_overhead_pct" => {
                let b = base.throughput();
                if b > 0.0 {
                    (b - tw.throughput()) / b * 100.0
                } else {
                    0.0
                }
            }
            other => unreachable!("no rule for per-layer metric {other}"),
        })
        .collect();
    let notes = vec![
        format!(
            "traced window: {done} commands, {rekeys} re-keys; replayed in process: {} accesses ({} cache hits, {} escalations), {} re-keys",
            rp.accesses, rp.hits, rp.escalations, rp.rekeys
        ),
        format!(
            "access split (us per access): client {access_rt:.1} = front {:.1} + cache lookup {:.2} + fill {:.2} + session {:.1} + render {:.1}; per engine-served access the session call takes {session_access:.1}, of it engine {engine_access:.1}",
            access_rt - rp.access_us(),
            per(rp.lookup_ns as f64, rp.accesses) / 1e3,
            per(rp.fill_ns as f64, rp.accesses) / 1e3,
            per(rp.session_access_ns as f64, rp.accesses) / 1e3,
            per(rp.render_ns as f64, rp.accesses) / 1e3,
        ),
        format!(
            "update split (us): client {update_rt:.1} = front {:.1} + session {session_update:.1} (engine {engine_update:.1})",
            update_rt - rp.update_us(),
        ),
    ];
    (
        PER_LAYER
            .iter()
            .zip(values)
            .map(|(m, v)| (m.name, m.unit, v))
            .collect(),
        notes,
    )
}
