//! The served program as its own process: spawn, load, scrape, stop.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::io::{BufRead, BufReader};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use procdb_query::Value;
use procdb_wire::{Request, Response, WireClient};

use crate::workload::Workload;

/// A running `procdb-server` process.
pub struct ServerProc {
    child: Child,
    /// Held open so the server's later status lines have somewhere to go.
    _stdout: BufReader<ChildStdout>,
    /// `host:port` it listens on.
    pub addr: String,
}

impl ServerProc {
    /// Spawn `binary` on an ephemeral port and wait for its listen line.
    pub fn spawn(binary: &str) -> Result<ServerProc, String> {
        let mut child = Command::new(binary)
            .args(["--port", "0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {binary}: {e}"))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = match read {
            Ok(n) if n > 0 => line.trim().rsplit(' ').next().map(str::to_string),
            _ => None,
        };
        match addr {
            Some(addr) if addr.contains(':') => Ok(ServerProc {
                child,
                _stdout: stdout,
                addr,
            }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("server did not report its address: {line:?}"))
            }
        }
    }

    /// Peak resident memory (VmHWM) in MiB.
    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("read server status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kib| kib / 1024.0)
            .ok_or_else(|| "no VmHWM in server status".to_string())
    }

    /// Ask the server to shut down and wait for the process to end
    /// (killing it after a grace period).
    pub fn stop(mut self) -> Result<(), String> {
        let asked = WireClient::connect(self.addr.as_str(), 1)
            .and_then(|mut c| c.command("shutdown"))
            .is_ok();
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() || !asked => return Ok(()),
                Ok(Some(status)) => return Err(format!("server exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err("server did not stop within 10 s; killed".to_string());
                }
            }
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        // Only reached on an error path: `stop` consumes the handle.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// A v2 control connection (set-up, scrapes and output checks; never
/// used inside a measured window).
pub struct Control {
    client: WireClient,
}

impl Control {
    /// Connect to `addr`.
    pub fn connect(addr: &str) -> Result<Control, String> {
        let client = WireClient::connect(addr, 64).map_err(|e| format!("control connect: {e}"))?;
        Ok(Control { client })
    }

    /// Run one command that must answer `ok`; returns its text.
    pub fn ok(&mut self, line: &str) -> Result<String, String> {
        match self.client.command(line) {
            Ok(Response::OkText { text }) => Ok(text),
            Ok(other) => Err(format!("{line:?}: {other:?}")),
            Err(e) => Err(format!("{line:?}: {e}")),
        }
    }

    /// Run commands that commute, up to 32 in flight.
    pub fn pipelined(&mut self, lines: &[String]) -> Result<(), String> {
        let mut in_flight = HashMap::new();
        let mut next = lines.iter();
        loop {
            while in_flight.len() < 32 {
                let Some(line) = next.next() else { break };
                let id = self
                    .client
                    .send(&Request::Command { line: line.clone() })
                    .map_err(|e| format!("send {line:?}: {e}"))?;
                in_flight.insert(id, line);
            }
            if in_flight.is_empty() {
                return Ok(());
            }
            let (id, resp) = self.client.recv().map_err(|e| format!("recv: {e}"))?;
            let line = in_flight.remove(&id).ok_or("reply to an unknown request")?;
            if !matches!(resp, Response::OkText { .. }) {
                return Err(format!("{line:?}: {resp:?}"));
            }
        }
    }

    /// The `metrics` exposition as `series → value`.
    pub fn metrics(&mut self) -> Result<Metrics, String> {
        Ok(Metrics::parse(&self.ok("metrics")?))
    }

    /// `cache stats` totals as `key → value`.
    pub fn cache_totals(&mut self) -> Result<BTreeMap<String, f64>, String> {
        let text = self.ok("cache stats")?;
        let totals = text
            .lines()
            .find_map(|l| l.strip_prefix("totals:"))
            .ok_or("cache stats has no totals line")?;
        Ok(totals
            .split_whitespace()
            .filter_map(|kv| kv.split_once('='))
            .filter_map(|(k, v)| Some((k.to_string(), v.parse().ok()?)))
            .collect())
    }

    /// Round trip of one v2 `PING`.
    pub fn ping(&mut self) -> Result<Duration, String> {
        let t = Instant::now();
        match self.client.roundtrip(&Request::Ping) {
            Ok(Response::Pong) => Ok(t.elapsed()),
            other => Err(format!("ping: {other:?}")),
        }
    }

    /// Check every procedure against `model` through the served path,
    /// and the base relation through `P1`. Returns the problems found.
    pub fn check_outputs(
        &mut self,
        wl: &Workload,
        model: &BTreeMap<i64, i64>,
    ) -> Result<Vec<String>, String> {
        let mut problems = Vec::new();
        // With the front cache on, the second read of each view is a
        // hit: both the fill and the cached body are checked.
        let reads = if wl.front_cache { 2 } else { 1 };
        for p in 0..wl.mix.procs {
            let name = wl.view_name(p);
            let expected = wl.expected_rows(model, p);
            let rendered: HashSet<String> = expected.iter().map(|&r| wl.render_row(p, r)).collect();
            for _ in 0..reads {
                let text = self.ok(&format!("access {name}"))?;
                if let Err(e) = check_access_text(&text, expected.len(), &rendered) {
                    problems.push(format!("view {name}: {e}"));
                }
            }
        }
        let mut total = 0usize;
        for w in 0..wl.layout().windows {
            let (lo, hi) = wl.layout().bounds(w);
            let resp = self
                .client
                .call("P1", vec![Value::Int(lo), Value::Int(hi)])
                .map_err(|e| format!("call P1: {e}"))?;
            let Response::CallOk { out, rows, .. } = resp else {
                return Err(format!("call P1({lo}, {hi}): {resp:?}"));
            };
            let got: Vec<(i64, i64)> = rows
                .iter()
                .filter_map(|r| match (r.first(), r.get(1)) {
                    (Some(Value::Int(k)), Some(Value::Int(d))) => Some((*k, *d)),
                    _ => None,
                })
                .collect();
            let want: Vec<(i64, i64)> = model.range(lo..=hi).map(|(&k, &d)| (k, d)).collect();
            if got != want {
                problems.push(format!(
                    "base window [{lo}, {hi}]: {} rows served, {} expected",
                    got.len(),
                    want.len()
                ));
            }
            total += got.len();
            let scanned = out.iter().find(|(n, _)| n == "scanned").map(|(_, v)| v);
            if scanned != Some(&Value::Int(model.len() as i64)) {
                problems.push(format!("row count not conserved: scanned {scanned:?}"));
            }
        }
        if total != model.len() {
            problems.push(format!(
                "row count not conserved: {total} of {}",
                model.len()
            ));
        }
        Ok(problems)
    }
}

/// Check one `access` reply: its row count, and that every rendered row
/// is a distinct row of the expected result.
pub fn check_access_text(
    text: &str,
    expected: usize,
    rendered: &HashSet<String>,
) -> Result<(), String> {
    let mut lines = text.lines();
    let n = reply_rows(lines.next().unwrap_or(""))
        .ok_or_else(|| format!("unparsable reply {text:?}"))?;
    if n != expected {
        return Err(format!("{n} rows served, {expected} expected"));
    }
    let mut seen = HashSet::new();
    let mut more = 0usize;
    for line in lines {
        if let Some(m) = line.trim().strip_prefix("... ") {
            more = m
                .trim_end_matches(" more")
                .parse()
                .map_err(|_| format!("bad {line:?}"))?;
        } else if !rendered.contains(line) || !seen.insert(line) {
            return Err(format!("row {line:?} is not in the expected result"));
        }
    }
    if seen.len() + more != n {
        return Err(format!("{} rows rendered + {more} more != {n}", seen.len()));
    }
    Ok(())
}

/// Row count from an access reply's first line (`N rows in X model-ms:`).
pub fn reply_rows(first_line: &str) -> Option<usize> {
    first_line.strip_suffix("model-ms:")?;
    first_line.split_once(" rows in ")?.0.parse().ok()
}

/// A scrape of the Prometheus-style `metrics` exposition.
#[derive(Debug, Clone, Default)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    /// Parse `name{labels} value` lines, skipping comments.
    pub fn parse(text: &str) -> Metrics {
        Metrics(
            text.lines()
                .filter(|l| !l.starts_with('#'))
                .filter_map(|l| l.rsplit_once(' '))
                .filter_map(|(series, v)| Some((series.to_string(), v.parse().ok()?)))
                .collect(),
        )
    }

    /// Sum of every series of `name`, whatever its labels.
    pub fn sum(&self, name: &str) -> f64 {
        self.0
            .iter()
            .filter(|(series, _)| series.split('{').next() == Some(name))
            .map(|(_, v)| v)
            .sum::<f64>()
            + 0.0 // an empty sum is -0.0
    }

    /// Largest value of any series of `name` (0 without one).
    pub fn max(&self, name: &str) -> f64 {
        self.0
            .iter()
            .filter(|(series, _)| series.split('{').next() == Some(name))
            .map(|(_, &v)| v)
            .fold(0.0, f64::max)
    }

    /// Per-series `self − before`.
    pub fn since(&self, before: &Metrics) -> Metrics {
        Metrics(
            self.0
                .iter()
                .map(|(k, v)| (k.clone(), v - before.0.get(k).copied().unwrap_or(0.0)))
                .collect(),
        )
    }
}

/// Start a server for `wl` and bring it to the measured state: data
/// loaded, procedures defined, strategy set, every view read once.
/// Returns the process and its set-up time.
pub fn start(binary: &str, wl: &Workload) -> Result<(ServerProc, Duration), String> {
    let t = Instant::now();
    let server = ServerProc::spawn(binary)?;
    let mut control = Control::connect(&server.addr)?;
    let load = wl.load_lines();
    control.ok(&load[0])?;
    let tables = if wl.joins { 2 } else { 1 };
    for line in &load[1..tables] {
        control.ok(line)?;
    }
    control.pipelined(&load[tables..])?;
    for line in wl.config_lines() {
        control.ok(&line)?;
    }
    for name in wl.view_names() {
        control.ok(&format!("access {name}"))?;
    }
    Ok((server, t.elapsed()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_replies_are_checked_row_by_row() {
        let rendered: HashSet<String> = ["  (1, 1, \"pad\")", "  (3, 2, \"pad\")"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let ok = "2 rows in 3.0 model-ms:\n  (3, 2, \"pad\")\n  (1, 1, \"pad\")";
        assert_eq!(check_access_text(ok, 2, &rendered), Ok(()));
        assert!(check_access_text(ok, 3, &rendered).is_err());
        let dup = "2 rows in 3.0 model-ms:\n  (1, 1, \"pad\")\n  (1, 1, \"pad\")";
        assert!(check_access_text(dup, 2, &rendered).is_err());
        let stale = "2 rows in 3.0 model-ms:\n  (1, 1, \"pad\")\n  (5, 2, \"pad\")";
        assert!(check_access_text(stale, 2, &rendered).is_err());
        let cut = "3 rows in 3.0 model-ms:\n  (1, 1, \"pad\")\n  ... 2 more";
        assert_eq!(check_access_text(cut, 3, &rendered), Ok(()));
        assert_eq!(reply_rows("1500 rows in 420.0 model-ms:"), Some(1500));
        assert_eq!(reply_rows("1 tuple(s) re-keyed"), None);
    }

    #[test]
    fn metrics_sum_over_labels_and_diff() {
        let a = Metrics::parse("# TYPE x counter\nx{shard=\"0\"} 2\nx{shard=\"1\"} 3\nxy 7\n");
        let b = Metrics::parse("x{shard=\"0\"} 5\nx{shard=\"1\"} 3\nxy 9\n");
        assert_eq!(a.sum("x"), 5.0);
        assert_eq!(b.since(&a).sum("x"), 3.0);
        assert_eq!(b.since(&a).sum("xy"), 2.0);
        assert_eq!(b.max("x"), 5.0);
    }
}
