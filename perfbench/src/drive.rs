//! Closed-loop load: [`CONNS`] client connections, each issuing its own
//! seeded operation stream and blocking on replies — one command at a
//! time on v1, up to [`PIPELINE`] in flight on v2. A slow server
//! therefore receives less load, as procedure callers would give it.

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use procdb_wire::{errcode, read_frame, write_request, Request, Response};

use crate::gen::{Op, OpStream, Rekey};
use crate::server::reply_rows;
use crate::workload::{Workload, CONNS, PIPELINE};

/// A shed command is retried at most this many times.
const MAX_ATTEMPTS: u32 = 50;
/// Problems kept per connection for the report.
const MAX_PROBLEMS: usize = 5;

/// One wire command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmd {
    /// `access` of procedure `p`.
    Access(usize),
    /// `update victim -> new_key`.
    Rekey(Rekey),
}

impl Cmd {
    fn line(&self, names: &[String]) -> String {
        match self {
            Cmd::Access(p) => format!("access {}", names[*p]),
            Cmd::Rekey(r) => format!("update {} -> {}", r.victim, r.new_key),
        }
    }
}

/// One completed command.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// A re-key (else an access).
    pub update: bool,
    /// Round trip from first send to final reply, retries included.
    pub lat_us: f64,
    /// Completion time, seconds after the window opened.
    pub done_s: f64,
}

/// What one connection did in a window.
#[derive(Debug, Default)]
pub struct ConnRun {
    /// Completed commands.
    pub samples: Vec<Sample>,
    /// Commands in first-send order (the in-process replay's input).
    pub sent: Vec<Cmd>,
    /// Re-keys answered `ok`, in reply order.
    pub acked: Vec<Rekey>,
    /// Commands sent.
    pub attempted: u64,
    /// Commands not answered `ok` on their first attempt.
    pub not_first_ok: u64,
    /// Wrong or failed answers (at most [`MAX_PROBLEMS`]).
    pub problems: Vec<String>,
    /// Wrong answers, all of them.
    pub wrong: u64,
    /// Accesses answered with another row count than the procedure
    /// holds at every commit point: the read overlapped a cross-shard
    /// move (a delete on one shard, then an insert on another).
    pub torn_reads: u64,
    /// Client time in the wire codec (traced windows only).
    pub codec_ns: u64,
    /// Bytes written plus bytes read.
    pub bytes: u64,
}

impl ConnRun {
    fn problem(&mut self, msg: String) {
        self.wrong += 1;
        if self.problems.len() < MAX_PROBLEMS {
            self.problems.push(msg);
        }
    }

    /// Check a reply's first line against what the command must answer.
    /// An access must answer a row count; one that differs from the
    /// procedure's constant count is a torn read, counted but not a
    /// failure (the after-window checks judge the contents). A re-key
    /// must move exactly one row.
    fn check(&mut self, cmd: &Cmd, first: &str, expected_rows: &[usize]) {
        let ok = match cmd {
            Cmd::Access(p) => match reply_rows(first) {
                Some(n) => {
                    self.torn_reads += u64::from(n != expected_rows[*p]);
                    true
                }
                None => false,
            },
            Cmd::Rekey(_) => first.starts_with("1 tuple(s) re-keyed"),
        };
        if !ok {
            self.problem(format!("{cmd:?} answered {first:?}"));
        }
    }
}

/// A command's reply: `ok`, a retryable refusal (`BUSY`, `DEADLINE`,
/// `FENCED`), or a failure.
enum Reply {
    Ok,
    Shed,
    Failed(String),
}

/// One measured window: every connection's run plus the window length.
pub struct Window {
    /// Per-connection results.
    pub conns: Vec<ConnRun>,
    /// Window length in seconds.
    pub seconds: f64,
    /// Host CPU steal (clock ticks) in each whole [`SLOT`] of the
    /// window; zeros where the host does not report steal.
    pub steal: Vec<u64>,
}

/// The span over which host steal is sampled and commands are kept or
/// left out.
pub const SLOT: Duration = Duration::from_millis(50);

/// The slot holding `t` seconds after the window opened.
fn slot_of(t: f64) -> usize {
    (t.max(0.0) / SLOT.as_secs_f64()) as usize
}

impl Window {
    /// Round trips (µs) of accesses or of re-keys that began and ended
    /// in slots `keep` marks, with every slot between them marked, in
    /// completion order.
    pub fn latencies_in(&self, update: bool, keep: &[bool]) -> Vec<f64> {
        let kept = |s: &Sample| {
            let first = slot_of(s.done_s - s.lat_us / 1e6);
            (first..=slot_of(s.done_s)).all(|i| keep.get(i) == Some(&true))
        };
        let mut v: Vec<(f64, f64)> = self
            .conns
            .iter()
            .flat_map(|c| &c.samples)
            .filter(|s| s.update == update && kept(s))
            .map(|s| (s.done_s, s.lat_us))
            .collect();
        v.sort_by(|a, b| a.0.total_cmp(&b.0));
        v.into_iter().map(|(_, lat)| lat).collect()
    }

    /// Commands completed inside the window, per second.
    pub fn throughput(&self) -> f64 {
        let done = self
            .conns
            .iter()
            .flat_map(|c| &c.samples)
            .filter(|s| s.done_s <= self.seconds)
            .count();
        done as f64 / self.seconds
    }

    /// Commands completed in each whole [`SLOT`] of the window.
    pub fn per_slot(&self) -> Vec<usize> {
        let slots = (self.seconds / SLOT.as_secs_f64() + 1e-9).floor() as usize;
        let mut out = vec![0; slots.max(1)];
        for s in self.conns.iter().flat_map(|c| &c.samples) {
            if let Some(n) = out.get_mut(slot_of(s.done_s)) {
                *n += 1;
            }
        }
        out
    }

    /// Sorted round trips (µs) of accesses or of re-keys.
    pub fn latencies(&self, update: bool) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .conns
            .iter()
            .flat_map(|c| &c.samples)
            .filter(|s| s.update == update)
            .map(|s| s.lat_us)
            .collect();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Sum of one counter over the connections.
    pub fn total(&self, f: impl Fn(&ConnRun) -> u64) -> u64 {
        self.conns.iter().map(f).sum()
    }
}

/// Drive `wl` against `addr` for `window`. `traced` adds client spans
/// around the codec calls.
pub fn drive(
    addr: &str,
    wl: &Workload,
    seed: u64,
    window: Duration,
    traced: bool,
    expected_rows: &[usize],
) -> Result<Window, String> {
    let barrier = Barrier::new(CONNS + 1);
    let names = wl.view_names();
    let (runs, marks): (Vec<Result<ConnRun, String>>, Vec<Option<u64>>) = std::thread::scope(|s| {
        let monitor = s.spawn(|| {
            barrier.wait();
            let start = Instant::now();
            let mut marks = vec![host_steal()];
            let slots = (window.as_nanos() / SLOT.as_nanos()) as u32;
            for k in 1..=slots {
                let due = start + SLOT * k;
                std::thread::sleep(due.saturating_duration_since(Instant::now()));
                marks.push(host_steal());
            }
            marks
        });
        let handles: Vec<_> = (0..CONNS)
            .map(|c| {
                let (barrier, names) = (&barrier, &names);
                s.spawn(move || {
                    let ops = OpStream::new(wl.mix, wl.layout(), seed, CONNS, c);
                    let mut conn = Conn::open(addr, wl.v2);
                    // Every connection meets the barrier, even one that
                    // failed to connect, so none waits forever.
                    barrier.wait();
                    let lp = Loop {
                        names,
                        expected_rows,
                        traced,
                        deadline: Instant::now() + window,
                    };
                    match conn.as_mut() {
                        Ok(Conn::V1(c)) => lp.run_v1(c, ops),
                        Ok(Conn::V2(c)) => lp.run_v2(c, ops),
                        Err(e) => Err(e.clone()),
                    }
                })
            })
            .collect();
        let runs = handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".to_string()))
            })
            .collect();
        (runs, monitor.join().unwrap_or_default())
    });
    let mut w = Window {
        conns: runs.into_iter().collect::<Result<_, _>>()?,
        seconds: window.as_secs_f64(),
        steal: marks
            .windows(2)
            .map(|m| match (m[0], m[1]) {
                (Some(a), Some(b)) => b.saturating_sub(a),
                _ => 0,
            })
            .collect(),
    };
    w.steal.resize(w.per_slot().len(), 0);
    Ok(w)
}

/// The host's cumulative CPU steal in clock ticks: time the hypervisor
/// ran other guests while this one had work. `None` where the kernel
/// does not report it.
fn host_steal() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    stat.lines().next()?.split_whitespace().nth(8)?.parse().ok()
}

/// Backoff before retry `attempt` of a shed command.
fn backoff(attempt: u32) -> Duration {
    Duration::from_millis(1u64 << attempt.min(6))
}

enum Conn {
    V1(V1),
    V2(V2),
}

impl Conn {
    fn open(addr: &str, v2: bool) -> Result<Conn, String> {
        Ok(if v2 {
            Conn::V2(V2::connect(addr)?)
        } else {
            Conn::V1(V1::connect(addr)?)
        })
    }
}

/// Read the server's text greeting up to its terminator; an `err`
/// terminator (e.g. the connection limit) refuses the connection.
fn read_greeting(r: &mut impl BufRead) -> Result<(), String> {
    let mut line = String::new();
    loop {
        line.clear();
        if r.read_line(&mut line)
            .map_err(|e| format!("greeting: {e}"))?
            == 0
        {
            return Err("server closed during the greeting".to_string());
        }
        if is_terminator(&line) {
            if line.starts_with("err") {
                return Err(format!("server refused: {}", line.trim_end()));
            }
            return Ok(());
        }
    }
}

/// Whether a v1 reply line ends the reply (`ok`, `ok …` or `err …`).
fn is_terminator(line: &str) -> bool {
    let line = line.trim_end();
    line == "ok" || line.starts_with("ok ") || line.starts_with("err")
}

/// A v1 line-protocol connection.
struct V1 {
    w: TcpStream,
    r: BufReader<TcpStream>,
    line: String,
    first: String,
}

impl V1 {
    fn connect(addr: &str) -> Result<V1, String> {
        let w = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        w.set_nodelay(true).map_err(|e| e.to_string())?;
        let mut r = BufReader::new(w.try_clone().map_err(|e| e.to_string())?);
        read_greeting(&mut r)?;
        Ok(V1 {
            w,
            r,
            line: String::new(),
            first: String::new(),
        })
    }

    /// Send one command and read its reply; the first data line lands
    /// in `self.first`.
    fn roundtrip(&mut self, cmd: &str, run: &mut ConnRun, traced: bool) -> Result<Reply, String> {
        let t = traced.then(Instant::now);
        let msg = format!("{cmd}\n");
        let mut codec = t.map_or(0, |t| t.elapsed().as_nanos() as u64);
        self.w
            .write_all(msg.as_bytes())
            .map_err(|e| format!("write: {e}"))?;
        run.bytes += msg.len() as u64;
        self.first.clear();
        let reply = loop {
            self.line.clear();
            let n = self
                .r
                .read_line(&mut self.line)
                .map_err(|e| format!("read: {e}"))?;
            if n == 0 {
                return Err("server closed the connection".to_string());
            }
            run.bytes += n as u64;
            let t = traced.then(Instant::now);
            let term = is_terminator(&self.line);
            if let Some(t) = t {
                codec += t.elapsed().as_nanos() as u64;
            }
            if term {
                break classify_v1(self.line.trim_end());
            }
            if self.first.is_empty() {
                self.first.push_str(self.line.trim_end());
            }
        };
        run.codec_ns += codec;
        Ok(reply)
    }
}

fn classify_v1(term: &str) -> Reply {
    match term.strip_prefix("err") {
        None => Reply::Ok,
        Some(rest) => {
            let rest = rest.trim_start();
            if ["BUSY", "DEADLINE", "FENCED"]
                .iter()
                .any(|k| rest.starts_with(k))
            {
                Reply::Shed
            } else {
                Reply::Failed(term.to_string())
            }
        }
    }
}

/// A v2 framed connection using the public codec directly, so the
/// client can time encode and decode apart from the socket.
struct V2 {
    w: TcpStream,
    r: BufReader<TcpStream>,
    out: Vec<u8>,
    frame: Vec<u8>,
    next_id: u64,
}

impl V2 {
    fn connect(addr: &str) -> Result<V2, String> {
        let w = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        w.set_nodelay(true).map_err(|e| e.to_string())?;
        let mut r = BufReader::new(w.try_clone().map_err(|e| e.to_string())?);
        read_greeting(&mut r)?;
        let mut c = V2 {
            w,
            r,
            out: Vec::new(),
            frame: Vec::new(),
            next_id: 1,
        };
        let hello = Request::Hello {
            client: "perfbench".to_string(),
            pipeline: PIPELINE as u32,
        };
        c.queue(&hello)?;
        c.flush(&mut ConnRun::default())?;
        match c.recv(&mut ConnRun::default(), false)? {
            (_, Response::HelloAck { .. }) => Ok(c),
            (_, other) => Err(format!("handshake answered {other:?}")),
        }
    }

    fn queue(&mut self, req: &Request) -> Result<u64, String> {
        let id = self.next_id;
        self.next_id += 1;
        write_request(&mut self.out, id, req).map_err(|e| format!("encode: {e}"))?;
        Ok(id)
    }

    fn flush(&mut self, run: &mut ConnRun) -> Result<(), String> {
        if !self.out.is_empty() {
            self.w
                .write_all(&self.out)
                .map_err(|e| format!("write: {e}"))?;
            run.bytes += self.out.len() as u64;
            self.out.clear();
        }
        Ok(())
    }

    /// Read one frame off the socket, then decode it (timed apart).
    fn recv(&mut self, run: &mut ConnRun, traced: bool) -> Result<(u64, Response), String> {
        self.frame.resize(procdb_wire::HEADER_LEN, 0);
        self.r
            .read_exact(&mut self.frame)
            .map_err(|e| format!("read: {e}"))?;
        let len = u32::from_le_bytes([
            self.frame[16],
            self.frame[17],
            self.frame[18],
            self.frame[19],
        ]);
        if len > procdb_wire::MAX_PAYLOAD {
            return Err(format!("oversized frame ({len} bytes)"));
        }
        self.frame.resize(procdb_wire::HEADER_LEN + len as usize, 0);
        self.r
            .read_exact(&mut self.frame[procdb_wire::HEADER_LEN..])
            .map_err(|e| format!("read: {e}"))?;
        run.bytes += self.frame.len() as u64;
        let t = traced.then(Instant::now);
        let frame = read_frame(&mut self.frame.as_slice()).map_err(|e| format!("frame: {e}"))?;
        let resp = Response::decode(&frame).map_err(|e| format!("decode: {e}"))?;
        if let Some(t) = t {
            run.codec_ns += t.elapsed().as_nanos() as u64;
        }
        Ok((frame.request_id, resp))
    }
}

/// A command in flight (or waiting to be re-sent after a shed).
struct Flight {
    cmd: Cmd,
    first_sent: Instant,
    attempts: u32,
}

/// The per-connection loop's fixed inputs.
struct Loop<'a> {
    names: &'a [String],
    expected_rows: &'a [usize],
    traced: bool,
    deadline: Instant,
}

impl Loop<'_> {
    fn run_v1(&self, c: &mut V1, mut ops: OpStream) -> Result<ConnRun, String> {
        let mut run = ConnRun::default();
        let start = Instant::now();
        'window: while Instant::now() < self.deadline {
            let cmds = match ops.next_op() {
                Op::Access(p) => vec![Cmd::Access(p)],
                Op::Update(txn) => txn.into_iter().map(Cmd::Rekey).collect(),
            };
            for cmd in cmds {
                if Instant::now() >= self.deadline {
                    break 'window;
                }
                run.sent.push(cmd);
                run.attempted += 1;
                let line = cmd.line(self.names);
                let t = Instant::now();
                let mut attempts = 0;
                let reply = loop {
                    match c.roundtrip(&line, &mut run, self.traced)? {
                        Reply::Shed => {
                            attempts += 1;
                            if attempts >= MAX_ATTEMPTS {
                                break Reply::Failed(format!("{line:?} shed {MAX_ATTEMPTS}x"));
                            }
                            std::thread::sleep(backoff(attempts));
                        }
                        other => break other,
                    }
                };
                self.complete(&mut run, cmd, reply, attempts, &c.first, t, start);
            }
        }
        let _ = c.w.write_all(b"quit\n");
        Ok(run)
    }

    fn run_v2(&self, c: &mut V2, mut ops: OpStream) -> Result<ConnRun, String> {
        let mut run = ConnRun::default();
        let start = Instant::now();
        let mut queue: VecDeque<Cmd> = VecDeque::new();
        let mut retry: VecDeque<Flight> = VecDeque::new();
        let mut pending: HashMap<u64, Flight> = HashMap::new();
        // Re-keys sent and not yet answered, by index.
        let mut unacked: BTreeSet<u64> = BTreeSet::new();
        loop {
            let open = Instant::now() < self.deadline;
            while pending.len() < PIPELINE {
                let flight = if let Some(f) = retry.pop_front() {
                    f
                } else if !open {
                    break;
                } else if let Some(cmd) = queue.pop_front() {
                    run.sent.push(cmd);
                    run.attempted += 1;
                    if let Cmd::Rekey(r) = cmd {
                        unacked.insert(r.index);
                    }
                    Flight {
                        cmd,
                        first_sent: Instant::now(),
                        attempts: 0,
                    }
                } else if unacked.first().is_some_and(|&i| i < ops.must_ack_below()) {
                    break;
                } else {
                    match ops.next_op() {
                        Op::Access(p) => queue.push_back(Cmd::Access(p)),
                        Op::Update(txn) => queue.extend(txn.into_iter().map(Cmd::Rekey)),
                    }
                    continue;
                };
                let t = self.traced.then(Instant::now);
                let id = c.queue(&Request::Command {
                    line: flight.cmd.line(self.names),
                })?;
                if let Some(t) = t {
                    run.codec_ns += t.elapsed().as_nanos() as u64;
                }
                pending.insert(id, flight);
            }
            if pending.is_empty() {
                if open || !retry.is_empty() {
                    continue;
                }
                break;
            }
            c.flush(&mut run)?;
            let (id, resp) = c.recv(&mut run, self.traced)?;
            let mut flight = pending
                .remove(&id)
                .ok_or_else(|| format!("reply to unknown request {id}"))?;
            let (reply, first) = match resp {
                Response::OkText { text } => {
                    (Reply::Ok, text.lines().next().unwrap_or("").to_string())
                }
                Response::Error { code, .. }
                    if [errcode::BUSY, errcode::DEADLINE, errcode::FENCED].contains(&code) =>
                {
                    (Reply::Shed, String::new())
                }
                other => (Reply::Failed(format!("{other:?}")), String::new()),
            };
            let reply = match reply {
                Reply::Shed => {
                    flight.attempts += 1;
                    if flight.attempts < MAX_ATTEMPTS {
                        if pending.is_empty() {
                            std::thread::sleep(backoff(flight.attempts));
                        }
                        retry.push_back(flight);
                        continue;
                    }
                    Reply::Failed(format!("{:?} shed {MAX_ATTEMPTS}x", flight.cmd))
                }
                other => other,
            };
            if let Cmd::Rekey(r) = flight.cmd {
                unacked.remove(&r.index);
            }
            let attempts = flight.attempts;
            self.complete(
                &mut run,
                flight.cmd,
                reply,
                attempts,
                &first,
                flight.first_sent,
                start,
            );
        }
        let _ = c.queue(&Request::Goodbye).and_then(|_| c.flush(&mut run));
        Ok(run)
    }

    /// Record a command's final reply.
    #[allow(clippy::too_many_arguments)]
    fn complete(
        &self,
        run: &mut ConnRun,
        cmd: Cmd,
        reply: Reply,
        attempts: u32,
        first: &str,
        first_sent: Instant,
        start: Instant,
    ) {
        let now = Instant::now();
        if attempts > 0 {
            run.not_first_ok += 1;
        }
        match reply {
            Reply::Ok => {
                run.check(&cmd, first, self.expected_rows);
                if let Cmd::Rekey(r) = cmd {
                    run.acked.push(r);
                }
                run.samples.push(Sample {
                    update: matches!(cmd, Cmd::Rekey(_)),
                    lat_us: (now - first_sent).as_secs_f64() * 1e6,
                    done_s: (now - start).as_secs_f64(),
                });
            }
            Reply::Shed => unreachable!("sheds are retried or turned into failures"),
            Reply::Failed(msg) => {
                if attempts == 0 {
                    run.not_first_ok += 1;
                }
                run.problem(format!("{cmd:?} failed: {msg}"));
            }
        }
    }
}
