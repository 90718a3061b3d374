//! Seeded inputs: the relation's key layout, the re-key generator, and
//! the per-connection operation streams.
//!
//! The served relation `EMP` is split into disjoint key windows, one per
//! procedure. A window spans twice as many keys as it holds rows, so
//! every re-key can move a live key to a free key *inside the same
//! window*. That keeps each window's row count (and so each procedure's
//! result size) constant for the whole run, and every re-key finds its
//! victim: no update turns into a no-op as the run goes on.
//!
//! Each connection owns a disjoint half of every window's keys, so
//! re-keys from different connections commute and the final relation
//! does not depend on how the connections interleave. Within one
//! pipelined connection, re-keys may complete out of order; a key a
//! re-key frees or takes goes back to the pool only [`RELEASE_LAG`]
//! re-keys later, and the client waits until that re-key is
//! acknowledged (see [`OpStream::must_ack_below`]), so the key sequence
//! depends on the seed alone.

use std::collections::{BTreeMap, VecDeque};

/// Re-keys a freed or taken key sits out before it can be reused.
pub const RELEASE_LAG: u64 = 64;

/// splitmix64: a small seeded generator (no external crate).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded from `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Derive an independent sub-seed for stream `salt` of `seed`.
pub fn sub_seed(seed: u64, salt: u64) -> u64 {
    Rng::new(seed ^ salt.wrapping_mul(0xD6E8_FEB8_6659_FD93)).next_u64()
}

/// Pick a procedure under the paper's `Z` skew: the first `⌈z·n⌉`
/// procedures receive a fraction `1 − z` of the accesses.
pub fn pick_procedure(rng: &mut Rng, n: usize, z: f64) -> usize {
    let hot = ((n as f64 * z).ceil() as usize).clamp(1, n);
    if hot == n {
        return rng.below(n);
    }
    if rng.unit() < 1.0 - z {
        rng.below(hot)
    } else {
        hot + rng.below(n - hot)
    }
}

/// Inner relation size for the join procedures, and the `dept` domain.
pub const DEPTS: i64 = 1000;

/// How the relation's keys are laid out over the procedures' windows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layout {
    /// Disjoint key windows, one per procedure.
    pub windows: usize,
    /// Live rows in each window (constant for the whole run).
    pub rows_per_window: usize,
}

impl Layout {
    /// Keys one window spans: half live, half free at every moment.
    pub fn span(&self) -> i64 {
        2 * self.rows_per_window as i64
    }

    /// Inclusive key bounds of window `w`.
    pub fn bounds(&self, w: usize) -> (i64, i64) {
        let lo = w as i64 * self.span();
        (lo, lo + self.span() - 1)
    }

    /// Window holding `key`.
    pub fn window_of(&self, key: i64) -> usize {
        (key / self.span()) as usize
    }

    /// Connection (of `conns`) that owns `key`.
    pub fn owner(&self, key: i64, conns: usize) -> usize {
        ((key % self.span()) / 2) as usize % conns
    }

    /// The seeded relation: every even offset of every window is live.
    /// Rows are `(eid, dept)`; `dept` travels with the row on a re-key.
    pub fn initial_rows(&self) -> BTreeMap<i64, i64> {
        (0..self.windows)
            .flat_map(|w| {
                let lo = self.bounds(w).0;
                (0..self.rows_per_window as i64).map(move |j| lo + 2 * j)
            })
            .map(|k| (k, (k / 2) % DEPTS))
            .collect()
    }
}

/// One re-key of the relation: the row keyed `victim` becomes `new_key`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rekey {
    /// Position in its connection's re-key sequence.
    pub index: u64,
    /// A key that is live when this re-key runs.
    pub victim: i64,
    /// A key that is free when this re-key runs, in the victim's window.
    pub new_key: i64,
}

/// One connection's re-key generator over the keys it owns.
#[derive(Debug, Clone)]
pub struct RekeyGen {
    layout: Layout,
    live: Vec<Vec<i64>>,
    free: Vec<Vec<i64>>,
    /// Issued re-keys whose keys are not back in the pools yet.
    held: VecDeque<Rekey>,
    issued: u64,
}

impl RekeyGen {
    /// The generator for connection `conn` of `conns`.
    pub fn new(layout: Layout, conns: usize, conn: usize) -> RekeyGen {
        let mut live = vec![Vec::new(); layout.windows];
        let mut free = vec![Vec::new(); layout.windows];
        for (w, (live_w, free_w)) in live.iter_mut().zip(free.iter_mut()).enumerate() {
            let (lo, hi) = layout.bounds(w);
            for k in (lo..=hi).filter(|&k| layout.owner(k, conns) == conn) {
                if (k - lo) % 2 == 0 {
                    live_w.push(k);
                } else {
                    free_w.push(k);
                }
            }
        }
        RekeyGen {
            layout,
            live,
            free,
            held: VecDeque::new(),
            issued: 0,
        }
    }

    /// Re-keys issued so far.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Draw the next re-key, in a window chosen uniformly.
    pub fn next(&mut self, rng: &mut Rng) -> Rekey {
        while self
            .held
            .front()
            .is_some_and(|r| r.index + RELEASE_LAG <= self.issued)
        {
            let r = self.held.pop_front().expect("front checked");
            let w = self.layout.window_of(r.victim);
            self.free[w].push(r.victim);
            self.live[w].push(r.new_key);
        }
        let w = rng.below(self.layout.windows);
        let (live, free) = (&mut self.live[w], &mut self.free[w]);
        let victim = live.swap_remove(rng.below(live.len()));
        let new_key = free.swap_remove(rng.below(free.len()));
        let r = Rekey {
            index: self.issued,
            victim,
            new_key,
        };
        self.issued += 1;
        self.held.push_back(r);
        r
    }
}

/// The traffic mix a workload draws its operations from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mix {
    /// Procedures (one per key window).
    pub procs: usize,
    /// Probability an operation is an update transaction (the paper's P).
    pub p_update: f64,
    /// Re-keys per update transaction (the paper's l).
    pub l: usize,
    /// Locality skew (the paper's Z).
    pub z: f64,
    /// Session-affine users across all connections (0 = none).
    pub users: usize,
    /// Share of a user's accesses that re-read its own procedure.
    pub affinity: f64,
}

/// One operation a connection issues.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Read procedure `i`.
    Access(usize),
    /// One update transaction: `l` re-keys, one wire command each.
    Update(Vec<Rekey>),
}

/// One connection's seeded operation stream.
#[derive(Debug, Clone)]
pub struct OpStream {
    mix: Mix,
    rng: Rng,
    /// Affinity procedure of each user this connection serves.
    users: Vec<usize>,
    next_user: usize,
    rekeys: RekeyGen,
}

impl OpStream {
    /// Connection `conn` of `conns` under `seed`.
    pub fn new(mix: Mix, layout: Layout, seed: u64, conns: usize, conn: usize) -> OpStream {
        let users = (0..mix.users)
            .filter(|u| u % conns == conn)
            .map(|u| {
                let mut rng = Rng::new(sub_seed(seed, 1000 + u as u64));
                pick_procedure(&mut rng, mix.procs, mix.z)
            })
            .collect();
        OpStream {
            mix,
            rng: Rng::new(sub_seed(seed, conn as u64)),
            users,
            next_user: 0,
            rekeys: RekeyGen::new(layout, conns, conn),
        }
    }

    /// Every re-key with an index below this must be acknowledged before
    /// [`OpStream::next_op`] is called: the next operation may release
    /// their keys back to the pools.
    pub fn must_ack_below(&self) -> u64 {
        (self.rekeys.issued() + self.mix.l as u64).saturating_sub(RELEASE_LAG)
    }

    /// Draw the next operation.
    pub fn next_op(&mut self) -> Op {
        let affine = if self.users.is_empty() {
            None
        } else {
            let u = self.users[self.next_user];
            self.next_user = (self.next_user + 1) % self.users.len();
            Some(u)
        };
        if self.rng.unit() < self.mix.p_update {
            let txn = (0..self.mix.l)
                .map(|_| self.rekeys.next(&mut self.rng))
                .collect();
            return Op::Update(txn);
        }
        match affine {
            Some(p) if self.rng.unit() < self.mix.affinity => Op::Access(p),
            _ => Op::Access(pick_procedure(&mut self.rng, self.mix.procs, self.mix.z)),
        }
    }
}

/// Apply re-keys to a relation model; `false` if a victim is missing or
/// a new key is taken (the generator's contract is broken).
pub fn apply_rekeys<'a>(
    model: &mut BTreeMap<i64, i64>,
    rekeys: impl IntoIterator<Item = &'a Rekey>,
) -> bool {
    for r in rekeys {
        let Some(dept) = model.remove(&r.victim) else {
            return false;
        };
        if model.insert(r.new_key, dept).is_some() {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    const PAPER: Layout = Layout {
        windows: 16,
        rows_per_window: 750,
    };

    fn mix(p_update: f64, users: usize) -> Mix {
        Mix {
            procs: 16,
            p_update,
            l: 4,
            z: 0.25,
            users,
            affinity: 0.8,
        }
    }

    fn ops(seed: u64, conn: usize, n: usize) -> Vec<Op> {
        let mut s = OpStream::new(mix(0.3, 64), PAPER, seed, 2, conn);
        (0..n).map(|_| s.next_op()).collect()
    }

    #[test]
    fn streams_are_deterministic_per_seed() {
        assert_eq!(ops(7, 0, 2000), ops(7, 0, 2000));
        assert_eq!(ops(7, 1, 2000), ops(7, 1, 2000));
        assert_ne!(ops(7, 0, 2000), ops(8, 0, 2000));
        assert_ne!(ops(7, 0, 2000), ops(7, 1, 2000));
    }

    #[test]
    fn initial_layout_is_dense_and_windowed() {
        let rows = PAPER.initial_rows();
        assert_eq!(rows.len(), 12_000);
        for w in 0..PAPER.windows {
            let (lo, hi) = PAPER.bounds(w);
            assert_eq!(rows.range(lo..=hi).count(), 750);
        }
    }

    /// Drive both connections with up to `depth` re-keys in flight each,
    /// completing in random order, and apply every completion to a
    /// shared model: each victim must be live and each new key free at
    /// the moment it applies, however the completions interleave.
    #[test]
    fn every_rekey_finds_its_victim_under_out_of_order_completion() {
        let depth = 16;
        let mut model = PAPER.initial_rows();
        let mut chaos = Rng::new(99);
        let mut streams: Vec<OpStream> = (0..2)
            .map(|c| OpStream::new(mix(1.0, 0), PAPER, 5, 2, c))
            .collect();
        let mut in_flight: Vec<Vec<Rekey>> = vec![Vec::new(), Vec::new()];
        let mut applied = 0usize;
        for step in 0..15_000 {
            let c = step % 2;
            // The client's contract: acknowledge what the next op may
            // release, then keep at most `depth` in flight.
            let bound = streams[c].must_ack_below();
            while let Some(i) = in_flight[c].iter().position(|r| r.index < bound) {
                let r = in_flight[c].swap_remove(i);
                assert!(apply_rekeys(&mut model, [&r]), "stale victim {r:?}");
                applied += 1;
            }
            let Op::Update(txn) = streams[c].next_op() else {
                panic!("p_update = 1 yields only updates");
            };
            for r in txn {
                assert_eq!(PAPER.owner(r.victim, 2), c);
                assert_eq!(PAPER.owner(r.new_key, 2), c);
                assert_eq!(PAPER.window_of(r.victim), PAPER.window_of(r.new_key));
                in_flight[c].push(r);
            }
            while in_flight[c].len() > depth {
                let i = chaos.below(in_flight[c].len());
                let r = in_flight[c].swap_remove(i);
                assert!(apply_rekeys(&mut model, [&r]), "stale victim {r:?}");
                applied += 1;
            }
        }
        for r in in_flight.concat() {
            assert!(apply_rekeys(&mut model, [&r]));
            applied += 1;
        }
        assert_eq!(applied, 60_000, "no re-key was lost or a no-op");
        for w in 0..PAPER.windows {
            let (lo, hi) = PAPER.bounds(w);
            assert_eq!(model.range(lo..=hi).count(), 750, "window {w} density");
        }
    }

    #[test]
    fn connections_own_disjoint_keys() {
        let a: BTreeSet<i64> = (0..24_000).filter(|&k| PAPER.owner(k, 2) == 0).collect();
        let b: BTreeSet<i64> = (0..24_000).filter(|&k| PAPER.owner(k, 2) == 1).collect();
        assert!(a.is_disjoint(&b));
        assert_eq!(a.len() + b.len(), 24_000);
        assert_eq!(a.len(), b.len());
    }

    #[test]
    fn update_share_and_affinity_follow_the_mix() {
        let ops = ops(3, 0, 20_000);
        let updates = ops.iter().filter(|o| matches!(o, Op::Update(_))).count();
        let share = updates as f64 / ops.len() as f64;
        assert!((share - 0.3).abs() < 0.02, "update share {share}");
        let hot = ops
            .iter()
            .filter(|o| matches!(o, Op::Access(p) if *p < 4))
            .count();
        assert!(hot > (ops.len() - updates) / 2, "Z skew favours hot procs");
    }
}
