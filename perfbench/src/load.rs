//! The closed-loop load generator: one thread multiplexes every client
//! session through `ClientSession::poll_progress`, keeps one request
//! outstanding per session, and afterwards reads every written key back.
//!
//! Inputs come from the seed alone. Session `s` of `S` owns the keys
//! `k ≡ s (mod S)` and writes only a fixed, seeded subset of them, so no
//! two sessions touch the same key and the generator knows the last value
//! written to every key. Each value is 8 bytes, `(s + 1) << 32 | w`, where
//! `w` counts the session's writes from 1: it names its writer and its
//! order, and a read returns it whole (reads echo at most 8 bytes).

use crate::probe::{self, Counters};
use crate::trace::Tracer;
use resilientdb::common::{Operation, ReplicaId, TxnId};
use resilientdb::{ClientSession, ResilientDb};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// SplitMix64: a small, seedable generator with no dependencies.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// The shape of one run's load.
///
/// The measured interval is cut into rounds at the primary's committed
/// batch count: one round is one checkpoint period (`round_batches`
/// batches), with its edges half a period away from the checkpoint
/// sequences, so every round holds exactly one checkpoint whatever the
/// batches' fill. Warm-up runs one and a half periods, past the first
/// checkpoint.
#[derive(Debug, Clone)]
pub struct Plan {
    pub sessions: usize,
    /// Transactions per request.
    pub burst: usize,
    /// Keys each session writes.
    pub keys_per_session: usize,
    pub table: u64,
    pub seed: u64,
    /// Batches per round: the checkpoint period, Δ / batch size.
    pub round_batches: u64,
    /// Rounds in the interval ...
    pub rounds: u64,
    /// ... extended by whole rounds until this many requests completed.
    pub min_requests: u64,
    /// Past this instant nothing new is submitted and the run fails.
    pub deadline: Instant,
}

/// What the load measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Transactions submitted, writes and read-backs.
    pub attempted: u64,
    /// Transactions that never completed plus read-backs that returned a
    /// value other than the last one written.
    pub failed: u64,
    /// Whether the interval closed (false: the deadline cut the run).
    pub measured: bool,
    pub interval: Duration,
    /// Transactions confirmed at the clients inside the interval.
    pub interval_txns: u64,
    /// Process CPU seconds inside the interval.
    pub cpu_s: f64,
    /// Confirmed transactions per second of each round.
    pub round_tps: Vec<f64>,
    /// Submit → completion of every request submitted inside the interval.
    pub latencies: Vec<Duration>,
    /// Counters at the interval's edges (traced runs only).
    pub edges: Option<(Counters, Counters)>,
    /// Load-thread CPU over interval wall time, percent (traced runs).
    pub loadgen_busy_pct: f64,
    /// Mean time per `submit` inside the interval, µs (traced runs).
    pub submit_us: f64,
    /// `poll_progress` time inside the interval per confirmed txn, µs
    /// (traced runs).
    pub poll_us_per_txn: f64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Warmup,
    Measure,
    Drain,
    ReadBack,
}

struct Request {
    span: u64,
    at: Instant,
    txns: u64,
    measured: bool,
    /// Read-backs: transaction id and the value the key must hold.
    reads: Vec<(TxnId, u64)>,
}

struct Session {
    client: ClientSession,
    index: u64,
    keys: Vec<u64>,
    rng: Rng,
    writes: u64,
    last: BTreeMap<u64, u64>,
    to_read: Vec<u64>,
    req: Option<Request>,
}

impl Session {
    fn new(client: ClientSession, index: u64, plan: &Plan) -> Self {
        let stride = plan.sessions as u64;
        let share = plan.table / stride;
        let mut rng = Rng::new(plan.seed ^ (index + 1).wrapping_mul(0xA24B_AED4_963E_E407));
        let mut keys = Vec::with_capacity(plan.keys_per_session);
        while keys.len() < plan.keys_per_session {
            let key = rng.below(share) * stride + index;
            if !keys.contains(&key) {
                keys.push(key);
            }
        }
        Session {
            client,
            index,
            keys,
            rng,
            writes: 0,
            last: BTreeMap::new(),
            to_read: Vec::new(),
            req: None,
        }
    }

    /// The next write request: `burst` distinct keys of this session's set.
    fn next_writes(&mut self, burst: usize) -> Vec<resilientdb::common::Transaction> {
        let n = self.keys.len();
        (0..burst)
            .map(|i| {
                let j = i + self.rng.below((n - i) as u64) as usize;
                self.keys.swap(i, j);
                let key = self.keys[i];
                self.writes += 1;
                let value = ((self.index + 1) << 32) | self.writes;
                self.last.insert(key, value);
                self.client.txn(vec![Operation::Write {
                    key,
                    value: value.to_le_bytes().to_vec(),
                }])
            })
            .collect()
    }
}

/// Drives the load on `db` and returns what it measured.
pub fn run(db: &ResilientDb, plan: &Plan, tracer: &mut Tracer) -> Outcome {
    let mut sessions: Vec<Session> = (0..plan.sessions as u64)
        .map(|i| Session::new(db.client(i), i, plan))
        .collect();
    let traced = tracer.enabled();
    let mut out = Outcome::default();
    let mut phase = Phase::Warmup;
    let mut next_span = 1u64;
    let mut next_edge = plan.round_batches * 3 / 2;
    let mut started = Instant::now();
    let mut round_start = started;
    let mut round_txns = 0u64;
    let mut cpu0 = 0.0;
    let mut thread_cpu0 = 0.0;
    let mut first_edge = None;
    let mut submit_ns = 0u64;
    let mut submits = 0u64;
    let mut poll_ns = 0u64;

    loop {
        let mut progressed = false;
        for s in &mut sessions {
            if s.client.pending() > 0 {
                let t = Instant::now();
                let done = s.client.poll_progress();
                if traced {
                    let finished = s.client.pending() == 0;
                    let req = s.req.as_ref().map_or(0, |r| r.span);
                    let ns = if finished {
                        tracer.record("poll", req, Some("request"), t)
                    } else {
                        t.elapsed().as_nanos() as u64
                    };
                    if phase == Phase::Measure {
                        poll_ns += ns;
                    }
                }
                progressed |= done > 0;
            }
            if s.client.pending() > 0 {
                continue;
            }
            if let Some(r) = s.req.take() {
                progressed = true;
                tracer.record("request", r.span, None, r.at);
                if r.measured {
                    out.latencies.push(r.at.elapsed());
                }
                for (id, want) in &r.reads {
                    let got = s.client.result(*id).map(|v| v.as_slice());
                    if got != Some(&want.to_le_bytes()[..]) {
                        out.failed += 1;
                    }
                }
                if r.reads.is_empty() && phase == Phase::Measure {
                    out.interval_txns += r.txns;
                    round_txns += r.txns;
                }
            }
            if Instant::now() > plan.deadline {
                continue;
            }
            let (txns, reads) = match phase {
                Phase::Warmup | Phase::Measure => (s.next_writes(plan.burst), Vec::new()),
                Phase::ReadBack if !s.to_read.is_empty() => {
                    let keys: Vec<u64> =
                        s.to_read.drain(..plan.burst.min(s.to_read.len())).collect();
                    let txns: Vec<_> = keys.iter().map(|&k| s.client.read_txn(k)).collect();
                    let reads = txns
                        .iter()
                        .zip(&keys)
                        .map(|(t, k)| (t.id, s.last[k]))
                        .collect();
                    (txns, reads)
                }
                _ => continue,
            };
            let span = next_span;
            next_span += 1;
            let n = txns.len() as u64;
            out.attempted += n;
            let at = Instant::now();
            s.client.submit(txns);
            let ns = tracer.record("submit", span, Some("request"), at);
            if phase == Phase::Measure {
                submit_ns += ns;
                submits += 1;
            }
            s.req = Some(Request {
                span,
                at,
                txns: n,
                measured: phase == Phase::Measure,
                reads,
            });
            progressed = true;
        }

        if matches!(phase, Phase::Warmup | Phase::Measure)
            && db.committed_batches(ReplicaId(0)) >= next_edge
        {
            let now = Instant::now();
            if phase == Phase::Warmup {
                phase = Phase::Measure;
                started = now;
                cpu0 = probe::process_cpu_s();
                if traced {
                    thread_cpu0 = probe::thread_cpu_s();
                    first_edge = Some(Counters::read(db));
                }
            } else {
                out.round_tps
                    .push(round_txns as f64 / now.duration_since(round_start).as_secs_f64());
                round_txns = 0;
                let enough = out.round_tps.len() as u64 >= plan.rounds
                    && out.latencies.len() as u64 >= plan.min_requests;
                if enough {
                    out.interval = now.duration_since(started);
                    out.cpu_s = probe::process_cpu_s() - cpu0;
                    out.measured = true;
                    if traced {
                        let secs = out.interval.as_secs_f64();
                        out.loadgen_busy_pct = 100.0 * (probe::thread_cpu_s() - thread_cpu0) / secs;
                        out.edges = first_edge.take().map(|a| (a, Counters::read(db)));
                    }
                    phase = Phase::Drain;
                }
            }
            round_start = now;
            next_edge += plan.round_batches;
        }
        let idle = sessions.iter().all(|s| s.req.is_none());
        if phase == Phase::Drain && idle {
            phase = Phase::ReadBack;
            for s in &mut sessions {
                s.to_read = s.last.keys().copied().collect();
            }
            continue;
        }
        if phase == Phase::ReadBack && idle && sessions.iter().all(|s| s.to_read.is_empty()) {
            break;
        }
        if Instant::now() > plan.deadline
            && (idle || Instant::now() > plan.deadline + Duration::from_secs(5))
        {
            // Whatever is still in flight never completed, and read-backs
            // not yet sent count as attempted and failed.
            out.failed += sessions
                .iter()
                .filter_map(|s| s.req.as_ref())
                .map(|r| r.txns)
                .sum::<u64>();
            let unread: u64 = sessions.iter().map(|s| s.to_read.len() as u64).sum();
            out.attempted += unread;
            out.failed += unread;
            break;
        }
        if !progressed {
            std::thread::sleep(Duration::from_micros(100));
        }
    }
    if traced && submits > 0 {
        out.submit_us = submit_ns as f64 / submits as f64 / 1_000.0;
        out.poll_us_per_txn = poll_ns as f64 / out.interval_txns.max(1) as f64 / 1_000.0;
    }
    out
}
