//! Readings taken from outside the program: the process's own `/proc`
//! files, and the counters the public `resilientdb` API exposes, captured
//! at the edges of the measured interval.

use resilientdb::common::{MessageKind, ReplicaId};
use resilientdb::ResilientDb;
use std::collections::BTreeMap;
use std::time::Instant;

/// Clock ticks per second of the `utime`/`stime` fields in `/proc/*/stat`
/// (`USER_HZ`, 100 on every Linux ABI this runs on).
const TICKS_PER_SEC: f64 = 100.0;

/// User + system CPU seconds of the whole process.
pub fn process_cpu_s() -> f64 {
    stat_cpu_s("/proc/self/stat")
}

/// User + system CPU seconds of the calling thread.
pub fn thread_cpu_s() -> f64 {
    stat_cpu_s("/proc/thread-self/stat")
}

fn stat_cpu_s(path: &str) -> f64 {
    let text = std::fs::read_to_string(path).unwrap_or_default();
    // The command name may hold spaces; fields after its closing
    // parenthesis are space-separated, utime and stime being the 12th
    // and 13th of them.
    let rest = text.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 / TICKS_PER_SEC
}

/// A `VmRSS`/`VmHWM`-style line of `/proc/self/status`, in MB.
fn status_mb(field: &str) -> f64 {
    let text = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    text.lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resident set now, in MB.
pub fn rss_mb() -> f64 {
    status_mb("VmRSS:")
}

/// Peak resident set of the process so far, in MB.
pub fn rss_peak_mb() -> f64 {
    status_mb("VmHWM:")
}

/// Bytes the process has passed to write-family syscalls (`wchar` of
/// `/proc/self/io`): files and sockets alike.
pub fn written_bytes() -> u64 {
    let text = std::fs::read_to_string("/proc/self/io").unwrap_or_default();
    text.lines()
        .find_map(|l| l.strip_prefix("wchar:"))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0)
}

/// The message kinds reported one by one, with their metric names.
pub const KINDS: [(MessageKind, &str); 9] = [
    (MessageKind::ClientRequest, "client_request"),
    (MessageKind::PrePrepare, "pre_prepare"),
    (MessageKind::Prepare, "prepare"),
    (MessageKind::Commit, "commit"),
    (MessageKind::ClientReply, "client_reply"),
    (MessageKind::SpecResponse, "spec_response"),
    (MessageKind::CommitCert, "commit_cert"),
    (MessageKind::LocalCommit, "local_commit"),
    (MessageKind::Checkpoint, "checkpoint"),
];

/// View-change, new-view, fetch and snapshot traffic.
const RECOVERY_KINDS: [MessageKind; 5] = [
    MessageKind::ViewChange,
    MessageKind::NewView,
    MessageKind::FetchRequest,
    MessageKind::FetchResponse,
    MessageKind::SnapshotResponse,
];

/// Stages reported for the primary and for a backup.
pub const PRIMARY_STAGES: [&str; 6] = [
    "input",
    "batch",
    "worker",
    "execute",
    "checkpoint",
    "output",
];
pub const BACKUP_STAGES: [&str; 5] = ["input", "worker", "execute", "checkpoint", "output"];

/// Busy nanoseconds, items and thread count of one stage at one replica.
#[derive(Debug, Clone, Copy, Default)]
struct StageTotals {
    busy_ns: f64,
    items: u64,
    threads: usize,
}

type Stages = BTreeMap<&'static str, StageTotals>;

fn stage_totals(db: &ResilientDb, replica: u32) -> Stages {
    let report = db.saturation(ReplicaId(replica));
    let wall_ns = report.wall.as_nanos() as f64;
    let mut out = Stages::new();
    for t in &report.threads {
        let s = out.entry(t.stage.label()).or_default();
        s.busy_ns += t.saturation_pct / 100.0 * wall_ns;
        s.items += t.items;
        s.threads += 1;
    }
    out
}

/// Every program counter the benchmark reads, at one instant.
#[derive(Debug, Clone)]
pub struct Counters {
    at: Instant,
    primary: Stages,
    backup: Stages,
    /// Messages sent per entry of [`KINDS`], then the total of all kinds.
    sent: Vec<u64>,
    /// Bytes sent, laid out like `sent`.
    bytes: Vec<u64>,
    recovery: u64,
    dropped: u64,
    executed: u64,
    batches: u64,
    views: Vec<u64>,
    deduped: u64,
    written: u64,
}

impl Counters {
    /// Reads every counter now.
    pub fn read(db: &ResilientDb) -> Self {
        let stats = db.network().stats();
        let replicas = db.replica_count() as u32;
        let mut sent: Vec<u64> = KINDS.iter().map(|(k, _)| stats.sent(*k)).collect();
        sent.push(stats.total_sent());
        let mut bytes: Vec<u64> = KINDS.iter().map(|(k, _)| stats.bytes_for(*k)).collect();
        bytes.push(stats.bytes_sent());
        Counters {
            at: Instant::now(),
            primary: stage_totals(db, 0),
            backup: stage_totals(db, 1),
            sent,
            bytes,
            recovery: RECOVERY_KINDS.iter().map(|k| stats.sent(*k)).sum(),
            dropped: stats.dropped(),
            executed: db.executed_txns(ReplicaId(0)),
            batches: db.committed_batches(ReplicaId(0)),
            views: db.views(),
            deduped: (0..replicas).map(|r| db.deduped_txns(ReplicaId(r))).sum(),
            written: written_bytes(),
        }
    }
}

/// One reported metric: name, value, unit.
pub type Metric = (String, f64, &'static str);

fn stage_metrics(
    out: &mut Vec<Metric>,
    role: &str,
    stages: &[&str],
    a: &Stages,
    b: &Stages,
    wall_ns: f64,
) {
    for &stage in stages {
        let (sa, sb) = (
            a.get(stage).copied().unwrap_or_default(),
            b.get(stage).copied().unwrap_or_default(),
        );
        let busy = sb.busy_ns - sa.busy_ns;
        let items = sb.items.saturating_sub(sa.items);
        let threads = sb.threads.max(1) as f64;
        out.push((
            format!("pipeline.{role}.{stage}.busy_pct"),
            100.0 * busy / (threads * wall_ns),
            "%",
        ));
        let per_item = if items == 0 {
            0.0
        } else {
            busy / items as f64 / 1_000.0
        };
        out.push((
            format!("pipeline.{role}.{stage}.us_per_item"),
            per_item,
            "us",
        ));
    }
}

/// The program's per-layer metrics over the interval `a` → `b`, in which
/// the clients confirmed `txns` transactions.
pub fn layer_metrics(a: &Counters, b: &Counters, txns: u64) -> Vec<Metric> {
    let wall_ns = b.at.duration_since(a.at).as_nanos().max(1) as f64;
    let per_txn = |x: u64| x as f64 / txns.max(1) as f64;
    let mut out = Vec::new();
    stage_metrics(
        &mut out,
        "primary",
        &PRIMARY_STAGES,
        &a.primary,
        &b.primary,
        wall_ns,
    );
    stage_metrics(
        &mut out,
        "backup",
        &BACKUP_STAGES,
        &a.backup,
        &b.backup,
        wall_ns,
    );
    let cumulative: f64 = b.primary.values().map(|s| s.busy_ns).sum::<f64>()
        - a.primary.values().map(|s| s.busy_ns).sum::<f64>();
    out.push((
        "pipeline.primary.cumulative_pct".into(),
        100.0 * cumulative / wall_ns,
        "%",
    ));
    let batches = b.batches.saturating_sub(a.batches);
    let executed = b.executed.saturating_sub(a.executed);
    out.push((
        "consensus.txns_per_batch".into(),
        if batches == 0 {
            0.0
        } else {
            executed as f64 / batches as f64
        },
        "txn/batch",
    ));
    let view_changes = a
        .views
        .iter()
        .zip(&b.views)
        .map(|(x, y)| y.saturating_sub(*x))
        .max()
        .unwrap_or(0);
    out.push((
        "consensus.view_changes".into(),
        view_changes as f64,
        "count",
    ));
    out.push((
        "executor.deduped_txns".into(),
        b.deduped.saturating_sub(a.deduped) as f64,
        "count",
    ));
    let total = KINDS.len();
    out.push((
        "net.msgs_per_txn".into(),
        per_txn(b.sent[total] - a.sent[total]),
        "msg/txn",
    ));
    out.push((
        "net.bytes_per_txn".into(),
        per_txn(b.bytes[total] - a.bytes[total]),
        "B/txn",
    ));
    out.push((
        "net.dropped".into(),
        b.dropped.saturating_sub(a.dropped) as f64,
        "count",
    ));
    for (i, (_, name)) in KINDS.iter().enumerate() {
        out.push((
            format!("net.{name}.msgs_per_txn"),
            per_txn(b.sent[i] - a.sent[i]),
            "msg/txn",
        ));
        out.push((
            format!("net.{name}.bytes_per_txn"),
            per_txn(b.bytes[i] - a.bytes[i]),
            "B/txn",
        ));
    }
    out.push((
        "net.recovery_msgs".into(),
        b.recovery.saturating_sub(a.recovery) as f64,
        "count",
    ));
    out.push((
        "storage.written_bytes_per_txn".into(),
        per_txn(b.written.saturating_sub(a.written)),
        "B/txn",
    ));
    out
}

/// Size in MB of the newest `snapshot-<seq>.snap` in `dir`, 0 if none.
pub fn newest_snapshot_mb(dir: &std::path::Path) -> f64 {
    let newest = std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|e| {
            let name = e.file_name().into_string().ok()?;
            let seq: u64 = name
                .strip_prefix("snapshot-")?
                .strip_suffix(".snap")?
                .parse()
                .ok()?;
            Some((seq, e.metadata().ok()?.len()))
        })
        .max();
    newest.map_or(0.0, |(_, len)| len as f64 / (1024.0 * 1024.0))
}
