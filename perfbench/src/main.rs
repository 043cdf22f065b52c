//! perfbench: the end-to-end benchmark of the looking-glass fabric.
//!
//! Builds an in-process 4-replica cluster through the public
//! `resilientdb` API, drives a closed-loop load from one thread, checks
//! the cluster's outputs against the generator's own record, and prints
//! every metric by name and unit. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics, or with `--trace 1` the per-layer ones).
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! See `perfbench/README.md` for the workloads, the metrics and how to
//! read them.

mod load;
mod probe;
mod trace;

use resilientdb::common::{ProtocolKind, ReplicaId, TransportMode};
use resilientdb::{ResilientDb, SystemBuilder};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;

/// One benchmark workload: a cluster shape plus a client population.
#[derive(Debug, Clone, Copy)]
struct Workload {
    name: &'static str,
    protocol: ProtocolKind,
    transport: TransportMode,
    /// Records preloaded into every replica's table.
    table: u64,
    /// WAL with group commit and persisted checkpoints in a fresh data dir.
    durable: bool,
    sessions: usize,
    /// Transactions per request.
    burst: usize,
    /// Checkpoint rounds per second this workload runs on the reference
    /// machine (README): `--seconds` times this is the fixed number of
    /// rounds in the measured interval.
    reference_rounds_per_s: f64,
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "pbft-mem-burst",
        protocol: ProtocolKind::Pbft,
        transport: TransportMode::InMemory,
        table: 4_096,
        durable: false,
        sessions: 4,
        burst: 25,
        reference_rounds_per_s: 3.7,
    },
    Workload {
        name: "zyzzyva-tcp-single",
        protocol: ProtocolKind::Zyzzyva,
        transport: TransportMode::Tcp,
        table: 4_096,
        durable: false,
        sessions: 100,
        burst: 1,
        reference_rounds_per_s: 5.8,
    },
    Workload {
        name: "pbft-durable-burst",
        protocol: ProtocolKind::Pbft,
        transport: TransportMode::InMemory,
        table: 4_096,
        durable: true,
        sessions: 4,
        burst: 25,
        reference_rounds_per_s: 3.5,
    },
];

/// Cluster builds per run; `setup_s` is their median.
const BUILDS: usize = 5;
/// Replicas in every workload's cluster.
const REPLICAS: usize = 4;
/// Transactions per consensus batch.
const BATCH: usize = 100;
/// Checkpoint interval Δ, in transactions.
const DELTA: u64 = 10_000;
/// Keys written per workload, split evenly over its sessions; every one
/// is read back after the load.
const WRITTEN_KEYS: usize = 2_048;
/// Requests the interval must hold, so at least ten samples lie beyond
/// the 99th percentile.
const MIN_REQUESTS: u64 = 1_000;
/// Wall-clock budget of one run; past it the run fails rather than
/// overrunning.
const RUN_BUDGET: Duration = Duration::from_secs(110);
/// How long replicas get to converge after the last client reply.
const CONVERGE_WITHIN: Duration = Duration::from_secs(20);
/// Where data dirs and trace files live, relative to the working directory.
const DATA_ROOT: &str = ".bench_data";

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(at + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let workload = *WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or(format!("unknown workload {name:?}"))?;
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?
            .parse()
            .map_err(|_| format!("{flag} takes a whole number"))
    };
    let trace = match number("--trace")? {
        0 => false,
        1 => true,
        _ => return Err("--trace takes 0 or 1".into()),
    };
    Ok(Args {
        workload,
        seed: number("--seed")?,
        seconds: number("--seconds")?,
        trace,
    })
}

/// The commit the working directory is checked out at, or "unknown"
/// outside a git checkout.
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(reference)
        .map(|r| r.trim().to_string())
        .or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn builder(w: &Workload, data_dir: Option<&Path>) -> SystemBuilder {
    let mut b = SystemBuilder::new(REPLICAS)
        .protocol(w.protocol)
        .transport(w.transport)
        .batch_size(BATCH)
        .checkpoint_interval(DELTA)
        .table_size(w.table)
        .client_keys(w.sessions);
    if let Some(dir) = data_dir {
        b.options_mut().system.durability.data_dir = Some(dir.display().to_string());
    }
    b
}

/// Checkpoint rounds in the measured interval.
fn rounds(w: &Workload, seconds: u64) -> u64 {
    (seconds as f64 * w.reference_rounds_per_s).round().max(1.0) as u64
}

fn build_dir(run_dir: &Path, i: usize) -> PathBuf {
    run_dir.join(format!("build-{i}"))
}

/// Builds the workload's cluster (build `i` of the run, in a fresh data
/// dir when durable), recording the wall time of `SystemBuilder::build`.
fn build(
    w: &Workload,
    run_dir: &Path,
    i: usize,
    build_s: &mut Vec<f64>,
    tracer: &mut Tracer,
) -> Result<ResilientDb, resilientdb::common::CommonError> {
    let dir = w.durable.then(|| build_dir(run_dir, i));
    let b = builder(w, dir.as_deref());
    let t = Instant::now();
    let built = b.build();
    build_s.push(t.elapsed().as_secs_f64());
    tracer.record("build", 0, None, t);
    built
}

fn agree<T: PartialEq>(values: &[T]) -> bool {
    values.windows(2).all(|w| w[0] == w[1])
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of samples, in milliseconds.
fn percentile_ms(samples: &[Duration], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1].as_secs_f64() * 1_000.0
}

/// The median of the 99th percentiles of up to ten windows of consecutive
/// samples, each of at least [`MIN_REQUESTS`] (so each window's p99 has
/// ten samples beyond it): a stretch of the run stalled by something
/// outside the program moves it far less than one p99 over the interval.
fn windowed_p99_ms(samples: &[Duration]) -> f64 {
    let windows = (samples.len() / MIN_REQUESTS as usize).clamp(1, 10);
    let mut p99s: Vec<f64> = (0..windows)
        .map(|i| {
            let window = &samples[i * samples.len() / windows..(i + 1) * samples.len() / windows];
            percentile_ms(window, 99.0)
        })
        .collect();
    median(&mut p99s)
}

/// Waits until every replica has executed `txns` distinct transactions
/// and they agree on chain head and state digest, then checks exactly
/// that. Returns the number of failed checks.
fn check_replicas(db: &ResilientDb, txns: u64) -> u64 {
    let replicas = db.replica_count() as u32;
    let executed = || {
        (0..replicas)
            .map(|r| db.executed_txns(ReplicaId(r)))
            .collect::<Vec<_>>()
    };
    let deadline = Instant::now() + CONVERGE_WITHIN;
    while Instant::now() < deadline
        && !(executed().iter().all(|&e| e == txns)
            && agree(&db.chain_heads())
            && agree(&db.state_digests()))
    {
        std::thread::sleep(Duration::from_millis(10));
    }
    let mut failed = 0;
    for (r, e) in executed().into_iter().enumerate() {
        if e != txns {
            eprintln!(
                "perfbench: replica {r} executed {e} distinct txns, clients submitted {txns}"
            );
            failed += 1;
        }
    }
    if !agree(&db.chain_heads()) {
        eprintln!("perfbench: chain heads differ: {:?}", db.chain_heads());
        failed += 1;
    }
    if !agree(&db.state_digests()) {
        eprintln!("perfbench: state digests differ across replicas");
        failed += 1;
    }
    if let Err(e) = db.verify_chains() {
        eprintln!("perfbench: chain verification failed: {e}");
        failed += 1;
    }
    failed
}

fn json_metrics(metrics: &[probe::Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let begun = Instant::now();
    let mut tracer = Tracer::new(args.trace);
    let run_dir = PathBuf::from(DATA_ROOT).join(format!("{}-{}", w.name, std::process::id()));

    // Set-up: the first build is the measured cluster, in a fresh
    // process; the remaining builds follow the run, so their freed memory
    // does not shift the run's footprint.
    let mut build_s = Vec::with_capacity(BUILDS);
    let db = match build(&w, &run_dir, 0, &mut build_s, &mut tracer) {
        Ok(db) => db,
        Err(e) => {
            eprintln!("perfbench: cluster build failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let rss_after_setup_mb = probe::rss_mb();

    let plan = load::Plan {
        sessions: w.sessions,
        burst: w.burst,
        keys_per_session: WRITTEN_KEYS / w.sessions,
        table: w.table,
        seed: args.seed,
        round_batches: DELTA / BATCH as u64,
        rounds: rounds(&w, args.seconds),
        min_requests: MIN_REQUESTS,
        deadline: begun + RUN_BUDGET,
    };
    let t = Instant::now();
    let mut out = load::run(&db, &plan, &mut tracer);
    tracer.record("load", 0, None, t);
    if !out.measured {
        eprintln!("perfbench: the interval did not close within the run budget");
        out.failed += 1;
    }
    let t = Instant::now();
    out.failed += check_replicas(&db, out.attempted);
    tracer.record("check", 0, None, t);
    let snapshot_mb = probe::newest_snapshot_mb(&build_dir(&run_dir, 0).join("replica-0"));
    db.shutdown();
    for i in 1..BUILDS {
        match build(&w, &run_dir, i, &mut build_s, &mut tracer) {
            Ok(db) => db.shutdown(),
            Err(e) => {
                eprintln!("perfbench: cluster build failed: {e}");
                out.failed += 1;
            }
        }
    }
    if w.durable {
        let _ = std::fs::remove_dir_all(&run_dir);
    }

    let txns = out.interval_txns.max(1);
    let secs = out.interval.as_secs_f64().max(1e-9);
    let end_to_end: Vec<probe::Metric> = vec![
        ("committed_tps".into(), median(&mut out.round_tps), "txn/s"),
        (
            "latency_p50_ms".into(),
            percentile_ms(&out.latencies, 50.0),
            "ms",
        ),
        (
            "latency_p99_ms".into(),
            windowed_p99_ms(&out.latencies),
            "ms",
        ),
        ("setup_s".into(), median(&mut build_s), "s"),
        ("cpu_us_per_txn".into(), out.cpu_s * 1e6 / txns as f64, "us"),
        ("rss_peak_mb".into(), probe::rss_peak_mb(), "MB"),
    ];
    let mut per_layer: Vec<probe::Metric> = vec![
        ("loadgen.busy_pct".into(), out.loadgen_busy_pct, "%"),
        ("client.submit_us".into(), out.submit_us, "us"),
        ("client.poll_us_per_txn".into(), out.poll_us_per_txn, "us"),
    ];
    if let Some((a, b)) = &out.edges {
        per_layer.extend(probe::layer_metrics(a, b, txns));
    }
    per_layer.push((
        "storage.rss_after_setup_mb".into(),
        rss_after_setup_mb,
        "MB",
    ));
    per_layer.push(("storage.snapshot_mb".into(), snapshot_mb, "MB"));
    if args.trace {
        let path = PathBuf::from(DATA_ROOT)
            .join("traces")
            .join(format!("{}-seed{}.jsonl", w.name, args.seed));
        if let Err(e) = tracer.write(&path) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
    }

    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} nproc={} git={} attempted={} failed={}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc,
        git_rev(),
        out.attempted,
        out.failed
    );
    println!(
        "# interval: {} txns in {:.3} s, {} rounds, {} latency samples; builds {:?} s",
        out.interval_txns,
        secs,
        out.round_tps.len(),
        out.latencies.len(),
        build_s
    );
    // A traced run prints its end-to-end figures too, as `#` lines, so the
    // tracing overhead can be read against untraced runs.
    let shown = if args.trace {
        [&end_to_end[..], &per_layer[..]].concat()
    } else {
        end_to_end.clone()
    };
    for (name, value, unit) in &shown {
        println!("# {name:<40} {value:>14.4} {unit}");
    }
    if args.trace {
        println!("# e2e {}", json_metrics(&end_to_end));
    }
    let correct = out.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted.max(1),
        out.failed,
        json_metrics(if args.trace { &per_layer } else { &end_to_end })
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
