//! Layered end-to-end benchmark of the SaPHyRa ranking service.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! Boots an in-process `saphyra_service` deployment, drives one workload
//! (see `workload.rs`) with closed-loop keep-alive HTTP clients for
//! `--seconds`, checks every response against exact ground truth, and
//! prints one JSON line: the end-to-end metrics (`--trace 0`) or the
//! per-layer metrics of an in-process traced replay (`--trace 1`).
//! `--smoke` shrinks every workload to tiny graphs and a few requests.

mod check;
mod data;
mod load;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::AtomicU64;
use std::sync::RwLock;
use std::time::{Duration, Instant};

use crate::check::Accuracy;
use crate::data::Dataset;
use crate::load::{Clients, Rec, Stop};
use crate::stats::{mean, median, quantile, trimmed_mean};
use crate::trace::{Counters, HttpRun};
use crate::workload::{Op, Spec, Stream, WORKLOADS};

/// One reported metric.
pub struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

impl Metric {
    fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut smoke) = (None, 1, 10, false, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace wants 0 or 1, got {other:?}")),
                }
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if Spec::get(&workload, false).is_none() {
        return Err(format!(
            "unknown workload {workload:?} (want one of {WORKLOADS:?})"
        ));
    }
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        smoke,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]"
            );
            return ExitCode::from(2);
        }
    };
    let data_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("data");
    let outcome = run(&args, &data_dir);
    let _ = std::fs::remove_dir_all(data_dir.join(format!("run-{}", std::process::id())));
    match outcome {
        Ok((report, correct)) => {
            println!("{report}");
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Aggregated correctness of the checked records.
#[derive(Default)]
struct Verdict {
    attempted: usize,
    failed: usize,
    tau: Vec<f64>,
    within_eps: usize,
    estimates: usize,
    /// Per checked read: its largest |estimate − exact| ÷ ε.
    worst_err_over_eps: Vec<f64>,
    read_latency: Vec<f64>,
    /// Latencies of the writes that toggle the giant component's edge.
    giant_write_latency: Vec<f64>,
}

impl Verdict {
    fn add_accuracy(&mut self, a: &Accuracy) {
        self.tau.push(a.tau);
        self.within_eps += a.within_eps;
        self.estimates += a.estimates;
        self.worst_err_over_eps.push(a.max_err_over_eps);
    }
}

/// Checks `recs`; returns the failures' reasons (first few) in `errors`.
fn verdict(
    recs: &[Rec],
    stream: &Stream,
    ds: &Dataset,
    slot_accuracy: &[Option<Accuracy>],
    errors: &mut Vec<String>,
) -> Verdict {
    let mut v = Verdict::default();
    for r in recs {
        v.attempted += 1;
        let ok = match (&r.write, stream.op(r.index)) {
            _ if r.status != 200 => Err(format!("HTTP {}: {:?}", r.status, r.body)),
            (Some(p), _) => {
                if p.edge == ds.giant_edge {
                    v.giant_write_latency.push(r.latency.as_secs_f64());
                }
                check::patch_body(r.body.as_deref().unwrap_or(""), p)
            }
            (None, Op::Read(read)) => {
                v.read_latency.push(r.latency.as_secs_f64());
                match (r.matched, &r.body) {
                    (Some(true), _) => {
                        let slot = read.slot.expect("matched reads have a slot");
                        if let Some(a) = slot_accuracy.get(slot).copied().flatten() {
                            v.add_accuracy(&a);
                        }
                        Ok(())
                    }
                    (Some(false), _) => Err("body differs from the slot's reference".into()),
                    (None, body) => {
                        let truth = &ds.truth[ds.variant_after(r.version)];
                        check::rank_body(body.as_deref().unwrap_or(""), &read, truth).map(|a| {
                            if let Some(a) = a {
                                v.add_accuracy(&a);
                            }
                        })
                    }
                }
            }
            (None, Op::Write) => unreachable!("write records carry their patch"),
        };
        if let Err(e) = ok {
            v.failed += 1;
            if errors.len() < 5 {
                errors.push(format!("op {}: {e}", r.index));
            }
        }
    }
    v
}

/// Runs the benchmark; returns the result line and whether every check
/// passed.
fn run(args: &Args, data_dir: &std::path::Path) -> Result<(String, bool), String> {
    let spec = Spec::get(&args.workload, args.smoke).expect("validated workload");
    let io = |e: std::io::Error| e.to_string();
    let ds = Dataset::prepare(
        data_dir,
        spec.network,
        spec.size,
        spec.graph_seed,
        spec.reads_between_writes(),
    )
    .map_err(io)?;
    let stream = Stream::new(&spec, &ds.graph, args.seed);
    println!("stream_digest {:016x}", stream.digest(256));
    let dirs = load::run_dirs(data_dir, &ds).map_err(io)?;
    let workers = std::thread::available_parallelism().map_or(1, |p| p.get());

    // Set-up, several times: every boot but the last is torn down. The
    // shared machine's speed shifts every few seconds, so half the boots
    // wait until after the timed phase: the median then draws on two
    // moments of the run rather than one.
    let boots: usize = if args.smoke { 2 } else { 31 };
    let boots_before = boots.div_ceil(2);
    let mut setup = Vec::new();
    let mut deployment = None;
    for k in 0..boots_before {
        let (dep, secs) = load::boot(&spec, &ds, &dirs, workers, k).map_err(io)?;
        setup.push(secs);
        if let Some(old) = deployment.replace(dep) {
            load::Deployment::shutdown(old);
        }
    }
    let dep = deployment.expect("at least one boot");
    // Diagnostic for the noise study: what a bare bind (no graph) costs.
    let bare_bind: Vec<f64> = (0..boots)
        .map(|_| {
            let t0 = Instant::now();
            let handle = saphyra_service::serve(
                "127.0.0.1:0",
                saphyra_service::ServiceConfig {
                    workers,
                    ..Default::default()
                },
            )
            .map_err(io)?;
            let secs = t0.elapsed().as_secs_f64();
            handle.shutdown_and_join();
            Ok(secs)
        })
        .collect::<Result<_, String>>()?;
    eprintln!("diag bare_bind_s {}", median(&bare_bind));

    let mut clients = Clients {
        stream: &stream,
        ds: &ds,
        write_graph: spec.write_graph,
        write_burst: spec.write_burst,
        writes: RwLock::new(0),
        next: AtomicU64::new(0),
        references: Vec::new(),
    };
    let (warm, _) = clients.phase(&dep.addr, spec.clients, Stop::At(spec.warmup));
    // Pool slots visited during warm-up become the references every later
    // response for the slot must equal byte for byte.
    let mut errors = Vec::new();
    let mut slot_accuracy = vec![None; stream.pool().len()];
    if stream.warmup_visits_pool() {
        clients.references = vec![None; stream.pool().len()];
        for r in warm.iter().filter(|r| r.status == 200 && r.write.is_none()) {
            if let Op::Read(read) = stream.op(r.index) {
                let slot = read.slot.expect("pool reads have a slot");
                let body = r.body.clone().unwrap_or_default();
                match check::rank_body(&body, &read, &ds.truth[ds.variant_after(r.version)]) {
                    Ok(a) => {
                        slot_accuracy[slot] = a;
                        clients.references[slot] = Some(body);
                    }
                    Err(e) => errors.push(format!("warm-up op {}: {e}", r.index)),
                }
            }
        }
    }
    let warm_verdict = verdict(&warm, &stream, &ds, &slot_accuracy, &mut errors);

    let before = Counters::read(&dep.addr).map_err(io)?;
    let seconds = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let stop = Stop::Deadline {
        at: start + seconds,
        min: spec.min_timed,
        hard: start + 4 * seconds,
    };
    let (timed, wall) = clients.phase(&dep.addr, spec.clients, stop);
    let counters = Counters::read(&dep.addr).map_err(io)?.since(&before);
    dep.shutdown();
    for k in boots_before..boots {
        let (dep, secs) = load::boot(&spec, &ds, &dirs, workers, k).map_err(io)?;
        setup.push(secs);
        dep.shutdown();
    }

    let v = verdict(&timed, &stream, &ds, &slot_accuracy, &mut errors);
    let latency_p50_ms = 1e3 * median(&v.read_latency);
    let eps_ok_frac = v.within_eps as f64 / v.estimates.max(1) as f64;
    if eps_ok_frac < 1.0 - spec.delta {
        errors.push(format!(
            "only {eps_ok_frac} of the estimates are within eps (guarantee: {})",
            1.0 - spec.delta
        ));
    }
    if v.estimates == 0 {
        errors.push("no estimate was checked against the oracle".into());
    }
    let mut correct = v.failed == 0 && warm_verdict.failed == 0 && errors.is_empty();

    let metrics = if args.trace {
        let recs: Vec<Rec> = warm.iter().chain(&timed).cloned().collect();
        let http = HttpRun {
            recs: &recs,
            references: &clients.references,
            first_timed: spec.warmup,
            latency_p50_ms,
            latency_mean_ms: 1e3 * mean(&v.read_latency),
            timed_reads: v.read_latency.len(),
            counters,
        };
        let trace_path = data_dir
            .join("traces")
            .join(format!("{}-seed{}.jsonl", spec.name, args.seed));
        let budget = Duration::from_secs_f64(args.seconds as f64 / 2.0);
        let traced = trace::run(
            &spec,
            &ds,
            &stream,
            &dirs,
            workers,
            &http,
            budget,
            &trace_path,
        )
        .map_err(io)?;
        if !traced.identical {
            errors.push("replayed Service::handle bodies differ from the HTTP bodies".into());
            correct = false;
        }
        traced.metrics
    } else {
        vec![
            Metric::new(
                "throughput_rps",
                timed.len() as f64 / wall.as_secs_f64(),
                "1/s",
            ),
            Metric::new("latency_p50_ms", latency_p50_ms, "ms"),
            Metric::new("latency_p90_ms", 1e3 * quantile(&v.read_latency, 0.9), "ms"),
            Metric::new(
                "ok_frac",
                (v.attempted - v.failed) as f64 / v.attempted.max(1) as f64,
                "frac",
            ),
            Metric::new("setup_s", median(&setup), "s"),
            Metric::new("rank_tau", mean(&v.tau), "tau"),
            Metric::new("eps_ok_frac", eps_ok_frac, "frac"),
            Metric::new("err_over_eps", mean(&v.worst_err_over_eps), "eps"),
            // A giant toggle does the same work every time, so its latency
            // has two narrow peaks, one per speed the shared machine runs
            // at, and a median jumps between them with the share of the run
            // spent at each. A trimmed mean moves in proportion to it.
            Metric::new(
                "write_mean_ms",
                1e3 * trimmed_mean(&v.giant_write_latency, 0.1),
                "ms",
            ),
        ]
    };
    for e in &errors {
        eprintln!("perfbench: check failed: {e}");
    }
    if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("metric {} was not measured", m.name));
    }
    let answered = (counters.hits + counters.misses + counters.shared).max(1.0);
    eprintln!(
        "perfbench: {} seed {}: {} timed ops in {:.2} s, {} failed, {:.1}% cache hits",
        spec.name,
        args.seed,
        v.attempted,
        wall.as_secs_f64(),
        v.failed,
        100.0 * counters.hits / answered
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                r#""{}":{{"value":{},"unit":"{}"}}"#,
                m.name, m.value, m.unit
            )
        })
        .collect();
    let report = format!(
        r#"{{"correct":{correct},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
        v.attempted.max(1),
        v.failed,
        body.join(",")
    );
    Ok((report, correct))
}
