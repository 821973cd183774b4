//! The traced run: an in-process replay of the HTTP run's request stream
//! that times each layer's public entry points from outside, plus direct
//! probes of the layers the stream reaches only inside `Service::handle`.
//!
//! The replay runs on two fresh deployments, step by step, in the order the
//! HTTP run applied its operations (reads grouped by the graph variant they
//! saw): each step goes once over keep-alive HTTP, timed end to end, and
//! once through `Service::handle` in process, one span per call. Timing
//! both side by side keeps machine drift out of their difference, which is
//! the share of latency the layers do not explain. Both must reproduce
//! every `/rank` body of the HTTP run byte for byte, which proves the
//! per-layer numbers describe the computation the end-to-end numbers
//! measured. Spans live in memory and are written to `data/traces/` when
//! the run ends.
//!
//! Work that happens inside `Service::handle` (JSON parse, the core
//! ranking call, `apply_delta`) cannot be timed there without changing the
//! service, so each is re-run as a probe span right after the request,
//! parented to the `service.handle` span it decomposes. The attribution
//! subtracts the probes from the handle span to get the service's own
//! (routing, cache, batching, encoding) time.

use std::io::{self, Write as _};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use saphyra::bc::{build_a_index, exact_bc, vc_bounds_from, SaphyraBcConfig};
use saphyra_graph::succinct::U32s;
use saphyra_graph::{CsrOffsets, EdgeDelta, Graph};
use saphyra_service::http::{ParseStatus, RequestParser, Response};
use saphyra_service::json::Json;
use saphyra_service::persist;
use saphyra_service::server::Service;
use saphyra_service::{Client, GraphEntry};

use crate::data::{Dataset, Patch};
use crate::load::{boot, Deployment, Rec, RunDirs};
use crate::stats::{mean, median};
use crate::workload::{Measure, Op, Read, Spec, Stream, Topology};
use crate::Metric;

/// One timed call.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    /// Replayed operation the span belongs to.
    req: usize,
    /// Index of the causing span, if any.
    parent: Option<usize>,
    start: Duration,
    end: Duration,
}

impl Span {
    fn dur(&self) -> Duration {
        self.end - self.start
    }
}

/// In-memory span recorder.
struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Runs `f` inside a span; returns its result and the span id.
    fn span<R>(
        &mut self,
        name: &'static str,
        req: usize,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> (R, usize) {
        let start = self.epoch.elapsed();
        let out = std::hint::black_box(f());
        let end = self.epoch.elapsed();
        self.spans.push(Span {
            name,
            req,
            parent,
            start,
            end,
        });
        (out, self.spans.len() - 1)
    }

    /// Writes one JSON object per span.
    fn write(&self, path: &Path) -> io::Result<()> {
        crate::data::write_atomically(path, |tmp| {
            let mut out = io::BufWriter::new(std::fs::File::create(tmp)?);
            for (id, s) in self.spans.iter().enumerate() {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                writeln!(
                    out,
                    r#"{{"id":{id},"name":"{}","req":{},"parent":{parent},"start_ns":{},"end_ns":{}}}"#,
                    s.name,
                    s.req,
                    s.start.as_nanos(),
                    s.end.as_nanos()
                )?;
            }
            out.flush()
        })
    }
}

/// An operation of the replay, with the `/rank` body HTTP returned for it.
enum Step {
    Read {
        read: Read,
        expected: String,
        /// Whether the HTTP run timed this read (not warm-up).
        timed: bool,
    },
    Write {
        patch: Patch,
        graph: &'static str,
    },
}

/// Everything the traced run needs from the HTTP run.
pub struct HttpRun<'a> {
    /// Every record of the warm-up and timed phases, any order.
    pub recs: &'a [Rec],
    /// Verified reference body per pool slot.
    pub references: &'a [Option<String>],
    /// Stream index of the first timed operation.
    pub first_timed: u64,
    /// `latency_p50_ms` of the timed reads.
    pub latency_p50_ms: f64,
    /// Mean latency of the timed reads, in ms.
    pub latency_mean_ms: f64,
    /// Timed reads.
    pub timed_reads: usize,
    /// Front-node `/healthz` counters over the timed phase.
    pub counters: Counters,
}

/// Service counters over a phase (differences of `/healthz` readings).
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub hits: f64,
    pub misses: f64,
    pub shared: f64,
    pub computations: f64,
    pub sample_passes: f64,
    pub sharded_rounds: f64,
    pub sharded_merge_nanos: f64,
}

impl Counters {
    /// Reads the counters from `GET /healthz` at `addr`.
    pub fn read(addr: &str) -> io::Result<Counters> {
        let resp = saphyra_service::Client::new(addr).request("GET", "/healthz", None)?;
        let json = Json::parse(&resp.body).map_err(io::Error::other)?;
        let get = |k: &str| json.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        Ok(Counters {
            hits: get("cache_hits"),
            misses: get("cache_misses"),
            shared: get("cache_shared"),
            computations: get("computations"),
            sample_passes: get("sample_passes"),
            sharded_rounds: get("sharded_rounds"),
            sharded_merge_nanos: get("sharded_merge_nanos"),
        })
    }

    /// `self − before`.
    pub fn since(&self, before: &Counters) -> Counters {
        Counters {
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            shared: self.shared - before.shared,
            computations: self.computations - before.computations,
            sample_passes: self.sample_passes - before.sample_passes,
            sharded_rounds: self.sharded_rounds - before.sharded_rounds,
            sharded_merge_nanos: self.sharded_merge_nanos - before.sharded_merge_nanos,
        }
    }
}

/// Result of the traced run.
pub struct Traced {
    /// Every per-layer metric.
    pub metrics: Vec<Metric>,
    /// Whether every replayed `/rank` body matched the HTTP body.
    pub identical: bool,
}

/// The replay order: reads grouped by the number of writes they saw, each
/// write after the reads of the variant it replaced, stream order within.
/// Every key is then first computed on the same graph variant as in the
/// HTTP run, and the cache evolves through the same re-keys and purges, so
/// each replayed body must equal its HTTP body byte for byte.
fn steps(spec: &Spec, stream: &Stream, http: &HttpRun) -> Vec<Step> {
    let mut recs: Vec<&Rec> = http.recs.iter().filter(|r| r.status == 200).collect();
    recs.sort_by_key(|r| (r.version, r.write.is_some(), r.index));
    recs.into_iter()
        .filter_map(|r| match (r.write, stream.op(r.index)) {
            (Some(patch), _) => Some(Step::Write {
                patch,
                graph: spec.write_graph,
            }),
            (None, Op::Read(read)) => {
                let expected = match (&r.body, read.slot) {
                    (Some(b), _) => b.clone(),
                    (None, Some(s)) => http.references.get(s)?.clone()?,
                    (None, None) => return None,
                };
                Some(Step::Read {
                    read,
                    expected,
                    timed: r.index >= http.first_timed,
                })
            }
            (None, Op::Write) => None,
        })
        .collect()
}

/// Method, path and body of a step's request.
fn step_request(step: &Step) -> (&'static str, String, String) {
    match step {
        Step::Read { read, .. } => ("POST", "/rank".to_string(), read.body()),
        Step::Write { patch, graph } => ("PATCH", format!("/graphs/{graph}"), patch.body()),
    }
}

/// The request bytes a client would send for `step`.
fn raw_request(step: &Step) -> Vec<u8> {
    let (method, path, body) = step_request(step);
    format!(
        "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

fn parse(raw: &[u8]) -> saphyra_service::http::Request {
    match RequestParser::new().parse(raw) {
        Ok(ParseStatus::Complete { request, .. }) => request,
        other => panic!("benchmark built an unparseable request: {other:?}"),
    }
}

fn cache_state(resp: &Response) -> &str {
    resp.headers
        .iter()
        .find(|(k, _)| k.eq_ignore_ascii_case("x-saphyra-cache"))
        .map_or("", |(_, v)| v.as_str())
}

/// Whether a replayed response (`status`, `body`) reproduces the HTTP
/// run; reports the first few that do not on stderr.
fn reproduces(step: &Step, status: u16, body: &str) -> bool {
    static REPORTED: AtomicUsize = AtomicUsize::new(0);
    let ok = match step {
        Step::Read { expected, .. } => status == 200 && body == expected,
        Step::Write { .. } => status == 200,
    };
    if !ok && REPORTED.fetch_add(1, Ordering::Relaxed) < 3 {
        let want = match step {
            Step::Read { expected, .. } => expected.as_str(),
            Step::Write { .. } => "200 to PATCH",
        };
        eprintln!("perfbench: replay mismatch: HTTP {want}\n  replay {status} {body}");
    }
    ok
}

/// Per-read measurements of the traced pass. The latency breakdown
/// (`http` … `core`, `overhead`) covers timed reads only; the
/// core probes and the handle split cover every replayed read.
#[derive(Default)]
struct Layers {
    http: Vec<f64>,
    root: Vec<f64>,
    parse: Vec<f64>,
    encode: Vec<f64>,
    json: Vec<f64>,
    service_self: Vec<f64>,
    core: Vec<f64>,
    overhead: Vec<f64>,
    handle_all: Vec<f64>,
    handle_hit: Vec<f64>,
    handle_miss: Vec<f64>,
    vc: Vec<f64>,
    exact: Vec<f64>,
    exact_slots: Vec<f64>,
    rank: Vec<f64>,
    sample: Vec<f64>,
    rank_plain: Vec<f64>,
    samples: Vec<f64>,
    rounds: Vec<f64>,
    nmax_frac: Vec<f64>,
    rejected: f64,
    kpath: Vec<f64>,
    harmonic: Vec<f64>,
    delta_apply: Vec<f64>,
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// A copy of `g` whose CSR offsets were never compacted: the same slot
/// arrays under plain `Vec` offsets.
fn plain_twin(g: &Graph) -> Graph {
    let (neighbors, edge_ids) = g.csr_slots();
    Graph::assemble(
        CsrOffsets::Plain(g.csr_offsets().iter().collect()),
        U32s::Owned(neighbors.to_vec()),
        U32s::Owned(edge_ids.to_vec()),
        g.num_edges(),
    )
    .expect("a served graph's own arrays are valid CSR")
}

/// How many computed warm-up reads of each measure are decomposed by probes.
const WARMUP_PROBES: usize = 8;

/// How many computed bc reads also rank on the never-compacted graph.
const PLAIN_PROBES: usize = 16;

/// Re-runs the core call a computed read made inside `handle`, as probe
/// spans under `parent` (the read's `service.handle` span, if any).
/// Returns the core time.
fn core_probes(
    tr: &mut Tracer,
    l: &mut Layers,
    req: usize,
    parent: Option<usize>,
    entry: &GraphEntry,
    with_plain: bool,
    read: &Read,
) -> f64 {
    let sets = [read.targets.clone()];
    let rng = || StdRng::seed_from_u64(read.effective_seed());
    match read.measure {
        Measure::Bc => {
            let (g, dec) = (&entry.graph, &entry.dec);
            let (_, vc) = tr.span("core.vc", req, parent, || {
                vc_bounds_from(&dec.vc_precomp, g, &dec.bic, &read.targets)
            });
            let (out, ex) = tr.span("core.exact", req, parent, || {
                let a_index = build_a_index(g.num_nodes(), &read.targets);
                exact_bc(g, &dec.bic, &dec.outreach, &read.targets, &a_index)
            });
            let cfg = SaphyraBcConfig::new(read.eps, read.delta);
            let (est, rk) = tr.span("core.rank", req, parent, || {
                dec.rank_subset_multi(g, &sets, &cfg, &mut rng())
            });
            let (vc_t, ex_t, rk_t) = (
                secs(tr.spans[vc].dur()),
                secs(tr.spans[ex].dur()),
                secs(tr.spans[rk].dur()),
            );
            l.vc.push(vc_t);
            l.exact.push(ex_t);
            l.exact_slots.push(out.work as f64);
            l.rank.push(rk_t);
            l.sample.push(rk_t - vc_t - ex_t);
            let s = &est[0].stats;
            l.samples.push((s.samples + s.pilot_samples) as f64);
            l.rounds.push(s.rounds as f64);
            if s.nmax > 0 {
                l.nmax_frac.push(s.samples as f64 / s.nmax as f64);
            }
            l.rejected += s.rejected as f64;
            if with_plain && l.rank_plain.len() < PLAIN_PROBES {
                let plain = plain_twin(g);
                let (_, pr) = tr.span("core.rank_plain", req, parent, || {
                    dec.rank_subset_multi(&plain, &sets, &cfg, &mut rng())
                });
                l.rank_plain.push(secs(tr.spans[pr].dur()));
            }
            rk_t
        }
        Measure::Kpath => {
            let (_, k) = tr.span("core.kpath", req, parent, || {
                saphyra::kpath::rank_kpath_multi(
                    &entry.graph,
                    &sets,
                    5,
                    read.eps,
                    read.delta,
                    &mut rng(),
                )
            });
            let t = secs(tr.spans[k].dur());
            l.kpath.push(t);
            t
        }
        Measure::Harmonic => {
            let (_, h) = tr.span("core.harmonic", req, parent, || {
                saphyra::closeness::rank_harmonic_multi(
                    &entry.graph,
                    &sets,
                    read.eps,
                    read.delta,
                    &mut rng(),
                )
            });
            let t = secs(tr.spans[h].dur());
            l.harmonic.push(t);
            t
        }
    }
}

/// The two replay passes, advanced in lockstep so both see the same
/// machine conditions: `http` sends each step over keep-alive HTTP to one
/// deployment and times it end to end; `traced` calls the other
/// deployment's `Service::handle` in process, one span per call.
struct Replay<'a> {
    http: Client,
    traced: &'a Service,
    tr: Tracer,
    l: Layers,
    identical: bool,
    /// Handle times of the first read replayed again as a cache hit, for
    /// workloads whose stream never hits.
    probe_hits: Vec<f64>,
}

impl Replay<'_> {
    /// The step over HTTP, untraced; returns its latency.
    fn over_http(&mut self, step: &Step) -> f64 {
        let (method, path, body) = step_request(step);
        let t = Instant::now();
        let resp = self.http.request(method, &path, Some(&body));
        let lat = secs(t.elapsed());
        self.identical &= match resp {
            Ok(r) => reproduces(step, r.status, &r.body),
            Err(e) => reproduces(step, 0, &e.to_string()),
        };
        lat
    }

    fn step(&mut self, req: usize, step: &Step) {
        let raw = raw_request(step);
        // Alternate which pass goes first, so neither always runs warm.
        let first = req.is_multiple_of(2).then(|| self.over_http(step));
        let (tr, l) = (&mut self.tr, &mut self.l);
        let svc = self.traced;
        let target = match step {
            Step::Write { graph, .. } => graph,
            Step::Read { .. } => "g",
        };
        let before = svc.registry().get(target).expect("graph loaded");
        let ((), root) = tr.span("request", req, None, || {});
        let (request, p) = tr.span("http.parse", req, Some(root), || parse(&raw));
        let ((resp, _), h) = tr.span("service.handle", req, Some(root), || svc.handle(&request));
        let (_, e) = tr.span("http.encode", req, Some(root), || resp.to_bytes(true));
        tr.spans[root].end = tr.spans[e].end;
        self.identical &= reproduces(step, resp.status, resp.body_str());
        let handle_t = secs(tr.spans[h].dur());
        let root_t = secs(tr.spans[root].dur());
        match step {
            Step::Read { read, timed, .. } => {
                let (_, j) = tr.span("json.parse", req, Some(h), || {
                    Json::parse(request.body_str().expect("utf-8 body"))
                });
                let json_t = secs(tr.spans[j].dur());
                let computed = matches!(cache_state(&resp), "miss" | "batched");
                // Timed reads are always decomposed; warm-up reads only
                // until their measure has a few probes.
                let probed = match read.measure {
                    Measure::Bc => l.rank.len(),
                    Measure::Kpath => l.kpath.len(),
                    Measure::Harmonic => l.harmonic.len(),
                };
                let core_t = if computed && (*timed || probed < WARMUP_PROBES) {
                    core_probes(tr, l, req, Some(h), &before, true, read)
                } else {
                    0.0
                };
                if computed {
                    &mut l.handle_miss
                } else {
                    &mut l.handle_hit
                }
                .push(handle_t);
                if self.probe_hits.is_empty() {
                    // Right after its first computation, before any write
                    // moves the graph on, the read must hit.
                    for _ in 0..200 {
                        let ((resp, _), hit) =
                            tr.span("service.handle", req, None, || svc.handle(&request));
                        self.identical &= reproduces(step, resp.status, resp.body_str());
                        self.probe_hits.push(secs(tr.spans[hit].dur()));
                    }
                }
                let http_t = match first {
                    Some(lat) => lat,
                    None => self.over_http(step),
                };
                if *timed {
                    let (parse_t, encode_t) =
                        (secs(self.tr.spans[p].dur()), secs(self.tr.spans[e].dur()));
                    let l = &mut self.l;
                    l.http.push(http_t);
                    l.root.push(root_t);
                    l.parse.push(parse_t);
                    l.encode.push(encode_t);
                    l.json.push(json_t);
                    l.core.push(core_t);
                    l.service_self.push(handle_t - json_t - core_t);
                    l.handle_all.push(handle_t);
                    // Root time its child spans do not cover: the timer
                    // reads and span records between the calls.
                    l.overhead.push(root_t - parse_t - handle_t - encode_t);
                }
            }
            Step::Write { patch, .. } => {
                let (u, v) = patch.edge;
                let delta = if patch.insert {
                    EdgeDelta {
                        insert: vec![(u, v)],
                        delete: vec![],
                    }
                } else {
                    EdgeDelta {
                        insert: vec![],
                        delete: vec![(u, v)],
                    }
                };
                let (_, d) = tr.span("graph.delta_apply", req, Some(h), || {
                    before.dec.apply_delta(&before.graph, &delta)
                });
                l.delta_apply.push(secs(tr.spans[d].dur()));
                if first.is_none() {
                    self.over_http(step);
                }
            }
        }
    }
}

fn median_of_reps(reps: usize, mut f: impl FnMut() -> f64) -> f64 {
    median(&(0..reps).map(|_| f()).collect::<Vec<_>>())
}

fn timed<R>(f: impl FnOnce() -> R) -> f64 {
    let t0 = Instant::now();
    std::hint::black_box(f());
    secs(t0.elapsed())
}

/// Nanoseconds per CSR slot of a full `Graph::neighbors` walk.
fn adj_scan_ns_per_slot(g: &Graph) -> f64 {
    let slots = 2 * g.num_edges().max(1);
    median_of_reps(5, || {
        let mut passes = 0u32;
        let t0 = Instant::now();
        while passes == 0 || t0.elapsed() < Duration::from_millis(20) {
            let mut acc = 0u32;
            for v in g.nodes() {
                for &w in g.neighbors(v) {
                    acc = acc.wrapping_add(w);
                }
            }
            std::hint::black_box(acc);
            passes += 1;
        }
        t0.elapsed().as_nanos() as f64 / (passes as f64 * slots as f64)
    })
}

/// Runs the traced replay and the layer probes; returns every per-layer
/// metric.
#[allow(clippy::too_many_arguments)]
pub fn run(
    spec: &Spec,
    ds: &Dataset,
    stream: &Stream,
    dirs: &RunDirs,
    workers: usize,
    http: &HttpRun,
    budget: Duration,
    trace_path: &Path,
) -> io::Result<Traced> {
    const MAX_STEPS: usize = 4000;
    let all = steps(spec, stream, http);
    let (dep_a, _) = boot(spec, ds, dirs, workers, 100)?;
    let (dep, _) = boot(spec, ds, dirs, workers, 101)?;
    let mut replay = Replay {
        http: Client::new(dep_a.addr.as_str()),
        traced: dep.service(),
        tr: Tracer::new(),
        l: Layers::default(),
        identical: true,
        probe_hits: Vec::new(),
    };
    // Replay a prefix of the stream: until the budget is spent and enough
    // timed reads are in, within a hard limit.
    const MIN_TIMED_READS: usize = 20;
    let mut replayed = 0;
    let t0 = Instant::now();
    for step in &all {
        let spent = t0.elapsed();
        let enough = replay.l.root.len() >= MIN_TIMED_READS;
        if (spent >= budget && enough) || spent >= 4 * budget || replayed >= MAX_STEPS {
            break;
        }
        replay.step(replayed, step);
        replayed += 1;
    }
    let Replay {
        http: http_client,
        mut tr,
        mut l,
        identical,
        probe_hits,
        ..
    } = replay;
    drop(http_client);
    dep_a.shutdown();
    if l.handle_hit.len() < 100 {
        l.handle_hit.extend(probe_hits);
    }
    // A replay cut short before the stream's first write: time the patch
    // cycle's first delta on the write graph directly.
    if l.delta_apply.is_empty() {
        let (u, v) = ds.patch(0).edge;
        let before = dep
            .service()
            .registry()
            .get(spec.write_graph)
            .expect("graph loaded");
        let delta = EdgeDelta {
            insert: vec![(u, v)],
            delete: vec![],
        };
        for k in 0..5 {
            let (_, d) = tr.span("graph.delta_apply", replayed + k, None, || {
                before.dec.apply_delta(&before.graph, &delta)
            });
            l.delta_apply.push(secs(tr.spans[d].dur()));
        }
    }
    let served = dep.service().registry().get("g").expect("graph loaded");
    let adj_served = adj_scan_ns_per_slot(&served.graph);
    let reads: Vec<Read> = all[..replayed]
        .iter()
        .filter_map(|s| match s {
            Step::Read { read, .. } => Some(read.clone()),
            Step::Write { .. } => None,
        })
        .collect();
    // Layers this stream never reaches are probed on its own target sets.
    for measure in [Measure::Kpath, Measure::Harmonic] {
        let have = if measure == Measure::Kpath {
            &l.kpath
        } else {
            &l.harmonic
        };
        if have.is_empty() {
            for (k, r) in reads.iter().take(4).enumerate() {
                let probe = Read {
                    measure,
                    eps: spec.eps_other,
                    ..r.clone()
                };
                core_probes(&mut tr, &mut l, replayed + k, None, &served, false, &probe);
            }
        }
    }
    dep.shutdown();
    tr.write(trace_path)?;

    // Layer probes outside the replay.
    let load_ms = 1e3
        * median_of_reps(5, || {
            timed(|| saphyra_graph::io::load_edge_list(&ds.edge_path).expect("edge list"))
        });
    let decompose_ms = 1e3
        * median_of_reps(5, || {
            timed(|| saphyra::bc::BcDecomposition::compute(&ds.graph))
        });
    let boot_ms = 1e3
        * median_of_reps(5, || {
            timed(|| persist::load_snapshot_mapped(&dirs.snapshot).expect("snapshot"))
        });
    let journal_append_us = {
        let dir = dirs.run.join("journal-probe");
        std::fs::create_dir_all(&dir)?;
        let journal = persist::Journal::open(&dir)?;
        let request = reads
            .first()
            .map(|r| Json::parse(&r.body()).expect("own body"));
        let line = persist::journal_line(0, 200, Some("miss"), request);
        1e6 * median_of_reps(5, || {
            timed(|| {
                for _ in 0..100 {
                    journal.append(&line).expect("journal append");
                }
            }) / 100.0
        })
    };
    let (shard_rounds, shard_merge_us) = if spec.topology == Topology::Sharded {
        let c = http.counters;
        (
            c.sharded_rounds / http.timed_reads.max(1) as f64,
            c.sharded_merge_nanos / c.sharded_rounds.max(1.0) / 1e3,
        )
    } else {
        shard_probe(spec, ds, dirs, workers, &reads)?
    };

    let c = http.counters;
    let answered = (c.hits + c.misses + c.shared).max(1.0);
    // A stream that never coalesces (one client, or hits only) leaves the
    // batching and single-flight layer at zero: probe it instead.
    let coalesced = c.shared > 0.0 || c.computations > c.sample_passes;
    let b = if coalesced {
        c
    } else {
        batch_probe(spec, ds, dirs, workers, &reads)?
    };
    let b_answered = (b.hits + b.misses + b.shared).max(1.0);
    let remainder: Vec<f64> = l
        .http
        .iter()
        .zip(&l.handle_all)
        .map(|(h, x)| h - x)
        .collect();
    let ms = |xs: &[f64]| 1e3 * median(xs);
    let us = |xs: &[f64]| 1e6 * median(xs);
    let total_samples: f64 = l.samples.iter().sum();
    let metrics = vec![
        Metric::new("graph.adj_scan_ns_per_slot", adj_served, "ns"),
        Metric::new(
            "graph.adj_scan_plain_ns_per_slot",
            adj_scan_ns_per_slot(&plain_twin(&served.graph)),
            "ns",
        ),
        Metric::new("graph.load_ms", load_ms, "ms"),
        Metric::new("graph.delta_apply_ms", ms(&l.delta_apply), "ms"),
        Metric::new("core.decompose_ms", decompose_ms, "ms"),
        Metric::new("core.vc_ms", ms(&l.vc), "ms"),
        Metric::new("core.exact_ms", ms(&l.exact), "ms"),
        Metric::new("core.exact_slots", median(&l.exact_slots), "count"),
        Metric::new("core.rank_ms", ms(&l.rank), "ms"),
        Metric::new("core.rank_plain_ms", ms(&l.rank_plain), "ms"),
        Metric::new("core.sample_ms", ms(&l.sample), "ms"),
        Metric::new("core.samples_per_req", mean(&l.samples), "count"),
        Metric::new(
            "core.samples_per_s",
            total_samples / l.sample.iter().sum::<f64>(),
            "1/s",
        ),
        Metric::new("core.rounds_per_req", mean(&l.rounds), "count"),
        Metric::new("core.nmax_frac", mean(&l.nmax_frac), "frac"),
        Metric::new(
            "core.reject_frac",
            l.rejected / total_samples.max(1.0),
            "frac",
        ),
        Metric::new("core.kpath_ms", ms(&l.kpath), "ms"),
        Metric::new("core.harmonic_ms", ms(&l.harmonic), "ms"),
        Metric::new("http.parse_us", us(&l.parse), "us"),
        Metric::new("json.parse_us", us(&l.json), "us"),
        Metric::new("service.handle_hit_us", us(&l.handle_hit), "us"),
        Metric::new("service.handle_miss_ms", ms(&l.handle_miss), "ms"),
        Metric::new("net.remainder_us", us(&remainder), "us"),
        Metric::new("cache.hit_frac", c.hits / answered, "frac"),
        Metric::new("cache.shared_frac", b.shared / b_answered, "frac"),
        Metric::new(
            "batch.members_per_pass",
            b.computations / b.sample_passes.max(1.0),
            "count",
        ),
        Metric::new("persist.boot_ms", boot_ms, "ms"),
        Metric::new("persist.journal_append_us", journal_append_us, "us"),
        Metric::new("shard.rounds_per_req", shard_rounds, "count"),
        Metric::new("shard.merge_us_per_round", shard_merge_us, "us"),
        Metric::new(
            "layer.unexplained_frac",
            1.0 - l.root.iter().sum::<f64>() / l.http.iter().sum::<f64>(),
            "frac",
        ),
        Metric::new("trace.overhead_us", 1e6 * median(&l.overhead), "us"),
        Metric::new("trace.replayed_reads", l.root.len() as f64, "count"),
    ];
    print_attribution(spec, http, &l);
    Ok(Traced { metrics, identical })
}

/// Prices the shard wire and merge layer on a workload that does not
/// shard: the first bc reads of its stream through a router over two
/// shards. Returns (rounds per request, merge µs per round).
fn shard_probe(
    spec: &Spec,
    ds: &Dataset,
    dirs: &RunDirs,
    workers: usize,
    reads: &[Read],
) -> io::Result<(f64, f64)> {
    let sharded = Spec {
        topology: Topology::Sharded,
        ..spec.clone()
    };
    let (dep, _): (Deployment, f64) = boot(&sharded, ds, dirs, workers, 102)?;
    let before = Counters::read(&dep.addr)?;
    let mut client = saphyra_service::Client::new(dep.addr.as_str());
    let probes: Vec<&Read> = reads
        .iter()
        .filter(|r| r.measure == Measure::Bc)
        .take(4)
        .collect();
    for r in &probes {
        let resp = client.request("POST", "/rank", Some(&r.body()))?;
        if resp.status != 200 {
            return Err(io::Error::other(format!(
                "shard probe: HTTP {}",
                resp.status
            )));
        }
    }
    let c = Counters::read(&dep.addr)?.since(&before);
    drop(client);
    dep.shutdown();
    Ok((
        c.sharded_rounds / probes.len().max(1) as f64,
        c.sharded_merge_nanos / c.sharded_rounds.max(1.0) / 1e3,
    ))
}

/// Prices the batching and single-flight layer on a workload whose stream
/// never coalesces: on a fresh standalone node, two threads send, in each
/// of four rounds, two distinct cold bc reads of one batch class at once
/// (one gather pass), then the same read at once (one computes, the other
/// shares it). Returns the node's counters over the probe.
fn batch_probe(
    spec: &Spec,
    ds: &Dataset,
    dirs: &RunDirs,
    workers: usize,
    reads: &[Read],
) -> io::Result<Counters> {
    const ROUNDS: u64 = 4;
    let standalone = Spec {
        topology: Topology::Standalone,
        ..spec.clone()
    };
    let (dep, _): (Deployment, f64) = boot(&standalone, ds, dirs, workers, 103)?;
    let before = Counters::read(&dep.addr)?;
    let read = |k: usize, seed: u64| Read {
        measure: Measure::Bc,
        eps: spec.eps_bc,
        seed: Some(seed),
        ..reads[k % reads.len()].clone()
    };
    let mut pairs = Vec::new();
    for k in 0..ROUNDS {
        let seed = 0xBA7C_0000 + 2 * k;
        let i = 2 * k as usize;
        pairs.push([read(i, seed), read(i + 1, seed)]);
        pairs.push([read(i, seed + 1), read(i, seed + 1)]);
    }
    let addr = dep.addr.as_str();
    let barrier = std::sync::Barrier::new(2);
    let statuses: Vec<u16> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|t| {
                let (barrier, pairs) = (&barrier, &pairs);
                scope.spawn(move || {
                    let mut client = Client::new(addr);
                    pairs
                        .iter()
                        .map(|pair| {
                            barrier.wait();
                            let resp = client.request("POST", "/rank", Some(&pair[t].body()));
                            resp.map_or(0, |r| r.status)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("batch probe client panicked"))
            .collect()
    });
    let c = Counters::read(&dep.addr)?.since(&before);
    dep.shutdown();
    match statuses.iter().find(|&&s| s != 200) {
        Some(s) => Err(io::Error::other(format!("batch probe: HTTP {s}"))),
        None => Ok(c),
    }
}

/// Prints the attribution table: each layer's self time summed over the
/// replayed timed reads, as a share of the same reads' HTTP latency (sums
/// add up; medians do not). Core time is re-measured by probes and
/// subtracted from `service.handle`.
fn print_attribution(spec: &Spec, http: &HttpRun, l: &Layers) {
    let n = l.http.len().max(1) as f64;
    let http_ms = 1e3 * l.http.iter().sum::<f64>() / n;
    let rows = [
        ("http.parse", &l.parse),
        ("json.parse", &l.json),
        ("service (handle - json - core)", &l.service_self),
        ("core (rank probes)", &l.core),
        ("http.encode", &l.encode),
        ("sum of layers", &l.root),
    ];
    eprintln!(
        "attribution {}: {} timed reads replayed, HTTP latency mean {http_ms:.4} ms \
         (all timed reads: p50 {:.4} ms, mean {:.4} ms)",
        spec.name,
        l.http.len(),
        http.latency_p50_ms,
        http.latency_mean_ms
    );
    for (name, xs) in rows {
        let ms = 1e3 * xs.iter().sum::<f64>() / n;
        eprintln!("  {name:<32} {ms:>12.4} ms {:>7.1}%", 100.0 * ms / http_ms);
    }
    let rest = http_ms - 1e3 * l.root.iter().sum::<f64>() / n;
    eprintln!(
        "  {:<32} {rest:>12.4} ms {:>7.1}%",
        "unexplained (net, queue, client)",
        100.0 * rest / http_ms
    );
}
