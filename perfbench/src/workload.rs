//! The four workloads and their seeded request streams.
//!
//! A stream is a pure function of `(workload, --seed, index)`: the same
//! seed replays the same operations in the same index order, whichever
//! client ends up sending each one. The graph and the request pools do not
//! depend on the seed, so the ground-truth oracle is computed once per
//! checkout and runs differ only in the request sequence.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use saphyra_gen::datasets::{SimNetwork, SizeClass};
use saphyra_graph::bfs::BfsWorkspace;
use saphyra_graph::{Graph, NodeId};
use saphyra_stats::stream::stream_seed;

/// The seed the service uses when a `/rank` body has none.
pub const SERVER_DEFAULT_SEED: u64 = 2022;

/// A centrality measure the service ranks by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Measure {
    /// Betweenness (SaPHyRa_bc).
    Bc,
    /// k-path centrality.
    Kpath,
    /// Harmonic closeness.
    Harmonic,
}

impl Measure {
    /// The wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Measure::Bc => "bc",
            Measure::Kpath => "kpath",
            Measure::Harmonic => "harmonic",
        }
    }

    /// Draws a measure from a `bc`/`kpath`/`harmonic` percentage mix.
    fn draw(rng: &mut StdRng, mix: [u32; 3]) -> Measure {
        let x = rng.gen_range(0..mix.iter().sum::<u32>());
        if x < mix[0] {
            Measure::Bc
        } else if x < mix[0] + mix[1] {
            Measure::Kpath
        } else {
            Measure::Harmonic
        }
    }
}

/// One `/rank` request.
#[derive(Debug, Clone)]
pub struct Read {
    /// Ranking measure.
    pub measure: Measure,
    /// Target nodes, in request order.
    pub targets: Vec<NodeId>,
    /// Additive error bound ε.
    pub eps: f64,
    /// Failure probability δ.
    pub delta: f64,
    /// Request seed; `None` omits the field (the server default applies).
    pub seed: Option<u64>,
    /// Pool slot of pool-driven workloads: every response for a slot must
    /// equal the slot's verified reference body.
    pub slot: Option<usize>,
}

impl Read {
    /// The JSON request body.
    pub fn body(&self) -> String {
        let targets: Vec<String> = self.targets.iter().map(u32::to_string).collect();
        let seed = self
            .seed
            .map_or(String::new(), |s| format!(r#","seed":{s}"#));
        format!(
            r#"{{"graph":"g","measure":"{}","targets":[{}],"eps":{},"delta":{}{seed}}}"#,
            self.measure.as_str(),
            targets.join(","),
            self.eps,
            self.delta
        )
    }

    /// The seed the server ranks this request with.
    pub fn effective_seed(&self) -> u64 {
        self.seed.unwrap_or(SERVER_DEFAULT_SEED)
    }
}

/// One operation of a stream.
#[derive(Debug, Clone)]
pub enum Op {
    /// A `/rank` request.
    Read(Read),
    /// The next `write_burst` `PATCH`es of the dataset's toggle cycle.
    Write,
}

/// How the service under test is deployed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// One node; the graph arrives by `POST /graphs` from an edge list.
    Standalone,
    /// One node with a state directory; the graph arrives by mmap
    /// snapshot boot.
    Snapshot,
    /// A router over two in-process shards; the graph is loaded split.
    Sharded,
}

/// How a workload draws its reads.
#[derive(Debug, Clone, Copy)]
pub enum Draw {
    /// Every read is cold: fresh seed, `targets` uniform random nodes.
    Cold { targets: usize },
    /// Zipf popularity over a fixed pool of distinct seeded requests.
    Pool {
        size: usize,
        targets: usize,
        mix: [u32; 3],
    },
    /// Zipf popularity over query nodes; the targets of a query are its
    /// capped BFS ball (search-like, clustered), the seed is the server's
    /// default, the measure is fixed per query.
    Search {
        queries: usize,
        cap: usize,
        hops: u32,
        mix: [u32; 3],
    },
}

/// A workload definition.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Workload name (`--workload`).
    pub name: &'static str,
    /// Generated network analogue.
    pub network: SimNetwork,
    /// Its size class.
    pub size: SizeClass,
    /// Generator seed (fixed: the graph does not change with `--seed`).
    pub graph_seed: u64,
    /// Closed-loop clients, each with one keep-alive connection.
    pub clients: usize,
    /// Deployment.
    pub topology: Topology,
    /// Untimed operations before the timed phase.
    pub warmup: u64,
    /// Minimum timed operations, even past `--seconds`.
    pub min_timed: usize,
    /// Every this-many operations one is a write.
    pub write_every: u64,
    /// Consecutive `PATCH`es of the toggle cycle one write sends, with no
    /// read between them.
    pub write_burst: u64,
    /// The graph the `PATCH`es toggle: `"g"`, the graph every read ranks
    /// on, or `"w"`, a second copy loaded after set-up, so writes never
    /// purge the reads' cache.
    pub write_graph: &'static str,
    /// Read generator.
    pub draw: Draw,
    /// ε of betweenness reads.
    pub eps_bc: f64,
    /// ε of k-path and harmonic reads.
    pub eps_other: f64,
    /// δ of every read.
    pub delta: f64,
    /// Zipf exponent of pool and search popularity.
    pub zipf_s: f64,
}

/// Every workload name, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["cold-road", "hot-zipf", "search-mix", "sharded-flickr"];

impl Spec {
    /// The named workload; `smoke` shrinks it to tiny graphs and a few
    /// requests for the benchmark's own tests.
    pub fn get(name: &str, smoke: bool) -> Option<Spec> {
        let size = if smoke {
            SizeClass::Tiny
        } else {
            SizeClass::Small
        };
        let min_timed = if smoke { 8 } else { 100 };
        let base = Spec {
            name: "",
            network: SimNetwork::Flickr,
            size,
            graph_seed: 1,
            clients: 1,
            topology: Topology::Standalone,
            warmup: 2,
            min_timed,
            write_every: 5,
            write_burst: 1,
            write_graph: "g",
            draw: Draw::Cold { targets: 32 },
            eps_bc: 0.05,
            eps_other: 0.05,
            delta: 0.1,
            zipf_s: 1.1,
        };
        let spec = match name {
            // Adjacency walks and the BiBFS sampler do all the work.
            "cold-road" => Spec {
                name: "cold-road",
                network: SimNetwork::UsaRoad,
                eps_bc: 0.15,
                ..base
            },
            // Cache hits only: reactor, HTTP and JSON parse, LRU, socket.
            // The rare writes patch a second graph, so the cache stays hot.
            "hot-zipf" => {
                let size = if smoke { 16 } else { 128 };
                Spec {
                    name: "hot-zipf",
                    clients: 2,
                    warmup: size as u64,
                    write_every: if smoke { 200 } else { 5_000 },
                    write_graph: "w",
                    draw: Draw::Pool {
                        size,
                        targets: 16,
                        mix: [60, 20, 20],
                    },
                    eps_other: 0.2,
                    ..base
                }
            }
            // The paper's use case: clustered targets, repeats, batching,
            // and PATCHes beside the reads, on a snapshot-booted node.
            "search-mix" => Spec {
                name: "search-mix",
                network: SimNetwork::LiveJournal,
                clients: 1,
                topology: Topology::Snapshot,
                warmup: 16,
                // Each write is an insert and the delete that undoes it:
                // twice the PATCHes of single writes for the same cache
                // churn, since the second purges or re-keys nothing new.
                write_every: 25,
                write_burst: 2,
                draw: Draw::Search {
                    queries: if smoke { 32 } else { 64 },
                    cap: 12,
                    hops: 2,
                    mix: [80, 10, 10],
                },
                eps_bc: 0.05,
                eps_other: 0.2,
                // Steep enough that with a write every 25 ops ~65% of the
                // reads still hit, so the median read is well inside the
                // hits.
                zipf_s: 1.6,
                ..base
            },
            // Cold BC through the router: the shard wire and merge layer.
            "sharded-flickr" => Spec {
                name: "sharded-flickr",
                topology: Topology::Sharded,
                eps_bc: 0.03,
                ..base
            },
            _ => return None,
        };
        Some(spec)
    }

    /// Whether the writes patch the graph the reads rank on.
    pub fn reads_between_writes(&self) -> bool {
        self.write_graph == "g"
    }
}

/// A workload's seeded operation stream.
pub struct Stream {
    seed: u64,
    n: usize,
    write_every: u64,
    eps_bc: f64,
    delta: f64,
    cold_targets: usize,
    /// Pool of distinct reads (pool and search workloads).
    pool: Vec<Read>,
    /// Zipf CDF over `pool`.
    cdf: Vec<f64>,
    /// Leading operations that visit every pool slot once, in order.
    visit_all: u64,
}

impl Stream {
    /// Builds the stream of `spec` for `seed` over `graph`. A pool (and its
    /// popularity order) is fixed per graph, like the graph itself; the
    /// seed draws the sequence of requests from it. Run-to-run differences
    /// then come from the sequence alone, not from which requests exist.
    pub fn new(spec: &Spec, graph: &Graph, seed: u64) -> Stream {
        let n = graph.num_nodes();
        let mut rng = StdRng::seed_from_u64(stream_seed(spec.graph_seed, 0, 0));
        let eps_of = |m: Measure| match m {
            Measure::Bc => spec.eps_bc,
            _ => spec.eps_other,
        };
        let (pool, cold_targets, visit_all) = match spec.draw {
            Draw::Cold { targets } => (Vec::new(), targets, 0),
            Draw::Pool { size, targets, mix } => {
                let pool = (0..size)
                    .map(|slot| {
                        let measure = Measure::draw(&mut rng, mix);
                        Read {
                            measure,
                            targets: distinct_nodes(&mut rng, n, targets),
                            eps: eps_of(measure),
                            delta: spec.delta,
                            seed: Some(rng.gen::<u64>() >> 12),
                            slot: Some(slot),
                        }
                    })
                    .collect();
                (pool, 0, size as u64)
            }
            Draw::Search {
                queries,
                cap,
                hops,
                mix,
            } => {
                let mut ws = BfsWorkspace::new(n);
                let mut pool = Vec::with_capacity(queries);
                while pool.len() < queries {
                    let q = rng.gen_range(0..n as NodeId);
                    if graph.degree(q) == 0 {
                        continue;
                    }
                    ws.run(graph, q);
                    let targets: Vec<NodeId> = ws
                        .order
                        .iter()
                        .copied()
                        .take_while(|&v| ws.dist(v) <= hops)
                        .take(cap)
                        .collect();
                    let measure = Measure::draw(&mut rng, mix);
                    pool.push(Read {
                        measure,
                        targets,
                        eps: eps_of(measure),
                        delta: spec.delta,
                        seed: None,
                        slot: Some(pool.len()),
                    });
                }
                (pool, 0, 0)
            }
        };
        let mut cdf: Vec<f64> = (1..=pool.len())
            .map(|r| (r as f64).powf(-spec.zipf_s))
            .collect();
        let total: f64 = cdf.iter().sum();
        let mut acc = 0.0;
        for w in cdf.iter_mut() {
            acc += *w / total;
            *w = acc;
        }
        Stream {
            seed,
            n,
            write_every: spec.write_every,
            eps_bc: spec.eps_bc,
            delta: spec.delta,
            cold_targets,
            pool,
            cdf,
            visit_all,
        }
    }

    /// Operation `i` of the stream.
    pub fn op(&self, i: u64) -> Op {
        if (i + 1).is_multiple_of(self.write_every) {
            return Op::Write;
        }
        if self.pool.is_empty() {
            let mut rng = StdRng::seed_from_u64(stream_seed(self.seed, 1, i));
            return Op::Read(Read {
                measure: Measure::Bc,
                targets: distinct_nodes(&mut rng, self.n, self.cold_targets),
                eps: self.eps_bc,
                delta: self.delta,
                seed: Some(rng.gen::<u64>() >> 12),
                slot: None,
            });
        }
        let slot = if i < self.visit_all {
            i as usize
        } else {
            // Golden-ratio low-discrepancy draws from a seeded start: every
            // window of the sequence matches the Zipf law closely, so the
            // seed reorders the requests without changing their mix.
            let start = (stream_seed(self.seed, 2, 0) >> 11) as f64 / (1u64 << 53) as f64;
            let u = (start + i as f64 * 0.618_033_988_749_894_9).fract();
            self.cdf
                .partition_point(|&c| c < u)
                .min(self.pool.len() - 1)
        };
        Op::Read(self.pool[slot].clone())
    }

    /// Whether the warm-up visits every pool slot once (so warm-up bodies
    /// can serve as the slots' references).
    pub fn warmup_visits_pool(&self) -> bool {
        self.visit_all > 0
    }

    /// The pool of distinct reads (empty for cold streams).
    pub fn pool(&self) -> &[Read] {
        &self.pool
    }

    /// A digest of the first `count` operations: equal digests mean equal
    /// request streams.
    pub fn digest(&self, count: u64) -> u64 {
        (0..count).fold(0u64, |h, i| {
            let text = match self.op(i) {
                Op::Read(r) => r.body(),
                Op::Write => "PATCH".to_string(),
            };
            let crc = saphyra_graph::wire::crc32(text.as_bytes()) as u64;
            saphyra_stats::stream::mix64(h ^ crc)
        })
    }
}

/// `k` distinct uniform node ids (all nodes when `k ≥ n`), in draw order.
fn distinct_nodes(rng: &mut StdRng, n: usize, k: usize) -> Vec<NodeId> {
    let k = k.min(n);
    let mut out: Vec<NodeId> = Vec::with_capacity(k);
    while out.len() < k {
        let v = rng.gen_range(0..n as NodeId);
        if !out.contains(&v) {
            out.push(v);
        }
    }
    out
}
