//! Boots the service under test and drives it with closed-loop clients
//! over keep-alive HTTP.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

use saphyra_service::http::Client;
use saphyra_service::server::{serve_with, Role, ServerHandle, Service, ServiceConfig};

use crate::data::{Dataset, Patch};
use crate::workload::{Op, Spec, Stream, Topology};

/// A running deployment: the node clients talk to, plus its shards.
pub struct Deployment {
    /// The node that serves clients (standalone node or router).
    pub front: ServerHandle,
    /// Shard nodes behind a router (empty otherwise).
    pub shards: Vec<ServerHandle>,
    /// `host:port` of `front`.
    pub addr: String,
}

impl Deployment {
    /// The front node's service, for in-process calls and counters.
    pub fn service(&self) -> &Arc<Service> {
        self.front.service()
    }

    /// Stops every node and waits for its threads.
    pub fn shutdown(self) {
        self.front.shutdown_and_join();
        for s in self.shards {
            s.shutdown_and_join();
        }
    }
}

/// Where a run keeps its private files.
pub struct RunDirs {
    /// Per-process directory under `data/`, removed at exit.
    pub run: PathBuf,
    /// A snapshot of the workload graph (`persist::save_snapshot`), the
    /// image every snapshot boot starts from.
    pub snapshot: PathBuf,
}

fn config(workers: usize) -> ServiceConfig {
    ServiceConfig {
        workers,
        cache_capacity: 4096,
        ..ServiceConfig::default()
    }
}

fn bind(cfg: ServiceConfig) -> io::Result<ServerHandle> {
    serve_with("127.0.0.1:0", Arc::new(Service::new(cfg)))
}

fn expect_ok(resp: io::Result<saphyra_service::ClientResponse>, what: &str) -> io::Result<()> {
    match resp {
        Ok(r) if r.status == 200 => Ok(()),
        Ok(r) => Err(io::Error::other(format!(
            "{what}: HTTP {}: {}",
            r.status, r.body
        ))),
        Err(e) => Err(io::Error::other(format!("{what}: {e}"))),
    }
}

/// Boots the workload's deployment and returns it with its set-up time:
/// from `Service::new` until the graph is published and a `/rank` against
/// it answers. `slot` names the state directory of a snapshot boot.
pub fn boot(
    spec: &Spec,
    ds: &Dataset,
    dirs: &RunDirs,
    workers: usize,
    slot: usize,
) -> io::Result<(Deployment, f64)> {
    let state = dirs.run.join(format!("state-{slot}"));
    if spec.topology == Topology::Snapshot {
        // Untimed: a pristine state directory holding only the snapshot.
        let _ = std::fs::remove_dir_all(&state);
        std::fs::create_dir_all(&state)?;
        std::fs::copy(
            &dirs.snapshot,
            saphyra_service::persist::snapshot_path(&state, "g"),
        )?;
    }
    let edge_path = ds.edge_path.to_string_lossy();
    let t0 = Instant::now();
    let deployment = match spec.topology {
        Topology::Standalone => {
            let front = bind(config(workers))?;
            let addr = front.addr().to_string();
            let body = format!(r#"{{"name":"g","path":"{edge_path}"}}"#);
            expect_ok(
                Client::new(addr.as_str()).request("POST", "/graphs", Some(&body)),
                "load graph",
            )?;
            Deployment {
                front,
                shards: Vec::new(),
                addr,
            }
        }
        Topology::Snapshot => {
            let front = bind(ServiceConfig {
                state_dir: Some(state),
                ..config(workers)
            })?;
            let addr = front.addr().to_string();
            Deployment {
                front,
                shards: Vec::new(),
                addr,
            }
        }
        Topology::Sharded => {
            let shards = (0..2)
                .map(|_| {
                    bind(ServiceConfig {
                        role: Role::Shard,
                        ..config(workers)
                    })
                })
                .collect::<io::Result<Vec<_>>>()?;
            let front = bind(ServiceConfig {
                role: Role::Router,
                shards: shards.iter().map(|s| s.addr().to_string()).collect(),
                ..config(workers)
            })?;
            let addr = front.addr().to_string();
            let body = format!(r#"{{"name":"g","path":"{edge_path}","split":true}}"#);
            expect_ok(
                Client::new(addr.as_str()).request("POST", "/graphs", Some(&body)),
                "split load",
            )?;
            Deployment {
                front,
                shards,
                addr,
            }
        }
    };
    let mut client = Client::new(deployment.addr.as_str());
    let probe =
        r#"{"graph":"g","measure":"harmonic","targets":[0],"eps":0.5,"delta":0.5,"seed":1}"#;
    expect_ok(client.request("POST", "/rank", Some(probe)), "first rank")?;
    let setup = t0.elapsed().as_secs_f64();
    if spec.write_graph != "g" {
        let body = format!(r#"{{"name":"{}","path":"{edge_path}"}}"#, spec.write_graph);
        expect_ok(
            client.request("POST", "/graphs", Some(&body)),
            "load write graph",
        )?;
    }
    Ok((deployment, setup))
}

/// One completed operation.
#[derive(Debug, Clone)]
pub struct Rec {
    /// Stream index (write-probe operations continue past the stream).
    pub index: u64,
    /// Send-to-full-response time.
    pub latency: Duration,
    /// HTTP status (0 when the exchange failed).
    pub status: u16,
    /// Writes applied before this operation ran.
    pub version: u64,
    /// The response body, unless it was checked against a reference.
    pub body: Option<String>,
    /// Whether the body equalled its pool slot's reference, when checked.
    pub matched: Option<bool>,
    /// The patch, for writes.
    pub write: Option<Patch>,
}

/// State the clients of one deployment share across phases.
pub struct Clients<'a> {
    /// The stream being replayed.
    pub stream: &'a Stream,
    /// The graph, for the patch cycle.
    pub ds: &'a Dataset,
    /// The graph the writes patch.
    pub write_graph: &'static str,
    /// `PATCH`es per write operation.
    pub write_burst: u64,
    /// Writes applied so far. Reads hold it shared and writes exclusive,
    /// so every read runs against one known variant and every `PATCH` runs
    /// with no read in flight: its latency is the write's own, not that of
    /// the CPU it shares with concurrent reads.
    pub writes: RwLock<u64>,
    /// Next stream index to send.
    pub next: AtomicU64,
    /// Verified body per pool slot; reads of a slot are compared to it.
    pub references: Vec<Option<String>>,
}

/// When a phase stops taking new operations.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// At this stream index.
    At(u64),
    /// At the deadline, once at least `min` operations completed; at
    /// `hard` regardless.
    Deadline {
        at: Instant,
        min: usize,
        hard: Instant,
    },
}

impl Clients<'_> {
    /// One operation over `client`; its records go to `out`.
    fn exec(&self, client: &mut Client, index: u64, op: Op, out: &mut Vec<Rec>) {
        match op {
            Op::Read(read) => {
                let body = read.body();
                let gate = self.writes.read().expect("writer panicked");
                // Writes to a separate write graph leave the read graph at
                // its base variant.
                let version = if self.write_graph == "g" { *gate } else { 0 };
                let t0 = Instant::now();
                let resp = client.request("POST", "/rank", Some(&body));
                let latency = t0.elapsed();
                drop(gate);
                let (status, text) = match resp {
                    Ok(r) => (r.status, r.body),
                    Err(e) => (0, e.to_string()),
                };
                let reference = read
                    .slot
                    .and_then(|s| self.references.get(s))
                    .and_then(Option::as_ref);
                let (body, matched) = match reference {
                    Some(r) => (None, Some(status == 200 && *r == text)),
                    None => (Some(text), None),
                };
                out.push(Rec {
                    index,
                    latency,
                    status,
                    version,
                    body,
                    matched,
                    write: None,
                });
            }
            Op::Write => {
                // The burst holds the gate throughout: reads see only the
                // variant its last PATCH leaves.
                let mut count = self.writes.write().expect("reader panicked");
                for _ in 0..self.write_burst {
                    let version = *count;
                    let patch = self.ds.patch(version);
                    let path = format!("/graphs/{}", self.write_graph);
                    let t0 = Instant::now();
                    let resp = client.request("PATCH", &path, Some(&patch.body()));
                    let latency = t0.elapsed();
                    let (status, text) = match resp {
                        Ok(r) => (r.status, r.body),
                        Err(e) => (0, e.to_string()),
                    };
                    if status == 200 {
                        *count += 1;
                    }
                    out.push(Rec {
                        index,
                        latency,
                        status,
                        version,
                        body: Some(text),
                        matched: None,
                        write: Some(patch),
                    });
                }
            }
        }
    }

    /// Runs `clients` closed-loop clients against `addr` until `stop`;
    /// returns the records and the phase's wall time.
    pub fn phase(&self, addr: &str, clients: usize, stop: Stop) -> (Vec<Rec>, Duration) {
        let done = AtomicUsize::new(0);
        let t0 = Instant::now();
        let mut recs: Vec<Rec> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|_| {
                    let done = &done;
                    scope.spawn(move || {
                        let mut client = Client::new(addr);
                        let mut out = Vec::new();
                        loop {
                            if let Stop::Deadline { at, min, hard } = stop {
                                let now = Instant::now();
                                if now >= hard || (now >= at && done.load(Ordering::SeqCst) >= min)
                                {
                                    break;
                                }
                            }
                            let i = self.next.fetch_add(1, Ordering::SeqCst);
                            if let Stop::At(end) = stop {
                                if i >= end {
                                    break;
                                }
                            }
                            self.exec(&mut client, i, self.stream.op(i), &mut out);
                            done.fetch_add(1, Ordering::SeqCst);
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("load client panicked"))
                .collect()
        });
        let wall = t0.elapsed();
        if let Stop::At(end) = stop {
            // Clients overshoot `next` when they stop; resume exactly here.
            self.next.store(end, Ordering::SeqCst);
        }
        recs.sort_by_key(|r| r.index);
        (recs, wall)
    }
}

/// Creates the run's private directory and the pristine snapshot.
pub fn run_dirs(data_dir: &Path, ds: &Dataset) -> io::Result<RunDirs> {
    let run = data_dir.join(format!("run-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&run);
    std::fs::create_dir_all(&run)?;
    let snapshot = run.join("pristine.snap");
    let dec = saphyra::bc::BcDecomposition::compute(&ds.graph);
    saphyra_service::persist::save_snapshot(&snapshot, "g", &ds.graph, &dec, 0)
        .map_err(|e| io::Error::other(format!("snapshot: {e}")))?;
    Ok(RunDirs { run, snapshot })
}
