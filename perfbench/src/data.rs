//! Workload inputs that do not depend on the request seed: the graph, its
//! edge-list file, the edges that `PATCH` toggles, and the exact
//! ground-truth oracle.
//!
//! Exact betweenness (parallel Brandes) and exact harmonic mass cost one to
//! two seconds per graph, so the oracle is cached under `data/oracle/`
//! keyed by network, size, graph seed and variant, and guarded by a
//! checksum of the graph's edge list: a generator change that alters the
//! graph regenerates the entry instead of checking against stale truth.

use std::io;
use std::path::{Path, PathBuf};

use saphyra_gen::datasets::{SimNetwork, SizeClass};
use saphyra_graph::bfs::BfsWorkspace;
use saphyra_graph::{Components, Graph, GraphBuilder, NodeId};

/// Exact scores of every node, for one graph variant.
pub struct Truth {
    /// Normalized betweenness (Brandes; the service's `bc` scale).
    pub bc: Vec<f64>,
    /// Harmonic mass `E_u[1/d(u, v)]` (the service's `harmonic` scale).
    pub harmonic: Vec<f64>,
}

/// One workload graph with everything derived from it.
pub struct Dataset {
    /// The generated graph (plain offsets, never compacted).
    pub graph: Graph,
    /// Edge-list file the operator path loads (`POST /graphs {"path"}`).
    pub edge_path: PathBuf,
    /// The edge a "small" patch toggles: both endpoints outside the giant
    /// component. `None` when the graph is connected.
    pub small_edge: Option<(NodeId, NodeId)>,
    /// The edge a "giant" patch toggles: a shortcut inside the giant
    /// component.
    pub giant_edge: (NodeId, NodeId),
    /// Truth per variant: `[base, base + small_edge, base + giant_edge]`
    /// (only `[base]` unless variants were requested).
    pub truth: Vec<Truth>,
}

/// One `PATCH` of the toggle cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Patch {
    /// Insert (`true`) or delete the edge.
    pub insert: bool,
    /// The toggled edge.
    pub edge: (NodeId, NodeId),
}

impl Patch {
    /// The `PATCH /graphs/<name>` body.
    pub fn body(&self) -> String {
        let (u, v) = self.edge;
        let field = if self.insert { "insert" } else { "delete" };
        format!(r#"{{"{field}":[[{u},{v}]]}}"#)
    }
}

impl Dataset {
    /// Builds the graph, writes its edge list under `data_dir`, and loads
    /// (or computes and caches) the truth. `variants` also loads the truth
    /// of both patched variants, for workloads that read between writes.
    pub fn prepare(
        data_dir: &Path,
        network: SimNetwork,
        size: SizeClass,
        graph_seed: u64,
        variants: bool,
    ) -> io::Result<Dataset> {
        let graph = network.build(size, graph_seed);
        let stem = format!("{}-{:?}-g{graph_seed}", network.name(), size).to_lowercase();
        let edge_path = data_dir.join("graphs").join(format!("{stem}.txt"));
        write_atomically(&edge_path, |tmp| {
            saphyra_graph::io::save_edge_list(&graph, tmp).map_err(io::Error::other)
        })?;
        let (small_edge, giant_edge) = patch_edges(&graph);
        let mut truth = vec![oracle(data_dir, &stem, "base", &graph)?];
        if variants {
            for (tag, edge) in [("small", small_edge), ("giant", Some(giant_edge))] {
                truth.push(match edge {
                    Some(e) => oracle(data_dir, &stem, tag, &with_edge(&graph, e))?,
                    // Never reached: without a small edge the cycle never
                    // visits this variant. Keep the indices aligned.
                    None => oracle(data_dir, &stem, "base", &graph)?,
                });
            }
        }
        Ok(Dataset {
            graph,
            edge_path,
            small_edge,
            giant_edge,
            truth,
        })
    }

    /// The `w`-th write (0-based) of the toggle cycle: insert/delete the
    /// giant edge, the small edge, then the giant edge again (only the
    /// giant pair when the graph is connected). Every second write restores
    /// the base graph, so the cycle visits at most three distinct graphs;
    /// two thirds of the writes re-decompose the giant component, so the
    /// median write is a giant one rather than a coin flip between kinds.
    pub fn patch(&self, w: u64) -> Patch {
        let edge = match (self.small_edge, w % 6) {
            (Some(small), 2 | 3) => small,
            _ => self.giant_edge,
        };
        Patch {
            insert: w.is_multiple_of(2),
            edge,
        }
    }

    /// Index into [`Dataset::truth`] of the graph after `writes` writes.
    pub fn variant_after(&self, writes: u64) -> usize {
        match (self.small_edge, writes % 6) {
            (_, 0 | 2 | 4) => 0,
            (Some(_), 3) => 1,
            _ => 2,
        }
    }
}

/// Picks the toggled edges deterministically from the graph alone: the
/// small edge joins the two lowest-id nodes outside the giant component
/// (when they are not already adjacent); the giant edge joins the
/// lowest-id giant node to the last node its BFS reaches — the longest
/// shortcut available.
fn patch_edges(g: &Graph) -> (Option<(NodeId, NodeId)>, (NodeId, NodeId)) {
    let comps = Components::compute(g);
    let giant = comps.largest();
    let outside: Vec<NodeId> = g
        .nodes()
        .filter(|&v| comps.comp_of[v as usize] != giant)
        .collect();
    let small = outside.first().and_then(|&u| {
        outside[1..]
            .iter()
            .find(|&&v| !g.has_edge(u, v))
            .map(|&v| (u, v))
    });
    let root = g
        .nodes()
        .find(|&v| comps.comp_of[v as usize] == giant)
        .expect("a non-empty graph has a giant component");
    let mut ws = BfsWorkspace::new(g.num_nodes());
    ws.run(g, root);
    let far = *ws.order.last().expect("BFS visits its root");
    assert!(ws.dist(far) >= 2, "giant component is a clique");
    (small, (root, far))
}

fn with_edge(g: &Graph, (u, v): (NodeId, NodeId)) -> Graph {
    GraphBuilder::new(g.num_nodes())
        .edges(g.edges().map(|(a, b, _)| (a, b)))
        .edge(u, v)
        .build()
        .expect("adding one edge to a valid graph")
}

/// CRC-32 of the canonical edge list: node count, then every edge `u < v`.
fn checksum(g: &Graph) -> u32 {
    let mut bytes = Vec::with_capacity(8 + 8 * g.num_edges());
    bytes.extend_from_slice(&(g.num_nodes() as u64).to_le_bytes());
    for (u, v, _) in g.edges() {
        bytes.extend_from_slice(&u.to_le_bytes());
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    saphyra_graph::wire::crc32(&bytes)
}

const ORACLE_MAGIC: &[u8; 8] = b"SPBORCL1";

/// Loads the cached truth of `g`, or computes and caches it when the file
/// is missing, damaged, or belongs to a different graph.
fn oracle(data_dir: &Path, stem: &str, tag: &str, g: &Graph) -> io::Result<Truth> {
    let path = data_dir.join("oracle").join(format!("{stem}-{tag}.bin"));
    let sum = checksum(g);
    let n = g.num_nodes();
    if let Some(t) = std::fs::read(&path)
        .ok()
        .and_then(|b| decode_oracle(&b, sum, n))
    {
        return Ok(t);
    }
    let threads = std::thread::available_parallelism().map_or(1, |p| p.get());
    let truth = Truth {
        bc: saphyra_graph::brandes::betweenness_exact_parallel(g, threads),
        harmonic: saphyra::closeness::harmonic_exact(g),
    };
    let mut bytes = Vec::with_capacity(20 + 16 * n);
    bytes.extend_from_slice(ORACLE_MAGIC);
    bytes.extend_from_slice(&sum.to_le_bytes());
    bytes.extend_from_slice(&(n as u64).to_le_bytes());
    for x in truth.bc.iter().chain(&truth.harmonic) {
        bytes.extend_from_slice(&x.to_le_bytes());
    }
    write_atomically(&path, |tmp| std::fs::write(tmp, &bytes))?;
    Ok(truth)
}

fn decode_oracle(b: &[u8], sum: u32, n: usize) -> Option<Truth> {
    if b.len() != 20 + 16 * n || &b[..8] != ORACLE_MAGIC {
        return None;
    }
    let stored_sum = u32::from_le_bytes(b[8..12].try_into().ok()?);
    let stored_n = u64::from_le_bytes(b[12..20].try_into().ok()?);
    if stored_sum != sum || stored_n != n as u64 {
        return None;
    }
    let vals: Vec<f64> = b[20..]
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().expect("8-byte chunk")))
        .collect();
    let (bc, harmonic) = vals.split_at(n);
    Some(Truth {
        bc: bc.to_vec(),
        harmonic: harmonic.to_vec(),
    })
}

/// Writes `path` through a process-unique temp file and a rename, so
/// concurrent benchmark processes never see a torn file.
pub fn write_atomically(
    path: &Path,
    write: impl FnOnce(&Path) -> io::Result<()>,
) -> io::Result<()> {
    let dir = path.parent().expect("data files live in a directory");
    std::fs::create_dir_all(dir)?;
    let name = path.file_name().expect("file path").to_string_lossy();
    let tmp = dir.join(format!(".{name}.{}.tmp", std::process::id()));
    write(&tmp)?;
    std::fs::rename(&tmp, path)
}
