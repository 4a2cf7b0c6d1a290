//! Input generation: every graph and update stream the workloads use is a
//! pure function of the `--seed` argument; Σ is fixed (`sigma.ngdl`).

use ngd_core::RuleSet;
use ngd_datagen::{generate_knowledge, generate_update, KnowledgeConfig, UpdateConfig};
use ngd_graph::{BatchUpdate, EdgeRef, Graph, NodeId};
use std::collections::BTreeMap;

/// Scale of the DBpedia-like graph `session_age` runs on
/// (≈ 11k nodes).
pub const SERVE_SCALE: usize = 50;
/// Scale of the DBpedia-like graph `batch_detect` runs on (≈ 44k nodes).
pub const BATCH_SCALE: usize = 200;
/// Σ, the same for every seed (see the file's header).
pub const SIGMA: &str = include_str!("../sigma.ngdl");

/// Derive an independent sub-seed from the workload seed (SplitMix64).
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A generated knowledge graph, its ground truth and the rule set Σ.
pub struct Inputs {
    pub graph: Graph,
    /// Seeded error entities per rule id (the generator's ground truth).
    pub seeded: BTreeMap<String, Vec<NodeId>>,
    /// Σ as `.ngdl` source — what the daemon is given.
    pub ngdl: String,
    /// Σ parsed from [`Inputs::ngdl`], as the daemon compiles it.
    pub sigma: RuleSet,
}

pub fn knowledge_inputs(scale: usize, seed: u64) -> Inputs {
    let generated =
        generate_knowledge(&KnowledgeConfig::dbpedia_like(scale).with_seed(sub_seed(seed, 1)));
    Inputs {
        graph: generated.graph,
        seeded: generated.seeded,
        ngdl: SIGMA.to_string(),
        sigma: ngd_lang::load_rules(SIGMA).expect("perfbench/sigma.ngdl parses"),
    }
}

/// `ops` distinct edge operations over `graph` (half deletions of existing
/// edges, half label-compatible insertions), each edge touched once.
/// Returned as (deletions, insertions).
pub fn distinct_ops(graph: &Graph, ops: usize, seed: u64) -> (Vec<EdgeRef>, Vec<EdgeRef>) {
    let fraction = ops as f64 / graph.edge_count() as f64;
    let update = generate_update(graph, &UpdateConfig::fraction(fraction).with_seed(seed));
    (update.deletions().collect(), update.insertions().collect())
}

/// Cut operations into batches of `per_side` deletions plus `per_side`
/// insertions; a trailing partial batch is dropped.
pub fn batches_of(
    deletions: &[EdgeRef],
    insertions: &[EdgeRef],
    per_side: usize,
    count: usize,
) -> Vec<BatchUpdate> {
    assert!(
        deletions.len() >= per_side * count && insertions.len() >= per_side * count,
        "update generator produced too few operations ({} deletions, {} insertions, {} needed per side)",
        deletions.len(),
        insertions.len(),
        per_side * count
    );
    (0..count)
        .map(|i| {
            let mut batch = BatchUpdate::new();
            let range = i * per_side..(i + 1) * per_side;
            for (d, n) in deletions[range.clone()].iter().zip(&insertions[range]) {
                batch.delete_edge(d.src, d.dst, d.label);
                batch.insert_edge(n.src, n.dst, n.label);
            }
            batch
        })
        .collect()
}
