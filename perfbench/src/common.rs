//! Run context, output checks, result reporting and the traced calls
//! shared by the workloads.

use crate::stats::{median, ms};
use crate::trace::Tracer;
use ngd_core::{is_violation, RuleSet};
use ngd_detect::{pinc_dect_prepared_cached, DeltaReport, DetectorConfig};
use ngd_graph::persist::{MmapSnapshot, SnapshotWriter};
use ngd_graph::{d_neighbors_many, BatchUpdate, DeltaOverlay, Graph, GraphView};
use ngd_match::{compile_plan, find_matches, DeltaViolations, PlanCache, Violation, ViolationSet};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 9;

pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub daemon: PathBuf,
    /// Scratch directory of this run (snapshots, rules, socket, logs).
    pub work: PathBuf,
    /// Where a traced run leaves its per-layer table and span dump.
    pub out: PathBuf,
    /// Detector processors and daemon workers: `min(2, nproc)`.
    pub parallelism: usize,
}

impl Ctx {
    pub fn config(&self) -> DetectorConfig {
        DetectorConfig::with_processors(self.parallelism)
    }
}

/// Output checks.  A failed check is remembered (the first few with a
/// message) and makes the run's `correct` false.
#[derive(Default)]
pub struct Checks {
    pub failures: u64,
    pub messages: Vec<String>,
}

impl Checks {
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures += 1;
            if self.messages.len() < 10 {
                self.messages.push(what());
            }
        }
    }
}

/// The result line of one run.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

/// Telescoping check of a session's answer stream: starting from
/// `vio0 = Vio(Σ, G₀)`, every batch's `removed` must be present and its
/// `added` absent (so `added ∩ removed = ∅`), and after batch `k` (1-based)
/// the running set must equal `expected[k]` wherever a checkpoint exists.
pub fn telescope(
    checks: &mut Checks,
    what: &str,
    vio0: &ViolationSet,
    deltas: &[DeltaViolations],
    expected: &BTreeMap<usize, ViolationSet>,
) {
    let mut current = vio0.clone();
    for (i, delta) in deltas.iter().enumerate() {
        let overlap = delta.added.iter().any(|v| delta.removed.contains(v));
        checks.expect(!overlap, || {
            format!("{what}: batch {i}: added ∩ removed ≠ ∅")
        });
        for v in delta.removed.iter() {
            let present = current.remove(v);
            checks.expect(present, || format!("{what}: batch {i} removed absent {v}"));
        }
        for v in delta.added.iter() {
            let absent = current.insert(v.clone());
            checks.expect(absent, || format!("{what}: batch {i} added present {v}"));
        }
        if let Some(want) = expected.get(&(i + 1)) {
            checks.expect(current == *want, || {
                format!(
                    "{what}: after batch {}: Vio(G0) + added - removed has {} violations, dect(Gk) has {}",
                    i + 1,
                    current.len(),
                    want.len()
                )
            });
        }
    }
}

/// `(dect(after) − dect(before), dect(before) − dect(after))`.
pub fn delta_between(before: &ViolationSet, after: &ViolationSet) -> DeltaViolations {
    let mut delta = DeltaViolations::new();
    delta.added = after.difference(before);
    delta.removed = before.difference(after);
    delta
}

/// Write the snapshot of `graph` and the rules file, timed; returns the
/// snapshot's size in bytes.
pub fn write_inputs(graph: &Graph, ngdl: &str, snapshot: &Path, rules: &Path) -> u64 {
    let frozen = graph.freeze();
    let bytes = SnapshotWriter::new()
        .write(&frozen, snapshot)
        .expect("write snapshot");
    std::fs::write(rules, ngdl).expect("write rules");
    bytes
}

/// [`SETUPS`] traced set-ups: parse Σ, freeze, write and map the
/// snapshot.  Returns the last mapping.
pub fn traced_setups(tr: &mut Tracer, graph: &Graph, ngdl: &str, snapshot: &Path) -> MmapSnapshot {
    let mut mapped = None;
    for _ in 0..SETUPS {
        // The file is rewritten in place: unmap it first.
        drop(mapped.take());
        mapped = Some(traced_setup(tr, graph, ngdl, snapshot));
    }
    mapped.expect("at least one set-up")
}

fn traced_setup(tr: &mut Tracer, graph: &Graph, ngdl: &str, snapshot: &Path) -> MmapSnapshot {
    tr.op("setup", |tr| {
        tr.span("lang", "ngd_lang::load_rules", |_| {
            ngd_lang::load_rules(ngdl).expect("rules parse")
        });
        let frozen = tr.span("graph.persist", "Graph::freeze", |_| graph.freeze());
        tr.span("graph.persist", "SnapshotWriter::write", |_| {
            SnapshotWriter::new()
                .write(&frozen, snapshot)
                .expect("write snapshot")
        });
        tr.span("graph.persist", "MmapSnapshot::load", |_| {
            MmapSnapshot::load(snapshot).expect("map snapshot")
        })
    })
}

/// The steps of `IncrementalSession::apply_with_cache`, each as a call
/// into its layer: a view for validation, validation, the merge, the old
/// and new overlays, and the parallel incremental detector.  Advances
/// `accumulated` like the session does.
pub fn traced_update<B: GraphView + Sync>(
    tr: &mut Tracer,
    sigma: &RuleSet,
    base: &B,
    accumulated: &mut BatchUpdate,
    delta: &BatchUpdate,
    config: &DetectorConfig,
    cache: &PlanCache,
) -> DeltaReport {
    tr.op("update", |tr| {
        {
            let view = tr.span("graph.overlay", "DeltaOverlay::new", |_| {
                DeltaOverlay::new(base, accumulated)
            });
            tr.span("graph.update", "BatchUpdate::validate_against", |_| {
                delta.validate_against(&view)
            })
            .expect("generated batches are valid");
        }
        let merged = tr.span("graph.update", "BatchUpdate::merge", |_| {
            let mut merged = accumulated.clone();
            merged.merge(delta);
            merged
        });
        let report = {
            let old = tr.span("graph.overlay", "DeltaOverlay::new", |_| {
                DeltaOverlay::new(base, accumulated)
            });
            let new = tr.span("graph.overlay", "DeltaOverlay::new", |_| {
                DeltaOverlay::new(base, &merged)
            });
            tr.span("detect.pinc", "pinc_dect_prepared_cached", |_| {
                pinc_dect_prepared_cached(sigma, &old, &new, delta, config, cache)
            })
        };
        *accumulated = merged;
        report
    })
}

/// `d_neighbors_many` over the touched nodes of `delta` in `view` — the
/// neighbourhood statistic the incremental detectors report.
pub fn traced_neighborhood<V: GraphView>(
    tr: &mut Tracer,
    sigma: &RuleSet,
    view: &V,
    delta: &BatchUpdate,
) -> usize {
    tr.op("neighborhood", |tr| {
        tr.span("graph.neighborhood", "d_neighbors_many", |_| {
            d_neighbors_many(view, delta.touched_nodes(), sigma.diameter()).len()
        })
    })
}

/// Full detection rule by rule through the matcher's and the evaluator's
/// public functions: `compile_plan`, `find_matches`, `is_violation`.
/// Returns the violations and the number of matches.
pub fn traced_rule_probe<V: GraphView>(
    tr: &mut Tracer,
    sigma: &RuleSet,
    view: &V,
) -> (ViolationSet, usize) {
    tr.op("detect.layers", |tr| {
        let mut violations = ViolationSet::new();
        let mut matches_found = 0;
        for rule in sigma.rules() {
            tr.span("matcher", "compile_plan", |_| {
                compile_plan(&rule.pattern, view, &[])
            });
            let matches = tr.span("matcher", "find_matches", |_| {
                find_matches(&rule.pattern, view)
            });
            matches_found += matches.len();
            tr.span("core", "is_violation", |_| {
                for m in matches {
                    if is_violation(rule, view, &m) {
                        violations.insert(Violation::new(rule.id.clone(), m));
                    }
                }
            });
        }
        (violations, matches_found)
    })
}

/// Per-probe totals of one child call, in ms (one value per op `op`).
pub fn per_op_call_ms(tr: &Tracer, op: &str, layer: &str, call: &str) -> Vec<f64> {
    let mut totals: BTreeMap<usize, f64> = BTreeMap::new();
    let mut root_of = vec![0usize; tr.spans.len()];
    for (i, s) in tr.spans.iter().enumerate() {
        root_of[i] = s.parent.map_or(i, |p| root_of[p]);
        let root = &tr.spans[root_of[i]];
        if s.parent.is_some() && root.name == op && s.name == layer && s.call == call {
            *totals.entry(root_of[i]).or_default() += (s.end_ns - s.start_ns) as f64 / 1e6;
        }
    }
    totals.into_values().collect()
}

/// `CompactionWriter::encode` plus the file write, per `compact` op (ms).
pub fn compact_ms(tr: &Tracer) -> Vec<f64> {
    let encode = per_op_call_ms(tr, "compact", "graph.persist", "CompactionWriter::encode");
    let write = per_op_call_ms(tr, "compact", "graph.persist", "std::fs::write");
    encode.iter().zip(&write).map(|(a, b)| a + b).collect()
}

/// Names, in order, of the per-layer metrics every traced run reports.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("serve.update_overhead_ms", "ms"),
    ("serve.query_overhead_ms", "ms"),
    ("serve.codec_us", "us"),
    ("detect.session.apply_ms", "ms"),
    ("detect.session.late_apply_ms", "ms"),
    ("graph.update.validate_ms", "ms"),
    ("graph.update.merge_ms", "ms"),
    ("graph.overlay.build_ms", "ms"),
    ("graph.overlay.builds_per_update", "count"),
    ("graph.overlay.reroot_ms", "ms"),
    ("detect.pinc.run_ms", "ms"),
    ("detect.pinc.wall_ms", "ms"),
    ("detect.pinc.neighborhood_ms", "ms"),
    ("detect.pinc.neighborhood_nodes", "count"),
    ("detect.pinc.expanded", "count/call"),
    ("detect.cost.splits", "count/call"),
    ("detect.cost.migrations", "count/call"),
    ("detect.dect_ms", "ms"),
    ("detect.pdect_ms", "ms"),
    ("detect.inc_dect_ms", "ms"),
    ("matcher.expanded", "count/call"),
    ("matcher.candidates_inspected", "count/call"),
    ("matcher.matches_found", "count/call"),
    ("matcher.gallop_intersections", "count/call"),
    ("matcher.plan_cache_hits", "count/call"),
    ("matcher.plan_cache_misses", "count/call"),
    ("matcher.plan_compile_us", "us"),
    ("matcher.match_ms", "ms"),
    ("matcher.violations_per_match", "ratio"),
    ("core.eval_ms", "ms"),
    ("graph.persist.freeze_ms", "ms"),
    ("graph.persist.write_ms", "ms"),
    ("graph.persist.load_ms", "ms"),
    ("graph.persist.compact_ms", "ms"),
    ("lang.parse_ms", "ms"),
    ("obs.overhead_ms", "ms"),
    ("trace.op_ms", "ms"),
    ("trace.unattributed_ms", "ms"),
    ("trace.unattributed_share", "ratio"),
    ("trace.overhead_ms", "ms"),
];

/// Per-layer values a workload measured; the rest read 0 (the layer is
/// not on that workload's path).
#[derive(Default)]
pub struct LayerValues(pub BTreeMap<&'static str, f64>);

impl LayerValues {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown per-layer metric {name}"
        );
        self.0.insert(name, value);
    }

    /// Fill the values every workload derives the same way from its trace.
    pub fn common(&mut self, tr: &Tracer) {
        let compile = tr.call_ms("matcher", "compile_plan");
        self.set("matcher.plan_compile_us", median(&compile) * 1e3);
        self.set(
            "matcher.match_ms",
            median(&per_op_call_ms(
                tr,
                "detect.layers",
                "matcher",
                "find_matches",
            )),
        );
        self.set(
            "core.eval_ms",
            median(&per_op_call_ms(tr, "detect.layers", "core", "is_violation")),
        );
        self.set(
            "graph.persist.freeze_ms",
            median(&tr.call_ms("graph.persist", "Graph::freeze")),
        );
        self.set(
            "graph.persist.write_ms",
            median(&tr.call_ms("graph.persist", "SnapshotWriter::write")),
        );
        self.set(
            "graph.persist.load_ms",
            median(&tr.call_ms("graph.persist", "MmapSnapshot::load")),
        );
        self.set(
            "lang.parse_ms",
            median(&tr.call_ms("lang", "ngd_lang::load_rules")),
        );
        self.set(
            "graph.overlay.build_ms",
            median(&tr.call_ms("graph.overlay", "DeltaOverlay::new")),
        );
        self.set(
            "detect.pinc.neighborhood_ms",
            median(&tr.call_ms("graph.neighborhood", "d_neighbors_many")),
        );
        let table = tr.table();
        let total: u64 = table.values().map(|r| r.total_ns).sum();
        let unattributed: u64 = table.values().map(|r| r.unattributed_ns).sum();
        self.set("trace.op_ms", total as f64 / 1e6);
        self.set("trace.unattributed_ms", unattributed as f64 / 1e6);
        self.set(
            "trace.unattributed_share",
            unattributed as f64 / total.max(1) as f64,
        );
    }

    /// Counters of the detector reports (means per call).
    pub fn pinc_reports(&mut self, reports: &[&DeltaReport]) {
        let n = reports.len().max(1) as f64;
        let sum = |f: &dyn Fn(&DeltaReport) -> f64| reports.iter().map(|r| f(r)).sum::<f64>() / n;
        self.set("detect.pinc.expanded", sum(&|r| r.stats.expanded as f64));
        self.set("detect.cost.splits", sum(&|r| r.cost.splits as f64));
        self.set("detect.cost.migrations", sum(&|r| r.cost.migrations as f64));
        let nodes: Vec<f64> = reports
            .iter()
            .map(|r| r.neighborhood_nodes as f64)
            .collect();
        self.set("detect.pinc.neighborhood_nodes", median(&nodes));
        let run: Vec<f64> = reports.iter().map(|r| ms(r.elapsed)).collect();
        self.set("detect.pinc.run_ms", median(&run));
    }

    /// Matcher counters of the full-detection reports (means per call).
    pub fn full_reports(&mut self, reports: &[&ngd_detect::DetectionReport]) {
        let n = reports.len().max(1) as f64;
        let sum = |f: &dyn Fn(&ngd_detect::SearchStats) -> f64| {
            reports.iter().map(|r| f(&r.stats)).sum::<f64>() / n
        };
        self.set("matcher.expanded", sum(&|s| s.expanded as f64));
        self.set(
            "matcher.candidates_inspected",
            sum(&|s| s.candidates_inspected as f64),
        );
        self.set("matcher.matches_found", sum(&|s| s.matches_found as f64));
        self.set(
            "matcher.gallop_intersections",
            sum(&|s| s.gallop_intersections as f64),
        );
        self.set(
            "matcher.plan_cache_hits",
            sum(&|s| s.plan_cache_hits as f64),
        );
        self.set(
            "matcher.plan_cache_misses",
            sum(&|s| s.plan_cache_misses as f64),
        );
    }

    pub fn into_metrics(self) -> Vec<(&'static str, f64, &'static str)> {
        PER_LAYER
            .iter()
            .map(|(name, unit)| (*name, self.0.get(name).copied().unwrap_or(0.0), *unit))
            .collect()
    }
}

/// `ngd_obs` cost on full detection: median of `dect_on` with the
/// registry enabled minus the median with it disabled, interleaved.
pub fn obs_overhead_ms<V: GraphView>(
    tr: &mut Tracer,
    sigma: &RuleSet,
    view: &V,
    pairs: usize,
) -> f64 {
    let (mut on, mut off) = (Vec::new(), Vec::new());
    for _ in 0..pairs {
        for (enabled, samples) in [(true, &mut on), (false, &mut off)] {
            ngd_obs::set_enabled(enabled);
            let op = if enabled {
                "dect.obs_on"
            } else {
                "dect.obs_off"
            };
            let start = Instant::now();
            tr.op(op, |tr| {
                tr.span("detect.batch", "dect_on", |_| {
                    ngd_detect::dect_on(sigma, view)
                })
            });
            samples.push(ms(start.elapsed()));
        }
    }
    ngd_obs::set_enabled(true);
    median(&on) - median(&off)
}

/// Leave the per-layer table, the span dump and Σ of a traced run in
/// `dir`; returns the table.
pub fn write_trace(tr: &Tracer, dir: &Path, title: &str, ngdl: &str) -> String {
    let table = tr.render_table(title);
    if std::fs::create_dir_all(dir).is_ok() {
        let _ = std::fs::write(dir.join("layers.txt"), &table);
        let _ = std::fs::write(dir.join("spans.jsonl"), tr.dump());
        let _ = std::fs::write(dir.join("rules.ngdl"), ngdl);
    }
    table
}
