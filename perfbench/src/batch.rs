//! `batch_detect`: `Dect`, `PDect`, `IncDect` and `PIncDect` over a mapped
//! `.ngds` snapshot of the 44k-node graph, then `G ⊕ ΔG` compacted into
//! the next epoch and the `ΔG` overlay re-rooted onto it.
//!
//! The timed rounds run in a child process ([`detect_phase`]) that maps the
//! snapshot, reads Σ, `ΔG` and the expected answers from files, and holds
//! nothing else, so its peak memory is that of the detectors and the
//! compaction alone.  This process generates the inputs, computes the
//! expected answers on the adjacency-list graph and times the set-up.

use crate::common::*;
use crate::inputs::{knowledge_inputs, sub_seed, BATCH_SCALE};
use crate::stats::{beyond, median, ms, peak_rss_mb, quantile, quiet_phase, Quiet};
use crate::trace::Tracer;
use ngd_datagen::{generate_update, UpdateConfig};
use ngd_detect::{
    dect, dect_on, inc_dect_prepared_cached, inc_dect_snapshot, pdect_on,
    pinc_dect_prepared_streaming, DetectorConfig, VioSide,
};
use ngd_graph::persist::{CompactionWriter, MmapSnapshot, SnapshotWriter};
use ngd_graph::{BatchUpdate, DeltaOverlay};
use ngd_match::{DeltaViolations, PlanCache, Violation, ViolationSet};
use ngd_serve::protocol::{UpdateRequest, VioChunk};
use ngd_serve::Side;
use std::collections::BTreeMap;
use std::hash::Hasher;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// `|ΔG|` as a share of `|E|`.
const DELTA_FRACTION: f64 = 0.05;
/// `update_tail_ms` percentile: one `PIncDect` per round and ≥ 40 rounds
/// per run, so ≥ 10 samples lie beyond it.
const TAIL_Q: f64 = 0.75;

/// Files the set-up leaves in the run's scratch directory for the child.
const SNAPSHOT: &str = "graph.ngds";
const RULES: &str = "rules.ngdl";
const EPOCH: &str = "graph.e1.ngds";
const DELTA: &str = "delta.upd";
const WANT_VIO: &str = "want.vio";
const WANT_ADDED: &str = "want.added";
const WANT_REMOVED: &str = "want.removed";

#[derive(Default)]
struct Timings {
    dect: Vec<f64>,
    pdect: Vec<f64>,
    inc: Vec<f64>,
    pinc: Vec<f64>,
    compact: Vec<f64>,
    first_vio: Vec<f64>,
    calls: u64,
    wall: Duration,
}

impl Timings {
    fn absorb(&mut self, round: Timings) {
        self.dect.extend(round.dect);
        self.pdect.extend(round.pdect);
        self.inc.extend(round.inc);
        self.pinc.extend(round.pinc);
        self.compact.extend(round.compact);
        self.first_vio.extend(round.first_vio);
        self.calls += round.calls;
        self.wall += round.wall;
    }
}

struct Expected {
    vio: ViolationSet,
    delta: DeltaViolations,
    /// Digest of the `SnapshotWriter` bytes of a fresh freeze of `G ⊕ ΔG`
    /// at epoch 1 — what compaction must produce byte for byte.
    epoch_digest: u64,
}

/// A digest of `bytes`.  `DefaultHasher::new` always starts from the same
/// keys, so the parent and the child (one binary) agree on it.
fn digest(bytes: &[u8]) -> u64 {
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    hasher.write(bytes);
    hasher.finish()
}

/// Persist `G ⊕ ΔG` as epoch 1 next to the mapped epoch 0 and re-root the
/// `ΔG` overlay onto it; returns the file's bytes and the carried residue.
fn compact(mapped: &MmapSnapshot, delta: &BatchUpdate, path: &Path) -> (Vec<u8>, BatchUpdate) {
    let bytes = CompactionWriter::new()
        .encode(mapped, delta, mapped.epoch() + 1)
        .expect("compaction encodes");
    std::fs::write(path, &bytes).expect("write epoch file");
    let next = MmapSnapshot::load(path).expect("map epoch file");
    let residue = DeltaOverlay::new(mapped, delta)
        .reroot(&next)
        .expect("ΔG re-roots onto its own compaction")
        .into_batch();
    (bytes, residue)
}

fn check_compaction(checks: &mut Checks, want: &Expected, bytes: &[u8], residue: &BatchUpdate) {
    checks.expect(digest(bytes) == want.epoch_digest, || {
        "compacted epoch differs from a fresh freeze of G ⊕ ΔG".into()
    });
    checks.expect(residue.is_empty() && residue.new_nodes.is_empty(), || {
        "re-rooting ΔG onto its own compaction left a residue".into()
    });
}

/// One round: each detector once, then the compaction; every answer
/// checked.
#[allow(clippy::too_many_arguments)]
fn round(
    config: &DetectorConfig,
    sigma: &ngd_core::RuleSet,
    mapped: &MmapSnapshot,
    delta: &BatchUpdate,
    epoch_path: &Path,
    want: &Expected,
    t: &mut Timings,
    checks: &mut Checks,
) {
    let start = Instant::now();

    let s = Instant::now();
    let report = dect_on(sigma, mapped);
    t.dect.push(ms(s.elapsed()));
    checks.expect(report.violations == want.vio, || {
        "Dect differs from dect on the adjacency-list graph".into()
    });

    let s = Instant::now();
    let report = pdect_on(sigma, mapped, config);
    t.pdect.push(ms(s.elapsed()));
    checks.expect(report.violations == want.vio, || {
        "PDect differs from Dect".into()
    });

    let s = Instant::now();
    let report = inc_dect_snapshot(sigma, mapped, delta);
    t.inc.push(ms(s.elapsed()));
    checks.expect(report.delta == want.delta, || {
        "IncDect ΔVio differs from dect(G ⊕ ΔG) − dect(G)".into()
    });

    let s = Instant::now();
    let first = OnceLock::new();
    let sink = |_: VioSide, _: &Violation| {
        first.get_or_init(|| s.elapsed());
    };
    let old = mapped.as_overlay();
    let new = DeltaOverlay::new(mapped, delta);
    let report =
        pinc_dect_prepared_streaming(sigma, &old, &new, delta, config, &PlanCache::new(), &sink);
    t.pinc.push(ms(s.elapsed()));
    if let Some(first) = first.get() {
        t.first_vio.push(ms(*first));
    }
    checks.expect(report.delta == want.delta, || {
        "PIncDect ΔVio differs from dect(G ⊕ ΔG) − dect(G)".into()
    });

    let s = Instant::now();
    let (bytes, residue) = compact(mapped, delta, epoch_path);
    t.compact.push(ms(s.elapsed()));
    check_compaction(checks, want, &bytes, &residue);

    t.calls += 5;
    t.wall += start.elapsed();
}

fn write_set(path: &Path, side: Side, set: &ViolationSet) {
    let refs: Vec<&Violation> = set.iter().collect();
    std::fs::write(path, VioChunk::encode_refs(side, &refs)).expect("write expected violations");
}

fn read_set(path: &Path) -> Result<ViolationSet, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let chunk = VioChunk::decode(&bytes).map_err(|e| format!("decode {}: {e}", path.display()))?;
    let mut set = ViolationSet::new();
    for v in chunk.violations {
        set.insert(v);
    }
    Ok(set)
}

/// The timed rounds, in a process of their own:
///
/// ```text
/// ngd-perfbench --detect-phase <dir> <budget seconds> <processors> <epoch digest>
/// ```
///
/// Maps `<dir>/graph.ngds`, parses Σ from `<dir>/rules.ngdl`, reads `ΔG`
/// and the expected answers, runs checked rounds while [`Quiet`] asks for
/// more, and prints the measured rounds' samples, one `name value…` line
/// each, then its own peak resident memory.
pub fn detect_phase(args: &[String]) -> ExitCode {
    match detect_phase_inner(args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("ngd-perfbench --detect-phase: {e}");
            ExitCode::from(3)
        }
    }
}

fn detect_phase_inner(args: &[String]) -> Result<ExitCode, String> {
    let [dir, budget, processors, epoch_digest] = args else {
        return Err("expected <dir> <budget seconds> <processors> <epoch digest>".into());
    };
    let dir = Path::new(dir);
    let budget: f64 = budget.parse().map_err(|_| "bad budget")?;
    let processors: usize = processors.parse().map_err(|_| "bad processors")?;
    let epoch_digest: u64 = epoch_digest.parse().map_err(|_| "bad digest")?;
    let read = |name: &str| std::fs::read(dir.join(name)).map_err(|e| format!("read {name}: {e}"));
    let ngdl = String::from_utf8(read(RULES)?).map_err(|_| "rules are not UTF-8")?;
    let sigma = ngd_lang::load_rules(&ngdl).map_err(|e| format!("rules: {e}"))?;
    let delta = UpdateRequest::decode(&read(DELTA)?)
        .map_err(|e| format!("decode {DELTA}: {e}"))?
        .batch;
    let mut want_delta = DeltaViolations::new();
    want_delta.added = read_set(&dir.join(WANT_ADDED))?;
    want_delta.removed = read_set(&dir.join(WANT_REMOVED))?;
    let want = Expected {
        vio: read_set(&dir.join(WANT_VIO))?,
        delta: want_delta,
        epoch_digest,
    };
    let mapped = MmapSnapshot::load(&dir.join(SNAPSHOT)).map_err(|e| format!("map: {e}"))?;
    let config = DetectorConfig::with_processors(processors);

    let mut checks = Checks::default();
    let mut quiet = Quiet::new(budget);
    let mut rounds = Vec::new();
    while quiet.more() {
        let mut r = Timings::default();
        round(
            &config,
            &sigma,
            &mapped,
            &delta,
            &dir.join(EPOCH),
            &want,
            &mut r,
            &mut checks,
        );
        quiet.round(r.wall);
        rounds.push(r);
    }
    let attempted: u64 = rounds.iter().map(|r| r.calls).sum();
    let mut t = Timings::default();
    for (r, keep) in rounds.into_iter().zip(quiet.finish("batch_detect")) {
        if keep {
            t.absorb(r);
        }
    }
    for message in &checks.messages {
        eprintln!("CHECK FAILED: {message}");
    }
    let line = |name: &str, values: &[f64]| {
        let values: Vec<String> = values.iter().map(|v| format!("{v:?}")).collect();
        println!("{name} {}", values.join(" "));
    };
    line("dect", &t.dect);
    line("pdect", &t.pdect);
    line("inc", &t.inc);
    line("pinc", &t.pinc);
    line("compact", &t.compact);
    line("first_vio", &t.first_vio);
    line("calls", &[t.calls as f64]);
    line("wall_s", &[t.wall.as_secs_f64()]);
    line("attempted", &[attempted as f64]);
    line("check_failures", &[checks.failures as f64]);
    line("peak_rss_mb", &[peak_rss_mb("self").unwrap_or(0.0)]);
    Ok(ExitCode::SUCCESS)
}

/// Run [`detect_phase`] as a child of this process and read back what it
/// measured: the timings, the operations attempted, the number of failed
/// checks and the child's peak resident memory.
fn run_detect_phase(
    ctx: &Ctx,
    budget: f64,
    epoch_digest: u64,
) -> Result<(Timings, u64, u64, f64), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .arg("--detect-phase")
        .arg(&ctx.work)
        .arg(budget.to_string())
        .arg(ctx.parallelism.to_string())
        .arg(epoch_digest.to_string())
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn the detect phase: {e}"))?;
    if !out.status.success() {
        return Err(format!("the detect phase exited with {}", out.status));
    }
    let mut lines: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for line in String::from_utf8_lossy(&out.stdout).lines() {
        let mut fields = line.split_whitespace();
        let Some(name) = fields.next() else { continue };
        let values: Result<Vec<f64>, _> = fields.map(str::parse).collect();
        let values = values.map_err(|_| format!("bad detect-phase line: {line}"))?;
        lines.insert(name.to_string(), values);
    }
    let mut take = |name: &str| {
        lines
            .remove(name)
            .ok_or_else(|| format!("the detect phase printed no {name}"))
    };
    let scalar = |v: Vec<f64>| v.first().copied().unwrap_or(0.0);
    let t = Timings {
        dect: take("dect")?,
        pdect: take("pdect")?,
        inc: take("inc")?,
        pinc: take("pinc")?,
        compact: take("compact")?,
        first_vio: take("first_vio")?,
        calls: scalar(take("calls")?) as u64,
        wall: Duration::from_secs_f64(scalar(take("wall_s")?)),
    };
    let attempted = scalar(take("attempted")?) as u64;
    let failures = scalar(take("check_failures")?) as u64;
    let rss = scalar(take("peak_rss_mb")?);
    Ok((t, attempted, failures, rss))
}

pub fn run(ctx: &Ctx, checks: &mut Checks) -> Result<Outcome, String> {
    let inputs = knowledge_inputs(BATCH_SCALE, ctx.seed);
    let sigma = &inputs.sigma;
    let delta = generate_update(
        &inputs.graph,
        &UpdateConfig::fraction(DELTA_FRACTION).with_seed(sub_seed(ctx.seed, 5)),
    );
    let vio = dect(sigma, &inputs.graph).violations;
    let updated = delta.applied_to(&inputs.graph).expect("ΔG applies");
    let want = Expected {
        delta: delta_between(&vio, &dect(sigma, &updated).violations),
        vio,
        epoch_digest: digest(&SnapshotWriter::with_epoch(1).encode(&updated.freeze())),
    };
    drop(updated);
    for (rule, nodes) in &inputs.seeded {
        if !sigma.rules().iter().any(|r| &r.id == rule) {
            continue;
        }
        for &node in nodes {
            let covered = want.vio.of_rule(rule).any(|v| v.involves(node));
            checks.expect(covered, || {
                format!("seeded {rule} error at {node} is not covered by a violation")
            });
        }
    }

    let snapshot = ctx.work.join(SNAPSHOT);
    let epoch_path = ctx.work.join(EPOCH);
    let rules = ctx.work.join(RULES);
    let (setups, bytes) = quiet_phase(|| {
        let mut setups = Vec::new();
        let mut bytes = 0;
        let mut mapped = None;
        for _ in 0..SETUPS {
            // The file is rewritten in place: unmap it first.
            drop(mapped.take());
            let start = Instant::now();
            bytes = write_inputs(&inputs.graph, &inputs.ngdl, &snapshot, &rules);
            mapped = Some(MmapSnapshot::load(&snapshot).expect("map snapshot"));
            setups.push(start.elapsed().as_secs_f64());
        }
        (setups, bytes)
    });
    std::fs::write(
        ctx.work.join(DELTA),
        UpdateRequest {
            batch: delta.clone(),
        }
        .encode(),
    )
    .expect("write ΔG");
    write_set(&ctx.work.join(WANT_VIO), Side::Added, &want.vio);
    write_set(&ctx.work.join(WANT_ADDED), Side::Added, &want.delta.added);
    write_set(
        &ctx.work.join(WANT_REMOVED),
        Side::Removed,
        &want.delta.removed,
    );

    let budget = if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let (t, attempted, failures, rss) = run_detect_phase(ctx, budget, want.epoch_digest)?;
    checks.expect(failures == 0, || {
        format!("{failures} check(s) failed in the detect phase")
    });
    eprintln!(
        "batch_detect: |V| = {}, |E| = {}, |ΔG| = {}, |Vio| = {}, |ΔVio| = {}, {} rounds measured in {:.2} s (p{:.0} has {} beyond)",
        inputs.graph.node_count(),
        inputs.graph.edge_count(),
        delta.len(),
        want.vio.len(),
        want.delta.len(),
        t.pinc.len(),
        t.wall.as_secs_f64(),
        TAIL_Q * 100.0,
        beyond(&t.pinc, TAIL_Q)
    );
    eprintln!(
        "batch_detect: median Dect {:.2} ms, PDect {:.2} ms, IncDect {:.2} ms, PIncDect {:.2} ms (p = {}), compact + re-root {:.2} ms; detect phase peak RSS {:.1} MiB",
        median(&t.dect),
        median(&t.pdect),
        median(&t.inc),
        median(&t.pinc),
        ctx.parallelism,
        median(&t.compact),
        rss
    );

    if ctx.trace {
        return Ok(Outcome {
            attempted,
            failed: 0,
            metrics: traced(
                ctx,
                &inputs,
                &delta,
                &want,
                &snapshot,
                &epoch_path,
                &t,
                checks,
            ),
        });
    }
    Ok(Outcome {
        attempted,
        failed: 0,
        metrics: vec![
            ("setup_s", median(&setups), "s"),
            ("peak_rss_mb", rss, "MiB"),
            ("update_p50_ms", median(&t.pinc), "ms"),
            ("update_tail_ms", quantile(&t.pinc, TAIL_Q), "ms"),
            // Nothing ages here: every PIncDect runs the same ΔG on the
            // same snapshot, so the role is filled by the same samples.
            ("late_update_p50_ms", median(&t.pinc), "ms"),
            ("first_vio_p50_ms", median(&t.first_vio), "ms"),
            ("detect_p50_ms", median(&t.dect), "ms"),
            (
                "requests_per_s",
                t.calls as f64 / t.wall.as_secs_f64(),
                "req/s",
            ),
            (
                "snapshot_bytes_per_edge",
                bytes as f64 / inputs.graph.edge_count() as f64,
                "B",
            ),
        ],
    })
}

/// The traced run: the same rounds, every detector call and the steps
/// around it as spans.
#[allow(clippy::too_many_arguments)]
fn traced(
    ctx: &Ctx,
    inputs: &crate::inputs::Inputs,
    delta: &BatchUpdate,
    want: &Expected,
    snapshot: &Path,
    epoch_path: &Path,
    untraced: &Timings,
    checks: &mut Checks,
) -> Vec<(&'static str, f64, &'static str)> {
    let sigma = &inputs.sigma;
    let config = ctx.config();
    let mut tr = Tracer::new();
    let mapped = traced_setups(&mut tr, &inputs.graph, &inputs.ngdl, snapshot);
    let mut full = Vec::new();
    let mut pinc = Vec::new();
    let mut probe = (0usize, 0usize);
    let start = Instant::now();
    while full.is_empty() || start.elapsed().as_secs_f64() < ctx.seconds / 2.0 {
        let report = tr.op("dect", |tr| {
            tr.span("detect.batch", "dect_on", |_| dect_on(sigma, &mapped))
        });
        checks.expect(report.violations == want.vio, || {
            "traced Dect is wrong".into()
        });
        full.push(report);
        let (violations, matches) = traced_rule_probe(&mut tr, sigma, &mapped);
        checks.expect(violations == want.vio, || {
            "rule-by-rule probe differs from dect".into()
        });
        probe.0 += violations.len();
        probe.1 += matches;

        let report = tr.op("pdect", |tr| {
            tr.span("detect.batch", "pdect_on", |_| {
                pdect_on(sigma, &mapped, &config)
            })
        });
        checks.expect(report.violations == want.vio, || {
            "traced PDect is wrong".into()
        });

        let report = tr.op("inc_dect", |tr| {
            tr.span("graph.update", "BatchUpdate::validate_against", |_| {
                delta.validate_against(&mapped)
            })
            .expect("ΔG is valid");
            let old = tr.span("graph.overlay", "DeltaOverlay::empty", |_| {
                DeltaOverlay::empty(&mapped)
            });
            let new = tr.span("graph.overlay", "DeltaOverlay::new", |_| {
                DeltaOverlay::new(&mapped, delta)
            });
            tr.span("detect.inc", "inc_dect_prepared_cached", |_| {
                inc_dect_prepared_cached(sigma, &old, &new, delta, &PlanCache::new())
            })
        });
        checks.expect(report.delta == want.delta, || {
            "traced IncDect is wrong".into()
        });

        let report = tr.op("pinc_dect", |tr| {
            let old = tr.span("graph.overlay", "DeltaOverlay::empty", |_| {
                DeltaOverlay::empty(&mapped)
            });
            let new = tr.span("graph.overlay", "DeltaOverlay::new", |_| {
                DeltaOverlay::new(&mapped, delta)
            });
            tr.span("detect.pinc", "pinc_dect_prepared_streaming", |_| {
                let sink = |_: VioSide, _: &Violation| {};
                pinc_dect_prepared_streaming(
                    sigma,
                    &old,
                    &new,
                    delta,
                    &config,
                    &PlanCache::new(),
                    &sink,
                )
            })
        });
        checks.expect(report.delta == want.delta, || {
            "traced PIncDect is wrong".into()
        });
        pinc.push(report);
        traced_neighborhood(&mut tr, sigma, &DeltaOverlay::new(&mapped, delta), delta);

        let (bytes, next) = tr.op("compact", |tr| {
            let bytes = tr
                .span("graph.persist", "CompactionWriter::encode", |_| {
                    CompactionWriter::new().encode(&mapped, delta, mapped.epoch() + 1)
                })
                .expect("compaction encodes");
            tr.span("graph.persist", "std::fs::write", |_| {
                std::fs::write(epoch_path, &bytes)
            })
            .expect("write epoch file");
            let next = tr
                .span("graph.persist", "MmapSnapshot::load", |_| {
                    MmapSnapshot::load(epoch_path)
                })
                .expect("map epoch file");
            (bytes, next)
        });
        let residue = tr.op("reroot", |tr| {
            tr.span("graph.overlay", "DeltaOverlay::reroot", |_| {
                DeltaOverlay::new(&mapped, delta)
                    .reroot(&next)
                    .map(|o| o.into_batch())
            })
        });
        let residue = residue.expect("ΔG re-roots onto its own compaction");
        check_compaction(checks, want, &bytes, &residue);
    }
    let obs = obs_overhead_ms(&mut tr, sigma, &mapped, 5);

    let mut values = LayerValues::default();
    values.common(&tr);
    values.set(
        "graph.update.validate_ms",
        median(&tr.call_ms("graph.update", "BatchUpdate::validate_against")),
    );
    values.set(
        "graph.overlay.builds_per_update",
        tr.calls_per_op("pinc_dect", "graph.overlay", "DeltaOverlay::new")
            + tr.calls_per_op("pinc_dect", "graph.overlay", "DeltaOverlay::empty"),
    );
    values.set(
        "detect.pinc.wall_ms",
        median(&tr.call_ms("detect.pinc", "pinc_dect_prepared_streaming")),
    );
    values.pinc_reports(&pinc.iter().collect::<Vec<_>>());
    values.full_reports(&full.iter().collect::<Vec<_>>());
    values.set("detect.dect_ms", median(&tr.op_ms("dect")));
    values.set("detect.pdect_ms", median(&tr.op_ms("pdect")));
    values.set("detect.inc_dect_ms", median(&tr.op_ms("inc_dect")));
    values.set(
        "matcher.violations_per_match",
        probe.0 as f64 / probe.1.max(1) as f64,
    );
    values.set("obs.overhead_ms", obs);
    values.set("graph.persist.compact_ms", median(&compact_ms(&tr)));
    values.set(
        "graph.overlay.reroot_ms",
        median(&tr.call_ms("graph.overlay", "DeltaOverlay::reroot")),
    );
    values.set(
        "trace.overhead_ms",
        median(&tr.op_ms("pinc_dect")) - median(&untraced.pinc),
    );
    let table = write_trace(
        &tr,
        &ctx.out,
        &format!("batch_detect, seed {}, {} spans", ctx.seed, tr.spans.len()),
        &inputs.ngdl,
    );
    eprint!("{table}");
    values.into_metrics()
}
