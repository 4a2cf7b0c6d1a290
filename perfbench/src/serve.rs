//! `session_age`: the `ngd-serve` daemon as its own process, driven over
//! a Unix socket by this one thread.

use crate::common::*;
use crate::daemon::{Daemon, DaemonSpec};
use crate::inputs::{batches_of, distinct_ops, knowledge_inputs, sub_seed, Inputs, SERVE_SCALE};
use crate::stats::{beyond, last_part, median, ms, peak_rss_mb, quantile, quiet_phase, Quiet};
use crate::trace::Tracer;
use ngd_detect::{dect, DeltaReport, DetectionReport, IncrementalSession};
use ngd_graph::persist::MmapSnapshot;
use ngd_graph::{BatchUpdate, DeltaOverlay};
use ngd_match::{DeltaViolations, PlanCache, Violation, ViolationSet};
use ngd_serve::protocol::{UpdateRequest, VioChunk};
use ngd_serve::{ServeAddr, ServeClient, Side};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// 20-op batches: 10 deletions of existing edges, 10 insertions.
const BATCH_SIDE: usize = 10;
/// `session_age`: batches per stream (6,000 accumulated ops at the end).
const AGE_BATCHES: usize = 300;
/// `session_age`: a checkpoint (telescoping check and a `QUERY`) every
/// this many batches.
const AGE_CHECK_EVERY: usize = 25;
/// `update_tail_ms` percentile: each round has 300 updates, so 15 samples
/// lie beyond it.
const TAIL_Q: f64 = 0.95;

struct Files {
    snapshot: PathBuf,
    rules: PathBuf,
    socket: PathBuf,
    log: PathBuf,
}

impl Files {
    fn new(ctx: &Ctx) -> Files {
        Files {
            snapshot: ctx.work.join("graph.ngds"),
            rules: ctx.work.join("rules.ngdl"),
            socket: ctx.work.join("d.sock"),
            log: ctx.work.join("daemon.log"),
        }
    }

    fn spec<'a>(&'a self, ctx: &'a Ctx) -> DaemonSpec<'a> {
        DaemonSpec {
            binary: &ctx.daemon,
            snapshot: &self.snapshot,
            rules: &self.rules,
            socket: &self.socket,
            log: &self.log,
            processors: ctx.parallelism,
            workers: ctx.parallelism,
        }
    }
}

/// `session_age`: the stream and what the oracle says about it.
struct AgePlan {
    batches: Vec<BatchUpdate>,
    vio0: ViolationSet,
    /// `dect(Σ, G_k)` on the adjacency-list graph after batch `k`.
    expected: BTreeMap<usize, ViolationSet>,
}

fn age_plan(inputs: &Inputs, seed: u64) -> AgePlan {
    let (del, ins) = distinct_ops(
        &inputs.graph,
        AGE_BATCHES * BATCH_SIDE * 2,
        sub_seed(seed, 3),
    );
    let batches = batches_of(&del, &ins, BATCH_SIDE, AGE_BATCHES);
    let vio0 = dect(&inputs.sigma, &inputs.graph).violations;
    let mut oracle = inputs.graph.clone();
    let mut expected = BTreeMap::new();
    for (k, batch) in batches.iter().enumerate() {
        batch.apply(&mut oracle).expect("generated batches apply");
        if (k + 1) % AGE_CHECK_EVERY == 0 {
            expected.insert(k + 1, dect(&inputs.sigma, &oracle).violations);
        }
    }
    AgePlan {
        batches,
        vio0,
        expected,
    }
}

/// Client-side latencies of served rounds.
#[derive(Default)]
struct Served {
    /// One vector per round, in request order.
    update_ms: Vec<Vec<f64>>,
    first_vio_ms: Vec<f64>,
    query_ms: Vec<f64>,
    requests: u64,
    failed: u64,
    wall: Duration,
}

impl Served {
    fn updates(&self) -> Vec<f64> {
        self.update_ms.concat()
    }

    fn absorb(&mut self, round: Served) {
        self.update_ms.extend(round.update_ms);
        self.first_vio_ms.extend(round.first_vio_ms);
        self.query_ms.extend(round.query_ms);
        self.requests += round.requests;
        self.failed += round.failed;
        self.wall += round.wall;
    }
}

/// Submit one batch, timing the whole answer and its first `VIO_CHUNK`.
fn timed_update(
    client: &mut ServeClient,
    batch: &BatchUpdate,
    served: &mut Served,
) -> DeltaViolations {
    let start = Instant::now();
    let mut first = None;
    let mut delta = DeltaViolations::new();
    let result = client.submit_update_streaming(batch, |side, violations| {
        first.get_or_insert_with(|| ms(start.elapsed()));
        let set = match side {
            Side::Added => &mut delta.added,
            Side::Removed => &mut delta.removed,
        };
        for v in violations {
            set.insert(v);
        }
    });
    let elapsed = ms(start.elapsed());
    served.requests += 1;
    match result {
        Ok(_) => {
            served
                .update_ms
                .last_mut()
                .expect("round open")
                .push(elapsed);
            if let Some(first) = first {
                served.first_vio_ms.push(first);
            }
        }
        Err(e) => {
            eprintln!("UPDATE failed: {e}");
            served.failed += 1;
        }
    }
    delta
}

fn timed_query(client: &mut ServeClient, served: &mut Served) -> ViolationSet {
    let start = Instant::now();
    let result = client.query();
    served.requests += 1;
    match result {
        Ok(answer) => {
            served.query_ms.push(ms(start.elapsed()));
            answer.violations
        }
        Err(e) => {
            eprintln!("QUERY failed: {e}");
            served.failed += 1;
            ViolationSet::new()
        }
    }
}

fn connect(addr: &ServeAddr, name: &str) -> ServeClient {
    ServeClient::connect_as(addr, name).expect("connect to the daemon")
}

/// One `session_age` round: a fresh connection streams every batch, with
/// a `QUERY` at each checkpoint.
fn age_round(addr: &ServeAddr, plan: &AgePlan, served: &mut Served, checks: &mut Checks) {
    let mut client = connect(addr, "session_age");
    served.update_ms.push(Vec::new());
    let start = Instant::now();
    let mut deltas = Vec::with_capacity(plan.batches.len());
    let mut answers = BTreeMap::new();
    for (k, batch) in plan.batches.iter().enumerate() {
        deltas.push(timed_update(&mut client, batch, served));
        if (k + 1) % AGE_CHECK_EVERY == 0 {
            answers.insert(k + 1, timed_query(&mut client, served));
        }
    }
    served.wall += start.elapsed();
    drop(client);
    telescope(checks, "session_age", &plan.vio0, &deltas, &plan.expected);
    for (k, answer) in &answers {
        checks.expect(plan.expected.get(k) == Some(answer), || {
            format!("session_age: QUERY after batch {k} differs from dect(Gk)")
        });
    }
}

/// Start the daemon [`SETUPS`] times from freshly written inputs, keep the
/// last one running.  Returns set-up seconds and the snapshot size.
fn timed_setups(ctx: &Ctx, inputs: &Inputs, files: &Files) -> (Vec<f64>, Daemon, u64) {
    let mut setups = Vec::new();
    for _ in 1..SETUPS {
        let start = Instant::now();
        write_inputs(&inputs.graph, &inputs.ngdl, &files.snapshot, &files.rules);
        let (daemon, hello) = Daemon::start(&files.spec(ctx)).expect("daemon starts");
        setups.push(start.elapsed().as_secs_f64());
        daemon.stop(hello).expect("daemon stops");
    }
    let start = Instant::now();
    let bytes = write_inputs(&inputs.graph, &inputs.ngdl, &files.snapshot, &files.rules);
    let (daemon, _hello) = Daemon::start(&files.spec(ctx)).expect("daemon starts");
    setups.push(start.elapsed().as_secs_f64());
    (setups, daemon, bytes)
}

pub fn run(ctx: &Ctx, checks: &mut Checks) -> Outcome {
    let inputs = knowledge_inputs(SERVE_SCALE, ctx.seed);
    let plan = age_plan(&inputs, ctx.seed);
    let files = Files::new(ctx);
    let (setups, daemon, snapshot_bytes) = quiet_phase(|| timed_setups(ctx, &inputs, &files));

    let budget = if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let mut quiet = Quiet::new(budget);
    let mut rounds = Vec::new();
    while quiet.more() {
        let mut round = Served::default();
        age_round(&daemon.addr, &plan, &mut round, checks);
        quiet.round(round.wall);
        eprintln!(
            "session_age: round {}: {:.2} s, update p50 {:.3} ms",
            rounds.len() + 1,
            round.wall.as_secs_f64(),
            median(&round.updates())
        );
        rounds.push(round);
    }
    let attempted: u64 = rounds.iter().map(|r| r.requests).sum();
    let failed: u64 = rounds.iter().map(|r| r.failed).sum();
    let rounds_run = rounds.len();
    let mut served = Served::default();
    for (round, keep) in rounds.into_iter().zip(quiet.finish("session_age")) {
        if keep {
            served.absorb(round);
        }
    }
    let rss = peak_rss_mb(&daemon.pid()).unwrap_or(0.0);
    let control = connect(&daemon.addr, "perfbench");
    daemon.stop(control).expect("daemon stops");

    let updates = served.updates();
    eprintln!(
        "session_age: {} of {rounds_run} round(s) measured, {} requests in {:.2} s, {} updates (p{:.0} has {} beyond), {} queries",
        served.update_ms.len(),
        served.requests,
        served.wall.as_secs_f64(),
        updates.len(),
        TAIL_Q * 100.0,
        beyond(&updates, TAIL_Q),
        served.query_ms.len(),
    );

    if ctx.trace {
        return Outcome {
            attempted,
            failed,
            metrics: traced(ctx, &inputs, &plan, &files, &served, checks),
        };
    }
    Outcome {
        attempted,
        failed,
        metrics: vec![
            ("setup_s", median(&setups), "s"),
            ("peak_rss_mb", rss, "MiB"),
            ("update_p50_ms", median(&updates), "ms"),
            ("update_tail_ms", quantile(&updates, TAIL_Q), "ms"),
            (
                "late_update_p50_ms",
                median(&last_part(&served.update_ms, 6)),
                "ms",
            ),
            ("first_vio_p50_ms", median(&served.first_vio_ms), "ms"),
            ("detect_p50_ms", median(&served.query_ms), "ms"),
            (
                "requests_per_s",
                served.requests as f64 / served.wall.as_secs_f64(),
                "req/s",
            ),
            (
                "snapshot_bytes_per_edge",
                snapshot_bytes as f64 / inputs.graph.edge_count() as f64,
                "B",
            ),
        ],
    }
}

/// In-process state of one replayed session.
#[derive(Default)]
struct Session {
    accumulated: BatchUpdate,
    batches: u64,
}

/// Replay one served `UPDATE` in-process: the real
/// `IncrementalSession::apply_with_cache` (op `apply`), the same steps
/// call by call (op `update`), the neighbourhood statistic and the wire
/// codec.  Checks that both replays agree and returns the answer.
#[allow(clippy::too_many_arguments)]
fn replay_update(
    tr: &mut Tracer,
    ctx: &Ctx,
    inputs: &Inputs,
    base: &MmapSnapshot,
    session: &mut Session,
    batch: &BatchUpdate,
    cache: &PlanCache,
    reports: &mut Vec<DeltaReport>,
    checks: &mut Checks,
) -> DeltaViolations {
    let config = ctx.config();
    let accumulated = session.accumulated.clone();
    let real = tr
        .op("apply", |tr| {
            tr.span(
                "detect.session",
                "IncrementalSession::apply_with_cache",
                |_| {
                    let mut s = IncrementalSession::resume(base, accumulated, session.batches);
                    s.apply_with_cache(&inputs.sigma, batch, &config, cache)
                },
            )
        })
        .expect("generated batches are valid");
    let report = traced_update(
        tr,
        &inputs.sigma,
        base,
        &mut session.accumulated,
        batch,
        &config,
        cache,
    );
    session.batches += 1;
    checks.expect(report.delta == real.delta, || {
        "replayed apply steps disagree with IncrementalSession::apply_with_cache".into()
    });
    let view = DeltaOverlay::new(base, &session.accumulated);
    traced_neighborhood(tr, &inputs.sigma, &view, batch);
    tr.op("codec", |tr| {
        tr.span("serve.codec", "UpdateRequest+VioChunk", |_| {
            let request = UpdateRequest {
                batch: batch.clone(),
            };
            UpdateRequest::decode(&request.encode()).expect("request round-trips");
            for (side, set) in [
                (Side::Added, &report.delta.added),
                (Side::Removed, &report.delta.removed),
            ] {
                let refs: Vec<&Violation> = set.iter().collect();
                VioChunk::decode(&VioChunk::encode_refs(side, &refs)).expect("chunk round-trips");
            }
        })
    });
    let delta = report.delta.clone();
    reports.push(report);
    delta
}

/// Replay a served `QUERY` in-process: the real `detect_all_with_cache`
/// (op `query`) and the rule-by-rule matcher/evaluator probe.
#[allow(clippy::too_many_arguments)]
fn replay_query(
    tr: &mut Tracer,
    inputs: &Inputs,
    base: &MmapSnapshot,
    session: &Session,
    cache: &PlanCache,
    reports: &mut Vec<DetectionReport>,
    probe: &mut (usize, usize),
    checks: &mut Checks,
) -> ViolationSet {
    let accumulated = session.accumulated.clone();
    let report = tr.op("query", |tr| {
        tr.span(
            "detect.session",
            "IncrementalSession::detect_all_with_cache",
            |_| {
                IncrementalSession::resume(base, accumulated, session.batches)
                    .detect_all_with_cache(&inputs.sigma, cache)
            },
        )
    });
    let view = DeltaOverlay::new(base, &session.accumulated);
    let (violations, matches) = traced_rule_probe(tr, &inputs.sigma, &view);
    checks.expect(violations == report.violations, || {
        "rule-by-rule probe disagrees with detect_all_with_cache".into()
    });
    probe.0 += violations.len();
    probe.1 += matches;
    let answer = report.violations.clone();
    reports.push(report);
    answer
}

/// The traced run: replay the workload's operations in-process for the
/// other half of the time, then report per-layer metrics.
fn traced(
    ctx: &Ctx,
    inputs: &Inputs,
    plan: &AgePlan,
    files: &Files,
    served: &Served,
    checks: &mut Checks,
) -> Vec<(&'static str, f64, &'static str)> {
    let mut tr = Tracer::new();
    let base = traced_setups(&mut tr, &inputs.graph, &inputs.ngdl, &files.snapshot);
    let cache = PlanCache::new();
    let mut pinc = Vec::new();
    let mut full = Vec::new();
    let mut probe = (0usize, 0usize);
    let start = Instant::now();
    while pinc.is_empty() || start.elapsed().as_secs_f64() < ctx.seconds / 2.0 {
        let mut session = Session::default();
        let mut deltas = Vec::new();
        for (k, batch) in plan.batches.iter().enumerate() {
            deltas.push(replay_update(
                &mut tr,
                ctx,
                inputs,
                &base,
                &mut session,
                batch,
                &cache,
                &mut pinc,
                checks,
            ));
            if (k + 1) % AGE_CHECK_EVERY == 0 {
                let answer = replay_query(
                    &mut tr, inputs, &base, &session, &cache, &mut full, &mut probe, checks,
                );
                checks.expect(plan.expected.get(&(k + 1)) == Some(&answer), || {
                    format!("traced session_age: query after batch {} is wrong", k + 1)
                });
            }
        }
        telescope(
            checks,
            "traced session_age",
            &plan.vio0,
            &deltas,
            &plan.expected,
        );
    }
    let obs = obs_overhead_ms(&mut tr, &inputs.sigma, &base, 5);

    let mut values = LayerValues::default();
    values.common(&tr);
    let apply = tr.op_ms("apply");
    let rounds: Vec<Vec<f64>> = apply
        .chunks(plan.batches.len())
        .map(|c| c.to_vec())
        .collect();
    let queries = tr.op_ms("query");
    values.set(
        "serve.update_overhead_ms",
        median(&served.updates()) - median(&apply),
    );
    values.set(
        "serve.query_overhead_ms",
        median(&served.query_ms) - median(&queries),
    );
    values.set("serve.codec_us", median(&tr.op_ms("codec")) * 1e3);
    values.set("detect.session.apply_ms", median(&apply));
    values.set(
        "detect.session.late_apply_ms",
        median(&last_part(&rounds, 6)),
    );
    values.set(
        "graph.update.validate_ms",
        median(&tr.call_ms("graph.update", "BatchUpdate::validate_against")),
    );
    values.set(
        "graph.update.merge_ms",
        median(&tr.call_ms("graph.update", "BatchUpdate::merge")),
    );
    values.set(
        "graph.overlay.builds_per_update",
        tr.calls_per_op("update", "graph.overlay", "DeltaOverlay::new"),
    );
    values.set(
        "detect.pinc.wall_ms",
        median(&tr.call_ms("detect.pinc", "pinc_dect_prepared_cached")),
    );
    values.pinc_reports(&pinc.iter().collect::<Vec<_>>());
    values.full_reports(&full.iter().collect::<Vec<_>>());
    values.set("detect.dect_ms", median(&queries));
    values.set(
        "matcher.violations_per_match",
        probe.0 as f64 / probe.1.max(1) as f64,
    );
    values.set("obs.overhead_ms", obs);
    values.set(
        "trace.overhead_ms",
        median(&tr.op_ms("update")) - median(&apply),
    );

    let table = write_trace(
        &tr,
        &ctx.out,
        &format!("session_age, seed {}, {} spans", ctx.seed, tr.spans.len()),
        &inputs.ngdl,
    );
    eprint!("{table}");
    values.into_metrics()
}
