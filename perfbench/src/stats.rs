//! Sample summaries and process measurements.

use std::time::{Duration, Instant};

/// Milliseconds of a duration, with all its digits.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Nearest-rank quantile `q ∈ [0, 1]` of `samples` (0 when empty).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// How many samples lie strictly above the `q` quantile.
pub fn beyond(samples: &[f64], q: f64) -> usize {
    let cut = quantile(samples, q);
    samples.iter().filter(|&&s| s > cut).count()
}

/// The last `1/parts` of each round's samples, pooled.
pub fn last_part(rounds: &[Vec<f64>], parts: usize) -> Vec<f64> {
    rounds
        .iter()
        .flat_map(|r| r[r.len() - r.len().div_ceil(parts)..].iter().copied())
        .collect()
}

/// Peak resident set size (`VmHWM`) of a process, in MiB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Ticks the hypervisor took from this machine's CPUs (`steal` in
/// `/proc/stat`) and all ticks so far.
fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

fn steal_since(before: (u64, u64)) -> f64 {
    let now = cpu_ticks();
    (now.0 - before.0) as f64 / (now.1 - before.1).max(1) as f64
}

/// Run a set-up phase again (up to three times in all) while the
/// hypervisor stole more than [`MAX_STEAL`] during it; returns the last
/// result.
pub fn quiet_phase<T>(mut phase: impl FnMut() -> T) -> T {
    for _ in 1..3 {
        let before = cpu_ticks();
        let out = phase();
        if steal_since(before) <= MAX_STEAL {
            return out;
        }
    }
    phase()
}

/// A timed block is measured only if the hypervisor stole at most this
/// share of the machine's CPU time while it ran.
pub const MAX_STEAL: f64 = 0.03;
/// Rounds are judged in blocks of at least this much timed work.
const BLOCK: Duration = Duration::from_secs(2);
/// A run spends at most this many times its budget on timed rounds...
const MAX_SPAN: f64 = 4.0;
/// ...and starts no round once this long has passed since its first one,
/// so that a run ends well within three minutes.
const MAX_WALL: Duration = Duration::from_secs(100);

/// Which timed rounds ran while the virtual machine had its CPUs.
///
/// On a shared virtual machine the hypervisor's steal time comes and goes
/// (from 0 % to 35 % of all CPU ticks within a minute on a 2-vCPU cloud
/// machine) and stretches every wall-clock latency with it.  Rounds are
/// grouped into blocks of at least [`BLOCK`]; a block during which steal
/// exceeded [`MAX_STEAL`] is run and checked but its timings are set
/// aside.  A run keeps going until it has `budget` seconds of quiet rounds
/// or has spent [`MAX_SPAN`] × `budget` (or [`MAX_WALL`]) on rounds.  If
/// fewer than half of `budget` was quiet by then, the least-stolen of the
/// other blocks are measured too, up to half of `budget`, and the run says
/// so; the most-stolen blocks are never measured.  (Refusing to report
/// instead failed one run in twenty here: steal stays above 3 % for more
/// than a minute at times.)
pub struct Quiet {
    budget: f64,
    started: Instant,
    ticks: (u64, u64),
    rounds: usize,
    /// The open block: its first round and its timed work.
    open: (usize, Duration),
    blocks: Vec<Block>,
    quiet: Duration,
    total: Duration,
}

struct Block {
    rounds: std::ops::Range<usize>,
    wall: Duration,
    steal: f64,
}

impl Quiet {
    /// Gate rounds for a run that should measure `budget` seconds.
    pub fn new(budget: f64) -> Quiet {
        Quiet {
            budget,
            started: Instant::now(),
            ticks: cpu_ticks(),
            rounds: 0,
            open: (0, Duration::ZERO),
            blocks: Vec::new(),
            quiet: Duration::ZERO,
            total: Duration::ZERO,
        }
    }

    /// Whether to run another round.
    pub fn more(&self) -> bool {
        self.rounds == 0
            || (self.quiet.as_secs_f64() < self.budget
                && self.total.as_secs_f64() < MAX_SPAN * self.budget
                && self.started.elapsed() < MAX_WALL)
    }

    /// Record a finished round of `wall` timed work.
    pub fn round(&mut self, wall: Duration) {
        self.rounds += 1;
        self.open.1 += wall;
        self.total += wall;
        if self.open.1 >= BLOCK {
            self.close_block();
        }
    }

    fn close_block(&mut self) {
        if self.open.0 == self.rounds {
            return;
        }
        let steal = steal_since(self.ticks);
        if steal <= MAX_STEAL {
            self.quiet += self.open.1;
        }
        self.blocks.push(Block {
            rounds: self.open.0..self.rounds,
            wall: self.open.1,
            steal,
        });
        self.ticks = cpu_ticks();
        self.open = (self.rounds, Duration::ZERO);
    }

    /// Which rounds to measure, one flag per round.
    pub fn finish(mut self, workload: &str) -> Vec<bool> {
        self.close_block();
        let (flags, kept, worst) = measured(&self.blocks, self.rounds, self.budget);
        let steal: Vec<String> = self
            .blocks
            .iter()
            .map(|b| format!("{:.1}", 100.0 * b.steal))
            .collect();
        eprintln!(
            "{workload}: {:.1} s of {:.1} s timed work in blocks with steal <= {:.0}%; steal per block (%): {}",
            self.quiet.as_secs_f64(),
            self.total.as_secs_f64(),
            100.0 * MAX_STEAL,
            steal.join(" "),
        );
        if worst > MAX_STEAL {
            eprintln!(
                "{workload}: STOLEN: too little was quiet; blocks with up to {:.1}% steal are measured too ({:.1} s in all)",
                100.0 * worst,
                kept.as_secs_f64()
            );
        }
        flags
    }
}

/// The rounds of every quiet block, and then, while they add up to less
/// than half of `budget`, those of the least-stolen other blocks.  Returns
/// one flag per round, the timed work measured and the highest steal of a
/// measured block.
fn measured(blocks: &[Block], rounds: usize, budget: f64) -> (Vec<bool>, Duration, f64) {
    let mut by_steal: Vec<&Block> = blocks.iter().collect();
    by_steal.sort_by(|a, b| a.steal.total_cmp(&b.steal));
    let mut flags = vec![false; rounds];
    let mut kept = Duration::ZERO;
    let mut worst = 0.0;
    for block in by_steal {
        if block.steal > MAX_STEAL && kept.as_secs_f64() >= budget / 2.0 {
            break;
        }
        flags[block.rounds.clone()].fill(true);
        kept += block.wall;
        worst = block.steal;
    }
    (flags, kept, worst)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(rounds: std::ops::Range<usize>, secs: u64, steal: f64) -> Block {
        Block {
            rounds,
            wall: Duration::from_secs(secs),
            steal,
        }
    }

    #[test]
    fn measures_only_quiet_blocks_when_enough_were_quiet() {
        let blocks = [
            block(0..2, 4, 0.01),
            block(2..3, 4, 0.20),
            block(3..5, 4, 0.0),
        ];
        let (flags, kept, worst) = measured(&blocks, 5, 10.0);
        assert_eq!(flags, [true, true, false, true, true]);
        assert_eq!(kept, Duration::from_secs(8));
        assert!(worst <= MAX_STEAL);
    }

    #[test]
    fn adds_the_least_stolen_blocks_up_to_half_the_budget() {
        let blocks = [
            block(0..1, 3, 0.30),
            block(1..2, 3, 0.05),
            block(2..3, 3, 0.02),
            block(3..4, 3, 0.10),
        ];
        let (flags, kept, worst) = measured(&blocks, 4, 12.0);
        assert_eq!(flags, [false, true, true, false]);
        assert_eq!(kept, Duration::from_secs(6));
        assert_eq!(worst, 0.05);
    }
}
