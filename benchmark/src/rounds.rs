//! Rounds, not totals: a timed phase is cut into rounds, a latency metric
//! is the per-round percentile as the least-disturbed rounds read it, and
//! set-up is repeated and reported as a median, so that a spell of
//! interference from the host's other tenants disturbs some rounds and not
//! the reported figure.

use crate::procfs::Spent;
use crate::stats::{median, percentile, tail_percentile, undisturbed};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The measuring time of a run: rounds go on until it is spent, and for
/// at least `min_rounds`.
pub struct Budget {
    end: Instant,
    min_rounds: usize,
}

impl Budget {
    pub fn new(seconds: f64, min_rounds: usize) -> Self {
        Self {
            end: Instant::now() + Duration::from_secs_f64(seconds.max(0.0)),
            min_rounds,
        }
    }

    /// Whether another round should run after `done` rounds.
    pub fn more(&self, done: usize) -> bool {
        done < self.min_rounds || Instant::now() < self.end
    }
}

/// Per-round summaries of one kind of op. Every round repeats the same
/// work, and the reported figure of each summary is the reading of the
/// least-disturbed rounds (see [`undisturbed`]).
#[derive(Clone, Debug, Default)]
pub struct RoundLog {
    round_len: usize,
    p50s: Vec<f64>,
    tails: Vec<f64>,
    rates: Vec<f64>,
    cpu_ms: Vec<f64>,
    pooled: Vec<f64>,
}

impl RoundLog {
    /// Adds one round: the latency of each op in microseconds, and the
    /// wall and CPU time the round took (construction included where a
    /// workload says so).
    pub fn push(&mut self, lat_us: &[f64], spent: Spent) {
        let ops = lat_us.len() as f64;
        self.round_len = lat_us.len();
        self.p50s.push(median(lat_us));
        if let Some(p) = tail_percentile(lat_us.len()) {
            self.tails.push(percentile(lat_us, p));
        }
        self.rates.push(ops / spent.wall_s);
        self.cpu_ms.push(1e3 * spent.cpu_s / ops);
        self.pooled.extend_from_slice(lat_us);
    }

    pub fn rounds(&self) -> usize {
        self.p50s.len()
    }

    pub fn ops(&self) -> usize {
        self.pooled.len()
    }

    /// Every op of every round, in microseconds, in the order run.
    pub fn pooled(&self) -> &[f64] {
        &self.pooled
    }

    pub fn ops_per_round(&self) -> usize {
        self.round_len
    }

    /// Per-round median latency.
    pub fn p50_us(&self) -> f64 {
        undisturbed(&self.p50s, true)
    }

    /// The tail latency and the percentile it is: the highest percentile
    /// up to p95 that leaves ten samples beyond it. Rounds long enough for
    /// p95 are read round by round; shorter ones pool the ops of the run.
    /// A run of fewer than forty ops supports no percentile by that rule
    /// and reads p75 all the same (the maximum of so few would be noise).
    pub fn tail_us(&self) -> (f64, f64) {
        match tail_percentile(self.round_len) {
            Some(p) if p >= 95.0 => (undisturbed(&self.tails, true), p),
            _ => {
                let p = tail_percentile(self.pooled.len()).unwrap_or(75.0);
                (percentile(&self.pooled, p), p)
            }
        }
    }

    /// Ops per second of round wall time.
    pub fn ops_per_s(&self) -> f64 {
        undisturbed(&self.rates, false)
    }

    /// Process CPU milliseconds per op.
    pub fn cpu_ms_per_op(&self) -> f64 {
        undisturbed(&self.cpu_ms, true)
    }

    /// How the per-round medians spread, for the human-readable output:
    /// a run whose rounds disagree was disturbed while it measured.
    pub fn describe(&self) -> String {
        let q = |p| percentile(&self.p50s, p);
        let series: Vec<String> = self.p50s.iter().map(|v| format!("{v:.0}")).collect();
        format!(
            "{} rounds x {} ops, per-round p50 us: min {:.1} p10 {:.1} q1 {:.1} median {:.1} q3 {:.1} max {:.1}\n  in order: {}",
            self.rounds(),
            self.round_len,
            q(0.0),
            q(10.0),
            q(25.0),
            q(50.0),
            q(75.0),
            q(100.0),
            series.join(" ")
        )
    }
}

/// The round logs of one kind of op: plain rounds at index 0, the traced
/// rounds of a traced run at index 1.
pub type Phase = [RoundLog; 2];

/// Multiplier from seconds to the unit a metric name ends in.
pub fn unit_scale(name: &str) -> f64 {
    if name.ends_with("_ms") {
        1e3
    } else if name.ends_with("_us") {
        1e6
    } else if name.ends_with("_ns") {
        1e9
    } else {
        1.0
    }
}

/// Named times of one set-up pass, in the unit each name ends in.
#[derive(Default)]
pub struct Laps(Vec<(&'static str, f64)>);

impl Laps {
    /// Runs `f` and records how long it took under `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.add(name, t.elapsed().as_secs_f64() * unit_scale(name));
        out
    }

    /// Adds `value` to lap `name`.
    pub fn add(&mut self, name: &'static str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some((_, v)) => *v += value,
            None => self.0.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }
}

/// The laps of every set-up pass of a run.
pub struct Passes(BTreeMap<&'static str, Vec<f64>>);

impl Passes {
    /// `setup_s` is the median over the passes; every other lap is the
    /// reading of the least-disturbed passes, like the round metrics.
    pub fn reading(&self, name: &str) -> f64 {
        match self.0.get(name) {
            Some(v) if name == "setup_s" => median(v),
            Some(v) => undisturbed(v, true),
            None => 0.0,
        }
    }

    pub fn names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.0.keys().copied()
    }

    pub fn count(&self) -> usize {
        self.0.get("setup_s").map_or(0, Vec::len)
    }

    /// How the passes spread, for the human-readable output.
    pub fn describe(&self) -> String {
        let passes = self.0.get("setup_s").map_or(&[][..], Vec::as_slice);
        let series: Vec<String> = passes.iter().map(|v| format!("{:.0}", 1e3 * v)).collect();
        format!(
            "{} set-up passes, setup_s median {:.4}, ms in order: {}",
            passes.len(),
            median(passes),
            series.join(" ")
        )
    }
}

/// Sets up at least `reps` times, and up to three times as often while
/// the passes together stay under a second (a cheap set-up needs more
/// passes for a steady median). Each state is dropped before the next is
/// built, so peak memory is that of one; the last state is kept. Every
/// pass is timed as a whole under `setup_s`.
pub fn repeat_setup<S>(reps: usize, mut setup: impl FnMut(&mut Laps) -> S) -> (S, Passes) {
    let mut state = None;
    let mut passes: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let start = Instant::now();
    let mut done = 0;
    while done < reps.max(1) || (done < 3 * reps && start.elapsed().as_secs_f64() < 1.0) {
        drop(state.take());
        let mut laps = Laps::default();
        let t = Instant::now();
        state = Some(setup(&mut laps));
        laps.add("setup_s", t.elapsed().as_secs_f64());
        for (name, v) in laps.0 {
            passes.entry(name).or_default().push(v);
        }
        done += 1;
    }
    (state.expect("at least one pass"), Passes(passes))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spent(wall_s: f64, cpu_s: f64) -> Spent {
        Spent { wall_s, cpu_s }
    }

    #[test]
    fn latency_metric_is_read_from_the_undisturbed_rounds() {
        let mut log = RoundLog::default();
        let calm: Vec<f64> = (0..1000).map(|i| 900.0 + f64::from(i % 100)).collect();
        let noisy: Vec<f64> = calm.iter().map(|v| v * 1.2).collect();
        // Three of five rounds fall into a spell of interference.
        for (round, wall) in [
            (&noisy, 1.2),
            (&calm, 1.0),
            (&noisy, 1.2),
            (&noisy, 1.2),
            (&calm, 1.0),
        ] {
            log.push(round, spent(wall, 2.0 * wall));
        }
        assert_eq!(log.rounds(), 5);
        assert_eq!(log.ops(), 5000);
        assert_eq!(log.p50_us(), median(&calm));
        assert_eq!(log.tail_us(), (percentile(&calm, 95.0), 95.0));
        assert_eq!(log.ops_per_s(), 1000.0);
        assert_eq!(log.cpu_ms_per_op(), 2.0);
        assert!(log.describe().starts_with("5 rounds x 1000 ops"));
    }

    #[test]
    fn short_rounds_pool_their_ops_for_the_tail() {
        let mut log = RoundLog::default();
        for i in 0..50 {
            log.push(&[f64::from(i)], spent(0.5, 0.5));
        }
        // 50 pooled ops support p75 (12 beyond), no higher percentile.
        assert_eq!(log.tail_us(), (37.0, 75.0));
        // Rounds of 120 ops would support p90 each; the pool supports p95.
        let mut mid = RoundLog::default();
        let round: Vec<f64> = (1..=120).map(f64::from).collect();
        for _ in 0..10 {
            mid.push(&round, spent(1.0, 1.0));
        }
        assert_eq!(mid.tail_us(), (114.0, 95.0));
        let mut few = RoundLog::default();
        few.push(&[3.0], spent(1.0, 1.0));
        few.push(&[9.0], spent(1.0, 1.0));
        assert_eq!(few.tail_us(), (9.0, 75.0));
    }

    #[test]
    fn budget_runs_its_minimum_even_when_spent() {
        let b = Budget::new(0.0, 3);
        assert!(b.more(0) && b.more(2));
        assert!(!b.more(3));
        assert!(Budget::new(60.0, 1).more(1000));
    }

    #[test]
    fn setup_repeats_and_reports_lap_medians() {
        let mut n = 0.0;
        let (state, passes) = repeat_setup(3, |laps| {
            n += 1.0;
            laps.add("shard.build_ms", 10.0 - n);
            laps.add("shard.build_ms", 1.0);
            laps.time("common.dataset_gen_s", || ());
            std::thread::sleep(Duration::from_millis(150));
            n
        });
        // Three passes are asked for; cheap ones go on for up to a second.
        assert_eq!((state, passes.count()), (7.0, 7));
        assert!(passes.describe().starts_with("7 set-up passes"));
        assert_eq!(passes.reading("shard.build_ms"), 4.0); // the best pass
        assert!((0.15..0.3).contains(&passes.reading("setup_s")));
        assert!(passes.reading("setup_s") >= passes.reading("common.dataset_gen_s"));
        assert_eq!(passes.reading("never.timed"), 0.0);
        assert!(passes.names().any(|n| n == "setup_s"));
        assert_eq!(unit_scale("a_ms") * unit_scale("b_us"), 1e9);
        assert_eq!(unit_scale("setup_s"), 1.0);
    }
}
