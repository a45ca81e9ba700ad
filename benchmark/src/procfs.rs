//! Process and host readings from `/proc`, and the parallelism probe.

use std::time::Instant;

/// Kernel clock ticks per second for `/proc/self/stat` times. Fixed at 100
/// on every Linux ABI Rust supports (`USER_HZ`).
const TICKS_PER_S: f64 = 100.0;

/// Cumulative process counters from `/proc/self/stat`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ProcStat {
    /// User-mode CPU seconds of all threads, exited ones included.
    pub user_s: f64,
    /// Kernel-mode CPU seconds.
    pub sys_s: f64,
    pub minor_faults: u64,
}

impl ProcStat {
    /// Reads the current values (zeros where `/proc` is unavailable).
    pub fn now() -> Self {
        std::fs::read_to_string("/proc/self/stat")
            .ok()
            .and_then(|s| Self::parse(&s))
            .unwrap_or_default()
    }

    fn parse(stat: &str) -> Option<Self> {
        // The command name may hold spaces; fields are counted after ")".
        let rest = &stat[stat.rfind(')')? + 1..];
        let f: Vec<&str> = rest.split_ascii_whitespace().collect();
        // rest[0] is field 3 (state): minflt = 10, utime = 14, stime = 15.
        Some(Self {
            minor_faults: f.get(7)?.parse().ok()?,
            user_s: f.get(11)?.parse::<f64>().ok()? / TICKS_PER_S,
            sys_s: f.get(12)?.parse::<f64>().ok()? / TICKS_PER_S,
        })
    }

    pub fn cpu_s(&self) -> f64 {
        self.user_s + self.sys_s
    }
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
}

/// CPU seconds (user and kernel) of all threads of the process, at
/// nanosecond resolution. `/proc/self/stat` counts in 10 ms ticks, too
/// coarse for a round of a fraction of a second.
pub fn cpu_now_s() -> f64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut t = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `t` is a live, writable `struct timespec` (two 64-bit fields
    // on every 64-bit Linux ABI), which is all clock_gettime requires; it
    // writes nothing else and keeps no pointer.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut t) };
    if rc == 0 {
        t.sec as f64 + t.nsec as f64 / 1e9
    } else {
        ProcStat::now().cpu_s()
    }
}

/// Wall and CPU seconds one timed region took.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Spent {
    pub wall_s: f64,
    pub cpu_s: f64,
}

/// Runs `f` as a timed region. Work between regions (cloning inputs,
/// checking answers) is left out of both clocks.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Spent) {
    let cpu = cpu_now_s();
    let t = Instant::now();
    let out = f();
    let wall_s = t.elapsed().as_secs_f64();
    (
        out,
        Spent {
            wall_s,
            cpu_s: cpu_now_s() - cpu,
        },
    )
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_ascii_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// (steal, total) jiffies of the host since boot, from `/proc/stat`.
pub fn host_jiffies() -> (f64, f64) {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let v: Vec<f64> = s
                .lines()
                .next()?
                .split_ascii_whitespace()
                .skip(1)
                .filter_map(|x| x.parse().ok())
                .collect();
            // user nice system idle iowait irq softirq steal [guest…]
            Some((*v.get(7)?, v.iter().take(8).sum()))
        })
        .unwrap_or((0.0, 0.0))
}

/// Share of host CPU time stolen by the hypervisor since `before`.
pub fn steal_frac_since(before: (f64, f64)) -> f64 {
    let now = host_jiffies();
    let total = now.1 - before.1;
    if total > 0.0 {
        (now.0 - before.0) / total
    } else {
        0.0
    }
}

fn spin(iters: u64) -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..iters {
        x = std::hint::black_box(x ^ (x << 13) ^ (x >> 7) ^ i);
    }
    x
}

/// Two busy threads against one: 2 × t(one) / t(two at once). About 2 on
/// two real cores, about 1 when both threads share one.
pub fn two_thread_speedup() -> f64 {
    const ITERS: u64 = 8_000_000;
    let best_of = |f: &dyn Fn()| {
        (0..3)
            .map(|_| {
                let t = Instant::now();
                f();
                t.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    };
    let one = best_of(&|| {
        std::hint::black_box(spin(ITERS));
    });
    let two = best_of(&|| {
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| std::hint::black_box(spin(ITERS)));
            }
        });
    });
    2.0 * one / two
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_line_with_spaces_in_the_command_name_parses() {
        let line = "42 (a b) c) S 1 2 3 4 5 6 777 8 9 10 250 50 0 0 20 0 3 0 100 1 2";
        let s = ProcStat::parse(line).unwrap();
        assert_eq!(s.minor_faults, 777);
        assert_eq!((s.user_s, s.sys_s), (2.5, 0.5));
        assert_eq!(s.cpu_s(), 3.0);
        assert!(ProcStat::parse("garbage").is_none());
    }

    #[test]
    fn live_readings_are_sane() {
        assert!(peak_rss_mb() > 0.0);
        let (v, spent) = timed(|| spin(20_000_000));
        assert!(v != 0 && spent.wall_s > 0.0);
        // A busy loop burns CPU for most of its wall time (other test
        // threads of the process may add theirs on top).
        assert!(spent.cpu_s > 0.2 * spent.wall_s, "{spent:?}");
        assert!(cpu_now_s() >= ProcStat::now().cpu_s() - 0.02);
        assert!((0.0..=1.0).contains(&steal_frac_since(host_jiffies())));
    }
}
