//! Per-thread CPU time from `/proc/self/task/<tid>/schedstat`, grouped
//! by the runtimes' thread names (`/proc/self/task/<tid>/comm`).
//!
//! `schedstat` counts run time in nanoseconds; `stat`'s `utime`/`stime`
//! count 10 ms ticks, too coarse for a 50 ms idle window or for ~17
//! threads sharing a second of CPU.

use std::collections::BTreeMap;

/// Prefix of the benchmark's own generator thread names.
pub const GEN_THREAD_PREFIX: &str = "pb-gen";

/// Who a thread works for.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Role {
    Client,
    Edge,
    Cloud,
    /// Worker-pool lanes (`WEDGE_POOL_THREADS` > 1).
    Pool,
    /// The benchmark's generator threads.
    Generator,
    /// Anything else (the benchmark's main thread).
    Other,
}

impl Role {
    /// Classifies a thread by its name as the kernel reports it
    /// (`comm`, truncated to 15 bytes: `wedge-net-client-0` reads as
    /// `wedge-net-clien`).
    pub fn of(comm: &str) -> Role {
        if comm.starts_with(GEN_THREAD_PREFIX) {
            return Role::Generator;
        }
        let Some(rest) = comm.strip_prefix("wedge-") else { return Role::Other };
        let rest = rest.strip_prefix("net-").unwrap_or(rest);
        if rest.starts_with("clien") {
            Role::Client
        } else if rest.starts_with("edge") {
            Role::Edge
        } else if rest.starts_with("cloud") {
            Role::Cloud
        } else if rest.starts_with("pool") {
            Role::Pool
        } else {
            Role::Other
        }
    }
}

/// Parses a `schedstat` line (`run_ns wait_ns timeslices`) into the
/// thread's run time in nanoseconds.
pub fn parse_schedstat(line: &str) -> Option<u64> {
    let mut fields = line.split_whitespace();
    let run_ns = fields.next()?.parse().ok()?;
    fields.next()?;
    Some(run_ns)
}

/// CPU nanoseconds per live thread of this process, keyed by tid.
#[derive(Clone, Debug, Default)]
pub struct CpuSnapshot {
    threads: BTreeMap<u32, (Role, u64)>,
}

impl CpuSnapshot {
    /// Reads every thread of this process. Threads that exit between
    /// the directory listing and the read are skipped.
    pub fn take() -> CpuSnapshot {
        let mut threads = BTreeMap::new();
        let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
            return CpuSnapshot { threads };
        };
        for entry in dir.flatten() {
            let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse::<u32>().ok()) else {
                continue;
            };
            let read = |file| std::fs::read_to_string(entry.path().join(file));
            let (Ok(comm), Ok(sched)) = (read("comm"), read("schedstat")) else { continue };
            if let Some(ns) = parse_schedstat(&sched) {
                threads.insert(tid, (Role::of(comm.trim_end()), ns));
            }
        }
        CpuSnapshot { threads }
    }

    /// CPU milliseconds per role spent between `earlier` and `self`.
    /// A thread born in between counts from zero.
    pub fn since(&self, earlier: &CpuSnapshot) -> BTreeMap<Role, f64> {
        let mut out = BTreeMap::new();
        for (tid, (role, ns)) in &self.threads {
            let before = earlier.threads.get(tid).map_or(0, |(_, t)| *t);
            let ms = ns.saturating_sub(before) as f64 / 1e6;
            *out.entry(*role).or_insert(0.0) += ms;
        }
        out
    }
}

/// CPU milliseconds of every thread except the generator's and the
/// benchmark's own main thread.
pub fn system_ms(by_role: &BTreeMap<Role, f64>) -> f64 {
    by_role
        .iter()
        .filter(|(r, _)| !matches!(r, Role::Generator | Role::Other))
        .map(|(_, ms)| ms)
        .sum()
}

/// Waits (up to `max`) until the runtime threads are idle: less than 5 %
/// of one core over a 50 ms window. Background work a previous phase
/// left behind (merges, late certificates) then cannot bleed into the
/// next phase's latencies or CPU count.
pub fn wait_idle(max: std::time::Duration) {
    const WINDOW: std::time::Duration = std::time::Duration::from_millis(50);
    let deadline = std::time::Instant::now() + max;
    while std::time::Instant::now() < deadline {
        let before = CpuSnapshot::take();
        std::thread::sleep(WINDOW);
        if system_ms(&CpuSnapshot::take().since(&before)) < 0.05 * WINDOW.as_secs_f64() * 1e3 {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_run_time_in_ns() {
        assert_eq!(parse_schedstat("373005470 82504 18\n"), Some(373_005_470));
        assert_eq!(parse_schedstat("0 0 1"), Some(0));
    }

    #[test]
    fn malformed_schedstat_is_rejected() {
        assert_eq!(parse_schedstat(""), None);
        assert_eq!(parse_schedstat("12"), None);
        assert_eq!(parse_schedstat("x 1 2"), None);
        assert_eq!(parse_schedstat("-5 1 2"), None);
    }

    #[test]
    fn roles_follow_runtime_thread_names() {
        assert_eq!(Role::of("wedge-cloud"), Role::Cloud);
        assert_eq!(Role::of("wedge-net-cloud"), Role::Cloud);
        assert_eq!(Role::of("wedge-edge-1"), Role::Edge);
        assert_eq!(Role::of("wedge-net-edge0"), Role::Edge);
        assert_eq!(Role::of("wedge-client-0"), Role::Client);
        assert_eq!(Role::of("wedge-net-clien"), Role::Client);
        assert_eq!(Role::of("wedge-pool-3"), Role::Pool);
        assert_eq!(Role::of("pb-gen-0"), Role::Generator);
        assert_eq!(Role::of("perfbench"), Role::Other);
    }

    #[test]
    fn deltas_count_new_threads_from_zero() {
        let mut a = CpuSnapshot::default();
        a.threads.insert(1, (Role::Edge, 10_000_000));
        let mut b = a.clone();
        b.threads.insert(1, (Role::Edge, 60_000_000));
        b.threads.insert(2, (Role::Cloud, 30_000_000));
        b.threads.insert(3, (Role::Generator, 50_000_000));
        let d = b.since(&a);
        assert_eq!(d[&Role::Edge], 50.0);
        assert_eq!(d[&Role::Cloud], 30.0);
        assert_eq!(system_ms(&d), 80.0);
    }

    #[test]
    fn reads_this_process() {
        let s = CpuSnapshot::take();
        assert!(!s.threads.is_empty(), "/proc/self/task lists at least this thread");
    }

    #[test]
    fn counts_cpu_below_one_tick() {
        let before = CpuSnapshot::take();
        let t = std::time::Instant::now();
        while t.elapsed() < std::time::Duration::from_millis(3) {
            std::hint::black_box(0u64);
        }
        let ms: f64 = CpuSnapshot::take().since(&before).values().sum();
        assert!(ms >= 2.0, "3 ms of spinning read as {ms} ms");
    }
}
