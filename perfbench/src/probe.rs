//! Measurements read from `/proc`: per-thread scheduler times of the
//! pool's workers, peak resident memory, and the hang dump.

use std::collections::BTreeMap;
use std::fs;

/// Name prefix the pool gives its worker threads.
const WORKER_PREFIX: &str = "sfrd-worker-";

/// `(on-CPU ns, run-queue wait ns)` of every thread of this process, by
/// thread id, from `/proc/self/task/<tid>/schedstat`.
pub fn task_times() -> BTreeMap<u64, (u64, u64)> {
    let mut out = BTreeMap::new();
    let Ok(dir) = fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in dir.flatten() {
        let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        let stat = fs::read_to_string(entry.path().join("schedstat")).unwrap_or_default();
        let mut f = stat
            .split_whitespace()
            .map(|v| v.parse::<u64>().unwrap_or(0));
        if let (Some(cpu), Some(wait)) = (f.next(), f.next()) {
            out.insert(tid, (cpu, wait));
        }
    }
    out
}

fn worker_tids() -> Vec<(u64, String)> {
    let Ok(dir) = fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    let mut out: Vec<(u64, String)> = dir
        .flatten()
        .filter_map(|e| {
            let tid = e.file_name().to_str()?.parse().ok()?;
            let comm = fs::read_to_string(e.path().join("comm")).ok()?;
            let comm = comm.trim_end().to_string();
            comm.starts_with(WORKER_PREFIX).then_some((tid, comm))
        })
        .collect();
    out.sort();
    out
}

/// Seconds the pool's workers spent on a CPU and waiting in a run queue
/// since `before` (a [`task_times`] snapshot taken after the pool was
/// built, so every worker thread already existed, named or not).
pub fn worker_delta(before: &BTreeMap<u64, (u64, u64)>) -> (f64, f64) {
    let now = task_times();
    let (mut cpu, mut wait) = (0u64, 0u64);
    for (tid, _) in worker_tids() {
        let (c1, w1) = now.get(&tid).copied().unwrap_or_default();
        let (c0, w0) = before.get(&tid).copied().unwrap_or_default();
        cpu += c1.saturating_sub(c0);
        wait += w1.saturating_sub(w0);
    }
    (cpu as f64 * 1e-9, wait as f64 * 1e-9)
}

/// Reset the peak-RSS mark (`VmHWM`) to the current RSS, so the peak read
/// later covers only what ran after this call. A kernel that refuses the
/// reset leaves the peak of the whole process.
pub fn reset_peak_rss() {
    let _ = fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident memory (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Scheduler state of each worker thread, for a hang diagnosis.
pub fn worker_dump() -> String {
    let mut out = String::new();
    for (tid, comm) in worker_tids() {
        let read = |f: &str| {
            fs::read_to_string(format!("/proc/self/task/{tid}/{f}"))
                .map(|s| s.trim_end().to_string())
                .unwrap_or_else(|e| format!("<{e}>"))
        };
        out += &format!(
            "  {comm} tid={tid}\n    stat: {}\n    wchan: {}\n    schedstat: {}\n",
            read("stat"),
            read("wchan"),
            read("schedstat")
        );
    }
    if out.is_empty() {
        out = "  no sfrd-worker threads\n".to_string();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfrd_core::{NullHooks, Runtime};
    use std::sync::Arc;

    #[test]
    fn worker_threads_are_found_and_charged() {
        let rt: Runtime<NullHooks> = Runtime::new(2);
        let before = task_times();
        rt.run(Arc::new(NullHooks), |_| {
            let mut x = 0u64;
            for i in 0..20_000_000u64 {
                x = std::hint::black_box(x.wrapping_add(i));
            }
        });
        // Tests run in parallel, so other pools' workers may be listed too.
        assert!(worker_tids().len() >= 2);
        let (cpu, _) = worker_delta(&before);
        assert!(cpu > 0.0, "the root task ran on a worker");
        assert!(worker_dump().contains("sfrd-worker-0"));
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mib() > 0.0);
    }
}
