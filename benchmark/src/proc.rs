//! Process accounting from `/proc/self`: CPU time per thread and resident
//! memory.
//!
//! Every thread the benchmark itself starts to offer load or to observe
//! (generators, clients, samplers) is named `bench-…`; CPU time of the
//! system under test is the process total minus those threads and the
//! main thread. Per-thread run time comes from `schedstat` (nanoseconds);
//! where the kernel lacks it, from `stat` (clock ticks).

use std::collections::HashMap;

/// Name prefix of the benchmark's own load and observer threads.
pub const HARNESS_PREFIX: &str = "bench-";

/// Spawns a named harness thread inside `scope`.
pub fn spawn_harness<'scope, 'env, T: Send + 'scope>(
    scope: &'scope std::thread::Scope<'scope, 'env>,
    name: &str,
    f: impl FnOnce() -> T + Send + 'scope,
) -> std::thread::ScopedJoinHandle<'scope, T> {
    std::thread::Builder::new()
        .name(format!("{HARNESS_PREFIX}{name}"))
        .spawn_scoped(scope, f)
        .expect("spawn harness thread")
}

/// Run time of every live thread, keyed by tid: `(is_harness, ns)`.
pub type CpuSnapshot = HashMap<u32, (bool, u64)>;

fn task_cpu_ns(tid: u32) -> Option<u64> {
    if let Ok(s) = std::fs::read_to_string(format!("/proc/self/task/{tid}/schedstat")) {
        if let Some(ns) = s.split_whitespace().next().and_then(|f| f.parse().ok()) {
            return Some(ns);
        }
    }
    // fall back to utime+stime in clock ticks (100 Hz on Linux)
    let s = std::fs::read_to_string(format!("/proc/self/task/{tid}/stat")).ok()?;
    let rest = &s[s.rfind(')')? + 1..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = f.get(11)?.parse::<u64>().ok()? + f.get(12)?.parse::<u64>().ok()?;
    Some(ticks * 10_000_000)
}

/// Snapshots the run time of every thread of this process.
pub fn cpu_snapshot() -> CpuSnapshot {
    let pid = std::process::id();
    let mut out = CpuSnapshot::new();
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in dir.flatten() {
        let Some(tid) = entry
            .file_name()
            .to_str()
            .and_then(|s| s.parse::<u32>().ok())
        else {
            continue;
        };
        let comm =
            std::fs::read_to_string(format!("/proc/self/task/{tid}/comm")).unwrap_or_default();
        let harness = tid == pid || comm.starts_with(HARNESS_PREFIX);
        if let Some(ns) = task_cpu_ns(tid) {
            out.insert(tid, (harness, ns));
        }
    }
    out
}

/// CPU seconds the system under test used between two snapshots: every
/// non-harness thread's run-time delta (threads born in between count
/// from zero).
pub fn sut_cpu_s(before: &CpuSnapshot, after: &CpuSnapshot) -> f64 {
    let ns: u64 = after
        .iter()
        .filter(|(_, (harness, _))| !harness)
        .map(|(tid, (_, ns))| ns.saturating_sub(before.get(tid).map_or(0, |b| b.1)))
        .sum();
    ns as f64 / 1e9
}

fn status_kb(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1)?.parse().ok())
        })
        .unwrap_or(0)
}

extern "C" {
    /// glibc: returns free heap pages to the kernel.
    fn malloc_trim(pad: usize) -> i32;
}

/// Hands the allocator's free pages back to the kernel, so that what the
/// benchmark freed after generating a round's inputs does not sit in the
/// resident set while the system under test is measured.
pub fn release_free_memory() {
    // SAFETY: `malloc_trim` takes no pointers and only releases memory the
    // allocator already holds as free; it is safe to call at any time from
    // any thread (glibc serialises it on the arena locks).
    unsafe {
        malloc_trim(0);
    }
}

/// Resident set size now, in MB.
pub fn rss_mb() -> f64 {
    status_kb("VmRSS:") as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sut_cpu_is_the_non_harness_delta() {
        let before: CpuSnapshot = [(1, (true, 100)), (2, (false, 1_000)), (3, (true, 50))].into();
        // tid 4 is a SUT thread born inside the region
        let after: CpuSnapshot = [
            (1, (true, 9_000)),
            (2, (false, 3_000)),
            (3, (true, 7_000)),
            (4, (false, 500)),
        ]
        .into();
        assert_eq!(sut_cpu_s(&before, &after), 2_500.0 / 1e9);
    }

    #[test]
    fn snapshot_flags_named_harness_threads_and_main() {
        let (gate_tx, gate_rx) = std::sync::mpsc::channel::<()>();
        let (tid_tx, tid_rx) = std::sync::mpsc::channel::<String>();
        std::thread::scope(|s| {
            spawn_harness(s, "probe", move || {
                let link = std::fs::read_link("/proc/thread-self").expect("thread-self");
                tid_tx.send(link.to_string_lossy().into_owned()).unwrap();
                gate_rx.recv().unwrap();
            });
            let link = tid_rx.recv().unwrap();
            let tid: u32 = link.rsplit('/').next().unwrap().parse().unwrap();
            let snap = cpu_snapshot();
            assert_eq!(snap.get(&tid).map(|e| e.0), Some(true));
            assert!(snap.values().any(|e| !e.0) || snap.len() >= 2);
            gate_tx.send(()).unwrap();
        });
        release_free_memory();
        assert!(rss_mb() > 0.0);
    }
}
