//! Process and machine facts read from `/proc`, plus build provenance.

use std::path::Path;

/// Linux reports `/proc/<pid>/stat` CPU times in `USER_HZ` ticks, which
/// the kernel ABI fixes at 100 per second on every architecture.
const USER_HZ: u64 = 100;

/// User + system CPU time of the whole process (every thread, live or
/// exited), in nanoseconds, from `/proc/self/stat`.
pub fn process_cpu_nanos() -> Result<u64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("cannot read /proc/self/stat: {e}"))?;
    // The command name (field 2) may contain spaces; fields after its
    // closing parenthesis are space-separated, utime/stime are the 14th
    // and 15th fields overall (the 12th and 13th after the state field).
    let rest = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .ok_or("malformed /proc/self/stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<u64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .ok_or_else(|| format!("malformed /proc/self/stat field {i}"))
    };
    let ticks = tick(11)? + tick(12)?;
    Ok(ticks * (1_000_000_000 / USER_HZ))
}

/// Peak resident set size (`VmHWM`) in MiB, from `/proc/self/status`.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse::<u64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib as f64 / 1024.0)
}

/// Usable hardware threads.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The CPU model name from `/proc/cpuinfo`, or `unknown`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The git revision of the repository the benchmark was built from, read
/// from `.git` without running git; `unknown` outside a git checkout.
pub fn git_revision(repo_root: &Path) -> String {
    let git = repo_root.join(".git");
    let head = match std::fs::read_to_string(git.join("HEAD")) {
        Ok(head) => head.trim().to_string(),
        Err(_) => return "unknown (not a git checkout)".to_string(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| format!("unknown ({reference})"))
}

/// `rustc --version` of the compiler that built this binary.
pub fn rustc_version() -> &'static str {
    env!("COLLECTBENCH_RUSTC_VERSION")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_plausible_values() {
        // Burn 50 ms of CPU so the tick counter has something to show.
        let t = std::time::Instant::now();
        while t.elapsed() < std::time::Duration::from_millis(50) {
            std::hint::spin_loop();
        }
        assert!(process_cpu_nanos().unwrap() > 0);
        assert!(peak_rss_mib().unwrap() > 0.0);
        assert!(nproc() >= 1);
        assert!(!rustc_version().is_empty());
    }
}
