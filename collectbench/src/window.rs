//! Medians over windows and sample groups of the timed section.
//!
//! The timed section is cut into one-second windows.  A sampler thread
//! reads the process CPU clock and the count of completed reports at
//! every window boundary, and rates and CPU cost are computed per window.
//! Latency samples are cut, in completion order, into consecutive groups
//! of equal size, and each percentile is computed exactly from each
//! group's raw samples.  Every figure is the median over windows or
//! groups, so a transient slowdown of a shared machine (a neighbour's
//! burst, a migrated thread) moves one window, not the reported figure.

use crate::stats::{nearest, tail};
use crate::Ctx;
use std::sync::atomic::{AtomicU64, Ordering};

/// Length of one rate window.
const WINDOW_NS: u64 = 1_000_000_000;
/// Least CPU time a span needs before its CPU cost is reported.
const MIN_CPU_SPAN_NS: u64 = 1_000_000_000;

/// The process state at one window boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Boundary {
    /// When it was read.
    pub at: u64,
    /// Process CPU time so far.
    pub cpu_ns: u64,
    /// Reports completed so far.
    pub reports: u64,
}

/// Reads one boundary now.
pub fn boundary(ctx: &Ctx, done: &AtomicU64) -> Result<Boundary, String> {
    Ok(Boundary {
        at: ctx.now(),
        cpu_ns: crate::sys::process_cpu_nanos()?,
        reports: done.load(Ordering::Relaxed),
    })
}

/// Reads the boundaries at `start + i × WINDOW_NS` for every window that
/// starts inside the timed section; the caller appends the closing
/// boundary when the timed section ends.
pub fn sample(
    ctx: &Ctx,
    start: u64,
    span_ns: u64,
    done: &AtomicU64,
) -> Result<Vec<Boundary>, String> {
    let n = span_ns.div_ceil(WINDOW_NS).max(1);
    let mut out = Vec::with_capacity(n as usize + 1);
    for i in 0..n {
        let at = start + i * WINDOW_NS;
        let now = ctx.now();
        if now < at {
            std::thread::sleep(std::time::Duration::from_nanos(at - now));
        }
        out.push(boundary(ctx, done)?);
    }
    Ok(out)
}

/// Percentile `p` (ms) of each consecutive group of `group` samples, in
/// completion order; tail percentiles only where a group supports them.
/// With fewer samples than one group, the whole sample is one group.
pub fn grouped_percentile_ms(
    samples: &[(u64, u64)],
    group: usize,
    p: f64,
    is_tail: bool,
) -> Vec<f64> {
    let mut ordered = samples.to_vec();
    ordered.sort_unstable();
    let groups: Vec<&[(u64, u64)]> = if ordered.len() < group {
        vec![&ordered[..]]
    } else {
        ordered.chunks_exact(group).collect()
    };
    groups
        .into_iter()
        .filter_map(|g| {
            let mut ns: Vec<u64> = g.iter().map(|&(_, ns)| ns).collect();
            ns.sort_unstable();
            let v = if is_tail {
                tail(&ns, p)
            } else {
                nearest(&ns, p)
            };
            v.map(|ns| ns as f64 / 1e6)
        })
        .collect()
}

/// Per-window figures of one timed section.
#[derive(Debug, Clone, Copy)]
pub struct Windows<'a> {
    bounds: &'a [Boundary],
}

impl<'a> Windows<'a> {
    /// Windows between consecutive boundaries.
    pub fn new(bounds: &'a [Boundary]) -> Self {
        Windows { bounds }
    }

    fn pairs(&self) -> impl Iterator<Item = (&Boundary, &Boundary)> {
        self.bounds.iter().zip(self.bounds.iter().skip(1))
    }

    /// Reports completed per second, per window.
    pub fn rates(&self) -> Vec<f64> {
        self.pairs()
            .filter(|(a, b)| b.at > a.at)
            .map(|(a, b)| (b.reports - a.reports) as f64 / ((b.at - a.at) as f64 / 1e9))
            .collect()
    }

    /// Process CPU µs per completed report over consecutive windows
    /// merged until each span used at least [`MIN_CPU_SPAN_NS`] of CPU
    /// (the clock ticks every 10 ms, so shorter spans cannot resolve
    /// their cost); with less CPU than that in the whole section, the
    /// whole section is one span.
    pub fn cpu_us_per_report(&self) -> Vec<f64> {
        let cost = |a: &Boundary, b: &Boundary| {
            b.cpu_ns.saturating_sub(a.cpu_ns) as f64 / 1e3 / (b.reports - a.reports).max(1) as f64
        };
        let mut out = Vec::new();
        let Some(mut from) = self.bounds.first() else {
            return out;
        };
        for b in &self.bounds[1..] {
            if b.cpu_ns.saturating_sub(from.cpu_ns) >= MIN_CPU_SPAN_NS && b.reports > from.reports {
                out.push(cost(from, b));
                from = b;
            }
        }
        if out.is_empty() {
            if let (Some(a), Some(b)) = (self.bounds.first(), self.bounds.last()) {
                out.push(cost(a, b));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(at: u64, cpu_ns: u64, reports: u64) -> Boundary {
        Boundary {
            at,
            cpu_ns,
            reports,
        }
    }

    #[test]
    fn per_window_rates_and_costs() {
        let bounds = [
            b(0, 0, 0),
            b(1_000_000_000, 2_000_000_000, 1_000),
            b(2_000_000_000, 3_000_000_000, 3_000),
        ];
        let w = Windows::new(&bounds);
        assert_eq!(w.rates(), vec![1_000.0, 2_000.0]);
        // Each window used at least a second of CPU.
        assert_eq!(w.cpu_us_per_report(), vec![2_000.0, 500.0]);
        // Windows are merged until a span used a second of CPU.
        let light = [
            b(0, 0, 0),
            b(1, 600_000_000, 100),
            b(2, 1_000_000_000, 200),
            b(3, 1_500_000_000, 300),
        ];
        assert_eq!(Windows::new(&light).cpu_us_per_report(), vec![5_000.0]);
        // Less than a second in total: the whole section is one span.
        let idle = [b(0, 0, 0), b(1, 10_000_000, 10), b(2, 20_000_000, 20)];
        assert_eq!(Windows::new(&idle).cpu_us_per_report(), vec![1_000.0]);
    }

    #[test]
    fn latency_groups_follow_completion_order() {
        // Completed at t = 0..6 with latencies 6..0 ms: groups of three in
        // completion order are {6,5,4} and {3,2,1}; the 7th is dropped.
        let samples: Vec<(u64, u64)> = (0..7).map(|t| (t, (6 - t) * 1_000_000)).collect();
        assert_eq!(
            grouped_percentile_ms(&samples, 3, 50.0, false),
            vec![5.0, 2.0]
        );
        // Too few samples in any group for a supported p99.
        assert!(grouped_percentile_ms(&samples, 3, 99.0, true).is_empty());
        // Fewer samples than a group: the whole sample is one group.
        assert_eq!(
            grouped_percentile_ms(&samples[..2], 3, 50.0, false),
            vec![5.0]
        );
        // A group of 2000 supports its p99 (20 samples beyond it).
        let many: Vec<(u64, u64)> = (0..4000).map(|t| (t, t % 2000)).collect();
        let p99_ns: Vec<f64> = grouped_percentile_ms(&many, 2000, 99.0, true)
            .iter()
            .map(|ms| (ms * 1e6).round())
            .collect();
        assert_eq!(p99_ns, vec![1979.0, 1979.0]);
    }
}
