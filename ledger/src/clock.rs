//! The host clock: process CPU time and peak resident memory, read from
//! `/proc`.
//!
//! Host metrics use CPU time, never wall time: on a shared box wall-clock
//! moves by tens of percent with the neighbours' load while the CPU time a
//! single-threaded process is charged repeats within a couple of percent.
//! `/proc/thread-self/schedstat` advances in scheduler ticks (~4 ms), which is
//! noise on the multi-second windows it times here; the micro-kernels use
//! `std::time::Instant` instead (see `kernels`).

use std::time::Instant;

/// Parses the first field of `/proc/<pid>/schedstat`: nanoseconds this task
/// has spent on a CPU.
pub fn parse_schedstat(text: &str) -> Option<u64> {
    text.split_whitespace().next()?.parse().ok()
}

/// Parses the `VmHWM` line of `/proc/<pid>/status` into kilobytes.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let kb = fields.next()?.parse().ok()?;
    (fields.next() == Some("kB")).then_some(kb)
}

/// A monotone CPU-seconds reading for the calling thread (the ledger does
/// all its work on one).
///
/// Falls back to wall-clock where `/proc/thread-self/schedstat` does not exist, so
/// the ledger still runs off Linux; the numbers are then only as steady as
/// the machine is idle.
#[derive(Debug)]
pub struct CpuClock {
    wall_origin: Instant,
}

impl CpuClock {
    pub fn new() -> Self {
        CpuClock {
            wall_origin: Instant::now(),
        }
    }

    /// CPU-seconds consumed so far (wall-seconds since `new` on the
    /// fallback path). Only differences are meaningful.
    pub fn now_s(&self) -> f64 {
        match std::fs::read_to_string("/proc/thread-self/schedstat")
            .ok()
            .as_deref()
            .and_then(parse_schedstat)
        {
            Some(ns) => ns as f64 / 1e9,
            None => self.wall_origin.elapsed().as_secs_f64(),
        }
    }
}

/// Peak resident set size of this process in megabytes (`VmHWM`), or `None`
/// where `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kb(&status).map(|kb| kb as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedstat_first_field_is_cpu_ns() {
        assert_eq!(parse_schedstat("964967 50990 3\n"), Some(964_967));
        assert_eq!(parse_schedstat(""), None);
        assert_eq!(parse_schedstat("x 1 2"), None);
    }

    #[test]
    fn vm_hwm_line_is_found_among_others() {
        let status = "Name:\tledger\nVmPeak:\t  9000 kB\nVmHWM:\t    1800 kB\nVmRSS:\t 1700 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(1800));
        assert_eq!(parse_vm_hwm_kb("VmRSS:\t 1700 kB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t 12 MB\n"), None);
    }

    #[test]
    fn cpu_clock_advances_with_work() {
        let clock = CpuClock::new();
        let t0 = clock.now_s();
        let mut x = 1u64;
        // Burn well over one scheduler tick.
        let started = Instant::now();
        while started.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        let spent = clock.now_s() - t0;
        assert!(spent > 0.02 && spent < 1.0, "spent {spent}");
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mb().expect("VmHWM") > 0.5);
        }
    }
}
