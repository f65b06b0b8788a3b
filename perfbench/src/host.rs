//! Host signature and process counters.
//!
//! Every result names the machine it was measured on, so figures from
//! different hosts are visibly not comparable. Process counters come from
//! `/proc` (Linux).

use std::time::Instant;
use tdc_tensor::matmul::gemm_blocked_into;

/// Fixed single-thread GEMM calibration shape (M = K = N).
const CALIBRATION_DIM: usize = 128;
const CALIBRATION_REPS: usize = 31;

/// What identifies the measuring host and build.
#[derive(Debug, Clone)]
pub struct HostSignature {
    /// CPU model name.
    pub cpu: String,
    /// Logical cores available to the process.
    pub nproc: usize,
    /// Compiler that built the benchmark.
    pub rustc: &'static str,
    /// `target-cpu` the benchmark was built for.
    pub target_cpu: &'static str,
    /// Median time of one 128×128×128 `gemm_blocked_into`, µs.
    pub gemm_calibration_us: f64,
}

impl HostSignature {
    /// Read the signature, running the calibration.
    pub fn measure() -> HostSignature {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        HostSignature {
            cpu,
            nproc: nproc(),
            rustc: env!("PERFBENCH_RUSTC"),
            target_cpu: env!("PERFBENCH_TARGET_CPU"),
            gemm_calibration_us: gemm_calibration_us(),
        }
    }
}

/// Logical cores available to the process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn gemm_calibration_us() -> f64 {
    let n = CALIBRATION_DIM;
    let a: Vec<f32> = (0..n * n)
        .map(|i| ((i % 17) as f32 - 8.0) * 0.125)
        .collect();
    let b: Vec<f32> = (0..n * n).map(|i| ((i % 13) as f32 - 6.0) * 0.25).collect();
    let mut c = vec![0.0f32; n * n];
    let mut times = Vec::with_capacity(CALIBRATION_REPS);
    for _ in 0..CALIBRATION_REPS {
        let start = Instant::now();
        gemm_blocked_into(&a, &b, &mut c, n, n, n);
        std::hint::black_box(&mut c);
        times.push(start.elapsed().as_secs_f64() * 1e6);
    }
    crate::stats::median(&times)
}

/// Peak resident set size of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU seconds used so far by this process and its waited-for children
/// (`utime + stime + cutime + cstime` of `/proc/self/stat`, at the usual
/// 100 ticks per second).
pub fn cpu_seconds() -> f64 {
    const TICKS_PER_SECOND: f64 = 100.0;
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name, which may hold spaces.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime, stime, cutime, cstime are fields 14..=17 of the full line, i.e.
    // 11..=14 after the state field at index 0 here.
    fields
        .get(11..15)
        .map(|f| f.iter().filter_map(|v| v.parse::<f64>().ok()).sum::<f64>())
        .unwrap_or(0.0)
        / TICKS_PER_SECOND
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_counters_are_readable() {
        assert!(peak_rss_mb() > 0.0);
        let mut x = 0u64;
        let start = Instant::now();
        while start.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(cpu_seconds() > 0.0);
        assert!(nproc() >= 1);
    }
}
