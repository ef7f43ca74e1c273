//! Host and process probes: the host stamp printed with every run (so a
//! drifting run can be explained instead of re-run blindly), process CPU
//! time from the process CPU clock, and resident memory from procfs.

use std::time::Instant;

/// User plus system CPU time of this process, all threads (including
/// exited ones), in seconds, from the nanosecond process CPU clock.
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: std::os::raw::c_long,
        tv_nsec: std::os::raw::c_long,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    if unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) } != 0 {
        return 0.0;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// Resident set size of this process in MiB.
pub fn rss_mb() -> f64 {
    anns_engine::current_rss_bytes() as f64 / (1024.0 * 1024.0)
}

/// Aggregate CPU jiffies from the first line of `/proc/stat`.
#[derive(Clone, Copy, Default)]
struct CpuJiffies {
    total: u64,
    steal: u64,
}

fn cpu_jiffies() -> CpuJiffies {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return CpuJiffies::default();
    };
    let Some(line) = stat.lines().find(|l| l.starts_with("cpu ")) else {
        return CpuJiffies::default();
    };
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already counted in user, so only the first eight sum.
    let values: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|v| v.parse().ok())
        .collect();
    CpuJiffies {
        total: values.iter().sum(),
        steal: values.get(7).copied().unwrap_or(0),
    }
}

fn loadavg() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_else(|_| "unknown".to_string())
}

/// Whether the CPU offers `avx2` and `popcnt`: the features the Hamming
/// kernels dispatch on at run time.
fn kernel_features() -> (bool, bool) {
    #[cfg(target_arch = "x86_64")]
    {
        (
            std::arch::is_x86_feature_detected!("avx2"),
            std::arch::is_x86_feature_detected!("popcnt"),
        )
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        (false, false)
    }
}

/// The host stamp: taken at the start of a run, closed at its end.
pub struct HostStamp {
    started: Instant,
    load_start: String,
    cpu_start: CpuJiffies,
}

impl HostStamp {
    pub fn start() -> Self {
        HostStamp {
            started: Instant::now(),
            load_start: loadavg(),
            cpu_start: cpu_jiffies(),
        }
    }

    /// One line describing the host and how contended it was over the run.
    pub fn finish(&self) -> String {
        let end = cpu_jiffies();
        let total = end.total.saturating_sub(self.cpu_start.total);
        let steal = end.steal.saturating_sub(self.cpu_start.steal);
        let steal_frac = if total == 0 {
            0.0
        } else {
            steal as f64 / total as f64
        };
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let (avx2, popcnt) = kernel_features();
        format!(
            "nproc={nproc} avx2={avx2} popcnt={popcnt} loadavg_start=\"{}\" loadavg_end=\"{}\" \
             steal_frac={steal_frac:.4} run_s={:.2}",
            self.load_start,
            loadavg(),
            self.started.elapsed().as_secs_f64()
        )
    }
}
