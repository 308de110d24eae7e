//! Host clocks and process memory, read without any dependency.
//!
//! Every gated time in this benchmark is **CPU time**, not wall clock:
//! on a shared 2-core box a busy neighbour stretches wall time by 30 %
//! while the CPU time of the same fixed work moves by well under 1 %
//! (README, "Noise measurements"). `/proc/thread-self/schedstat` reads 0
//! in the sandbox, so the clock comes from `clock_gettime(2)` through a
//! plain `extern "C"` declaration (std already links libc). Everything
//! gated runs on one thread, so thread time is also process time.

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clk_id: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn read_ns(clk_id: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, properly aligned `struct timespec` (two
    // 64-bit fields on every 64-bit Linux target this crate builds for)
    // and `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(clk_id, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clk_id}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU nanoseconds consumed by the calling thread.
pub fn thread_cpu_ns() -> u64 {
    read_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// Peak resident set size (`VmHWM`) of this process in KiB.
pub fn peak_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status reads");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clocks_advance_with_work() {
        let t0 = thread_cpu_ns();
        let mut x = 1u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(thread_cpu_ns() > t0);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_kib() > 0);
    }
}
