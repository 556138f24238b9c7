//! Process accounting read from outside the analyzer: `/proc` for a given
//! pid, `getrusage` for this process and its reaped children.

use std::path::Path;

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` as laid out on 64-bit Linux.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kb: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn sysconf(name: i32) -> i64;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    fn fork() -> i32;
    fn waitpid(pid: i32, status: *mut i32, options: i32) -> i32;
}

/// `cpu_set_t`: 1024 bits.
const CPU_SET_WORDS: usize = 16;

const RUSAGE_SELF: i32 = 0;
const RUSAGE_CHILDREN: i32 = -1;
const SC_CLK_TCK: i32 = 2;

/// CPU seconds (user + sys) and peak RSS in MB from one `getrusage` call.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    pub cpu_s: f64,
    pub maxrss_mb: f64,
}

fn rusage(who: i32) -> Usage {
    let mut ru = Rusage::default();
    // SAFETY: `ru` is a live, writable `struct rusage` with the 64-bit
    // Linux layout, and `who` is one of the two constants getrusage accepts.
    let rc = unsafe { getrusage(who, &mut ru) };
    assert_eq!(rc, 0, "getrusage({who}) failed");
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 / 1e6;
    Usage { cpu_s: secs(&ru.utime) + secs(&ru.stime), maxrss_mb: ru.maxrss_kb as f64 / 1024.0 }
}

/// This process.
pub fn self_usage() -> Usage {
    rusage(RUSAGE_SELF)
}

/// Every child this process has waited for (fleet workers, the daemon).
pub fn children_usage() -> Usage {
    rusage(RUSAGE_CHILDREN)
}

/// CPU seconds (user + sys) of a live process, from `/proc/<pid>/stat`.
pub fn proc_cpu_s(pid: u32) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: f64 = fields.get(11)?.parse::<f64>().ok()? + fields.get(12)?.parse::<f64>().ok()?;
    // SAFETY: sysconf only reads a configuration value.
    let hz = unsafe { sysconf(SC_CLK_TCK) };
    Some(ticks / hz.max(1) as f64)
}

/// A `/proc/<pid>/status` field in MB (`VmHWM`, `VmRSS`); `pid` None reads
/// this process.
pub fn status_mb(pid: Option<u32>, key: &str) -> Option<f64> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let line = status.lines().find(|l| l.starts_with(key) && l[key.len()..].starts_with(':'))?;
    let kb: f64 = line[key.len() + 1..].trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kb / 1024.0)
}

/// Resets this process's `VmHWM` to its current RSS, so a later read covers
/// only what happened since.
pub fn reset_peak_rss() {
    std::fs::write("/proc/self/clear_refs", "5")
        .expect("cannot reset VmHWM via /proc/self/clear_refs");
}

/// Pins the calling thread, and every thread it starts later, to the lowest
/// CPU it may run on, so a single-threaded analysis and the host-speed probe
/// run on the same vCPU (the reference host's vCPUs change speed
/// independently).
pub fn pin_to_one_cpu() {
    let mut mask = [0u64; CPU_SET_WORDS];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of `size` bytes, as the call expects.
    let rc = unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) };
    assert_eq!(rc, 0, "sched_getaffinity failed");
    let cpu = (0..CPU_SET_WORDS * 64)
        .find(|&c| mask[c / 64] & (1 << (c % 64)) != 0)
        .expect("no CPU in the affinity mask");
    let mut one = [0u64; CPU_SET_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of `size` bytes holding one CPU.
    let rc = unsafe { sched_setaffinity(0, size, one.as_ptr()) };
    assert_eq!(rc, 0, "sched_setaffinity failed");
}

/// Threads of this process.
fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task").map_or(0, |d| d.count())
}

/// Continues the program in a fresh child process, whose `RUSAGE_CHILDREN`
/// then covers only the processes started from here on. This process waits
/// for the child and exits with its status; only the child returns.
///
/// Waits first (up to 5 s) until this process has a single thread: threads
/// that ended their work may still be exiting, and `fork` copies only the
/// calling thread, so a lock held elsewhere would stay held in the child.
pub fn continue_in_child() {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while thread_count() != 1 {
        assert!(std::time::Instant::now() < deadline, "threads still running before fork");
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    use std::io::Write;
    std::io::stdout().flush().expect("cannot flush stdout");
    // SAFETY: the process has one thread, so the child inherits no lock
    // held by another thread.
    let pid = unsafe { fork() };
    match pid {
        -1 => panic!("fork failed: {}", std::io::Error::last_os_error()),
        0 => {}
        child => {
            let mut status = 0;
            // SAFETY: `status` is a writable int; `child` is our child.
            while unsafe { waitpid(child, &mut status, 0) } == -1 {
                let err = std::io::Error::last_os_error();
                assert_eq!(err.kind(), std::io::ErrorKind::Interrupted, "waitpid: {err}");
            }
            // WIFEXITED / WEXITSTATUS, else 128 + the terminating signal.
            let code =
                if status & 0x7f == 0 { (status >> 8) & 0xff } else { 128 + (status & 0x7f) };
            std::process::exit(code);
        }
    }
}

/// Total size of the regular files under `dir`, in MB.
pub fn dir_mb(dir: &Path) -> f64 {
    fn walk(p: &Path) -> u64 {
        let Ok(entries) = std::fs::read_dir(p) else { return 0 };
        entries
            .flatten()
            .map(|e| match e.file_type() {
                Ok(t) if t.is_dir() => walk(&e.path()),
                Ok(t) if t.is_file() => e.metadata().map_or(0, |m| m.len()),
                _ => 0,
            })
            .sum()
    }
    walk(dir) as f64 / (1024.0 * 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accounting_reads_are_positive() {
        assert!(status_mb(None, "VmHWM").unwrap() > 0.0);
        assert!(proc_cpu_s(std::process::id()).is_some());
        let burn: u64 = (0..20_000_000u64).fold(0, |a, x| a ^ x.wrapping_mul(31));
        std::hint::black_box(burn);
        assert!(self_usage().cpu_s > 0.0);
        assert!(self_usage().maxrss_mb > 0.0);
    }
}
