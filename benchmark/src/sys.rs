//! What the benchmark reads from the operating system: CPU time of this
//! process, its peak resident set, the core count, and the filesystem a
//! scratch directory sits on.

use std::path::Path;

/// `struct timeval` on 64-bit Linux.
#[repr(C)]
#[derive(Clone, Copy, Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two `timeval`s and fourteen `long`s.
#[repr(C)]
#[derive(Clone, Copy, Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// User + system CPU seconds this process (all threads, exited ones
/// included) has consumed.
pub fn cpu_seconds() -> f64 {
    let mut ru = Rusage::default();
    // SAFETY: `ru` is a live, writable, correctly sized and aligned
    // `struct rusage` for this target (layout above), and
    // `getrusage(RUSAGE_SELF, ..)` only writes into it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    let secs = |t: Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    secs(ru.utime) + secs(ru.stime)
}

/// Peak resident set of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Start a new high-water interval: after this, [`peak_rss_mb`] reports
/// the peak since now (writing `5` to `/proc/self/clear_refs` resets
/// `VmHWM` to the current resident set). Where the kernel refuses, the
/// peak simply stays that of the whole process.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Cores the process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(usize::from)
        .unwrap_or(1)
}

/// Filesystem type of the mount `dir` lives on (`ext4`, `tmpfs`, ...),
/// from `/proc/self/mounts`: the longest mount point that prefixes the
/// canonical path wins.
pub fn fs_type(dir: &Path) -> String {
    let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    fs_type_from(&mounts, &dir)
}

fn fs_type_from(mounts: &str, dir: &Path) -> String {
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_dev, point, kind) = (f.next()?, f.next()?, f.next()?);
            // Mount points escape space, tab, newline and backslash in octal.
            let point = point
                .replace("\\040", " ")
                .replace("\\011", "\t")
                .replace("\\012", "\n")
                .replace("\\134", "\\");
            dir.starts_with(&point).then_some((point.len(), kind))
        })
        // `max_by_key` keeps the last of equal keys: a later mount over
        // the same point shadows the earlier one.
        .max_by_key(|&(len, _)| len)
        .map(|(_, kind)| kind.to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Filesystems that live in memory: fsync costs nothing there, so every
/// `store` and `serve.queue` number taken on one would be fiction.
pub fn is_memory_fs(kind: &str) -> bool {
    matches!(kind, "tmpfs" | "ramfs")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_and_rss_is_positive() {
        let a = cpu_seconds();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        assert!(cpu_seconds() >= a);
        assert!(peak_rss_mb() > 0.0);
        assert!(nproc() >= 1);
    }

    #[test]
    fn longest_mount_prefix_wins() {
        let mounts = "/dev/vda / ext4 rw 0 0\n\
                      tmpfs /dev/shm tmpfs rw 0 0\n\
                      tmpfs /my\\040dir tmpfs rw 0 0\n\
                      /dev/vdb /data xfs rw 0 0\n";
        assert_eq!(fs_type_from(mounts, Path::new("/root/repo/out")), "ext4");
        assert_eq!(fs_type_from(mounts, Path::new("/dev/shm/x")), "tmpfs");
        assert_eq!(fs_type_from(mounts, Path::new("/data/a/b")), "xfs");
        assert_eq!(fs_type_from(mounts, Path::new("/my dir/a")), "tmpfs");
        // `/database` is not under `/data`.
        assert_eq!(fs_type_from(mounts, Path::new("/database")), "ext4");
        assert!(is_memory_fs("tmpfs") && !is_memory_fs("ext4"));
    }
}
