//! What the operating system says about this process and this host.

use std::path::Path;
use std::sync::OnceLock;
use std::time::Instant;

/// Resource usage of the whole process, dead threads included.
#[derive(Clone, Copy, Debug, Default)]
pub struct Usage {
    /// User + system CPU time, µs.
    pub cpu_us: u64,
    /// Voluntary + involuntary context switches.
    pub ctx_switches: u64,
    /// Host-wide steal time (the hypervisor ran someone else while a vCPU
    /// of this guest was runnable), 10 ms ticks, all CPUs.
    pub steal_ticks: u64,
}

/// `struct rusage` as Linux lays it out on 64-bit targets: two `timeval`s
/// followed by fourteen `long`s.
#[repr(C)]
#[derive(Default)]
struct RawUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    unused: [i64; 12],
    nvcsw: i64,
    nivcsw: i64,
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RawUsage) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// A CPU set as the kernel takes it: 1,024 bits.
type CpuMask = [u64; 16];

fn current_mask() -> Option<CpuMask> {
    let mut mask = [0u64; 16];
    // SAFETY: `mask` is a writable 128-byte CPU set that outlives the call
    // and whose size is passed along; pid 0 is the calling thread.
    (unsafe { sched_getaffinity(0, 128, mask.as_mut_ptr()) } == 0).then_some(mask)
}

fn set_mask(mask: &CpuMask) {
    // SAFETY: `mask` is a readable 128-byte CPU set that outlives the call;
    // pid 0 is the calling thread. A refusal leaves the thread where it was.
    unsafe { sched_setaffinity(0, 128, mask.as_ptr()) };
}

/// The CPUs this process may run on, read once, before anything is pinned.
fn cpus() -> &'static [usize] {
    static CPUS: OnceLock<Vec<usize>> = OnceLock::new();
    CPUS.get_or_init(|| {
        let mask = current_mask().unwrap_or([0; 16]);
        (0..1024)
            .filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
            .collect()
    })
}

/// A change of the calling thread's CPU affinity, undone on drop.
///
/// The generator and the program get disjoint CPUs: lane `n` runs on the
/// `n`-th CPU, and every thread the program spawns — reactors, pool
/// workers; a new thread inherits its creator's affinity — on the CPUs the
/// lanes leave over. Left to the scheduler, a lane and the worker answering
/// it drift between sharing a CPU (a cheap hand-off) and waking each other
/// across CPUs (an inter-processor interrupt into an idle vCPU), and one
/// unchanged binary read 215 µs or 350 µs `closed_p50_us` from one second
/// to the next. Partitioned, every request crosses CPUs, every time.
pub struct Affinity {
    saved: Option<CpuMask>,
}

impl Affinity {
    fn restrict_to(chosen: &[usize]) -> Affinity {
        let saved = current_mask();
        if saved.is_some() && !chosen.is_empty() {
            let mut mask = [0u64; 16];
            for cpu in chosen {
                mask[cpu / 64] |= 1 << (cpu % 64);
            }
            set_mask(&mask);
        }
        Affinity { saved }
    }

    /// Pin the calling thread to the CPU of generator lane `n`.
    pub fn lane(n: usize) -> Affinity {
        let cpus = cpus();
        Affinity::restrict_to(if cpus.is_empty() { cpus } else { &cpus[n % cpus.len()..][..1] })
    }

    /// Restrict the calling thread — and so every thread it spawns until
    /// this is dropped — to the CPUs the generator lanes leave over; to all
    /// of them on a single-CPU host.
    pub fn program() -> Affinity {
        let cpus = cpus();
        Affinity::restrict_to(if lanes() < cpus.len() { &cpus[lanes()..] } else { cpus })
    }
}

impl Drop for Affinity {
    fn drop(&mut self) {
        if let Some(saved) = &self.saved {
            set_mask(saved);
        }
    }
}

/// `getrusage(RUSAGE_SELF)`. `/proc/self/stat` would give the same CPU
/// time in 10 ms ticks; this has µs resolution and also carries the
/// context-switch totals of threads that have already exited.
pub fn usage() -> Usage {
    let mut raw = RawUsage::default();
    // SAFETY: `raw` is a valid, writable `struct rusage` (layout above,
    // 144 bytes on 64-bit Linux) that outlives the call; RUSAGE_SELF is 0.
    let rc = unsafe { getrusage(0, &mut raw) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    let micros = |tv: [i64; 2]| tv[0] as u64 * 1_000_000 + tv[1] as u64;
    Usage {
        cpu_us: micros(raw.utime) + micros(raw.stime),
        ctx_switches: (raw.nvcsw + raw.nivcsw) as u64,
        steal_ticks: steal_ticks(),
    }
}

/// The `steal` column of the `cpu` line of `/proc/stat`; 0 where the
/// platform does not report it.
fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| stat.lines().next()?.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0)
}

/// The number after `key` in `/proc/self/status`, 0 if it is not there.
fn status_field(key: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with(key))?;
            line.split_whitespace().nth(1)?.parse().ok()
        })
        .unwrap_or(0)
}

/// Live threads of this process.
pub fn threads() -> u64 {
    status_field("Threads:")
}

/// Peak resident set of this program, KiB. `ru_maxrss` of [`usage`] will
/// not do: it survives `exec`, so under `cargo run` it reads cargo's peak.
pub fn peak_rss_kb() -> u64 {
    status_field("VmHWM:")
}

/// Hardware threads this process may use.
pub fn nproc() -> usize {
    cpus().len().max(1)
}

/// Generator lanes: half the hardware threads, the other half is the
/// program's.
pub fn lanes() -> usize {
    (nproc() / 2).max(1)
}

/// The filesystem type under `path`: the longest mount point in
/// `/proc/self/mountinfo` that prefixes it.
pub fn fs_type(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".into();
    };
    let mounts = std::fs::read_to_string("/proc/self/mountinfo").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            // "id parent maj:min root mount-point options … - fstype source …"
            let (head, tail) = line.split_once(" - ")?;
            let mount_point = head.split(' ').nth(4)?;
            let fs = tail.split(' ').next()?;
            path.starts_with(mount_point)
                .then(|| (mount_point.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

/// A fixed 2M-step xorshift loop: how fast this host ran just now, µs.
pub fn calibrate() -> f64 {
    let start = Instant::now();
    let mut x = std::hint::black_box(0x2545_F491_4F6C_DD1Du64);
    for _ in 0..2_000_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    start.elapsed().as_secs_f64() * 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_advances_with_work_and_agrees_with_proc() {
        let before = usage();
        calibrate();
        let after = usage();
        assert!(after.cpu_us > before.cpu_us);
        // utime + stime of /proc/self/stat (fields 14 and 15, 10 ms ticks)
        // are the same clock — a layout mistake in `RawUsage` breaks this.
        let stat = std::fs::read_to_string("/proc/self/stat").unwrap();
        let fields: Vec<&str> = stat[stat.rfind(')').unwrap() + 2..].split(' ').collect();
        let ticks: u64 = fields[11].parse::<u64>().unwrap() + fields[12].parse::<u64>().unwrap();
        let cpu_us = usage().cpu_us;
        assert!(cpu_us.abs_diff(ticks * 10_000) <= 30_000, "{cpu_us} us vs {ticks} ticks");
        assert!(peak_rss_kb() > 0);
        assert!(threads() >= 1);
    }

    #[test]
    fn fs_type_names_the_mount_of_the_working_directory() {
        assert_ne!(fs_type(Path::new(".")), "unknown");
    }
}
