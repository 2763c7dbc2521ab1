//! Process measurements and small deterministic helpers: peak RSS,
//! `getrusage`, order statistics, a seeded shuffle and an FNV digest.

use std::time::Duration;

/// Peak resident set size (`VmHWM`) of this process, in MB (10^6 bytes).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// CPU time and page faults of this process so far.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    pub user_s: f64,
    pub sys_s: f64,
    pub minor_faults: u64,
}

impl Usage {
    pub fn cpu_s(&self) -> f64 {
        self.user_s + self.sys_s
    }
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` as laid out by Linux on 64-bit targets.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    ixrss: i64,
    idrss: i64,
    isrss: i64,
    minflt: i64,
    majflt: i64,
    nswap: i64,
    inblock: i64,
    oublock: i64,
    msgsnd: i64,
    msgrcv: i64,
    nsignals: i64,
    nvcsw: i64,
    nivcsw: i64,
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn clock_gettime(clock: i32, now: *mut Timespec) -> i32;
}

const RUSAGE_SELF: i32 = 0;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU time the calling thread has run, in seconds. Unlike wall time it
/// leaves out time the thread was runnable but not running, such as time a
/// hypervisor gives the CPU to another guest.
pub fn thread_cpu_s() -> f64 {
    let mut now = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `now` is a writable, properly aligned `struct timespec`, the
    // only memory `clock_gettime` writes.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut now) };
    if rc != 0 {
        return 0.0;
    }
    now.sec as f64 + now.nsec as f64 * 1e-9
}

/// `getrusage(RUSAGE_SELF)`, or zeros if the call fails.
pub fn usage() -> Usage {
    let mut raw = std::mem::MaybeUninit::<Rusage>::zeroed();
    // SAFETY: `raw` is a writable, properly aligned `struct rusage` for the
    // 64-bit Linux ABI, and `getrusage` writes at most that struct.
    let rc = unsafe { getrusage(RUSAGE_SELF, raw.as_mut_ptr()) };
    if rc != 0 {
        return Usage::default();
    }
    // SAFETY: the call succeeded, so the kernel initialised the struct (and
    // it was zeroed beforehand in any case).
    let raw = unsafe { raw.assume_init() };
    let seconds = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    Usage {
        user_s: seconds(&raw.utime),
        sys_s: seconds(&raw.stime),
        minor_faults: raw.minflt.max(0) as u64,
    }
}

/// The `q`-quantile (0..=1) of `values` by linear interpolation between
/// closest ranks. `NaN` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let position = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let low = position.floor() as usize;
    let high = position.ceil() as usize;
    sorted[low] + (sorted[high] - sorted[low]) * (position - low as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// SplitMix64: the benchmark's only source of randomness, so every order it
/// generates is a pure function of the workload seed.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x005e_ed0f_be4c_4a11)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// FNV-1a 64-bit digest over a stream of typed fields.
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn u64(&mut self, value: u64) -> &mut Self {
        self.bytes(&value.to_le_bytes())
    }

    pub fn f64(&mut self, value: f64) -> &mut Self {
        self.u64(value.to_bits())
    }

    pub fn str(&mut self, value: &str) -> &mut Self {
        self.u64(value.len() as u64).bytes(value.as_bytes())
    }

    pub fn opt_u64(&mut self, value: Option<u64>) -> &mut Self {
        match value {
            Some(v) => self.u64(1).u64(v),
            None => self.u64(0),
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Total bytes of the regular files directly under `dir` whose names start
/// with `prefix` and end with `.bin`.
pub fn artifact_bytes(dir: &std::path::Path, prefix: &str) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .filter(|entry| {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            name.starts_with(prefix) && name.ends_with(".bin")
        })
        .filter_map(|entry| entry.metadata().ok())
        .filter(|meta| meta.is_file())
        .map(|meta| meta.len())
        .sum()
}
