//! The host side of a measurement: fixed reference work that tracks how
//! fast this machine runs right now, and CPU pinning.
//!
//! On a shared host a CPU of this machine switches between speed modes
//! about 1.4× apart for seconds at a time, and the hypervisor steals it
//! in bursts. A request's wall time moves with both, so a run's raw
//! latency says as much about the host as about the program. The timed
//! phase therefore runs a short, fixed [`ref_unit`] after every request,
//! on the same CPU as the server, and divides latencies by the host's
//! *speed factor*: the mean time of a unit over [`REF_UNIT_US`]. A factor
//! of 1 is the reference host; 1.4 is a host running 1.4× slower. The
//! mean, not the median, is used so that a steal burst stretches the
//! factor as it stretches the requests around it. Boots are kernel work
//! more than computation, so they are set against a process spawn
//! ([`spawn_ms`]) instead.

/// The time of one [`ref_unit`] on the reference host, in µs: about its
/// typical time on the 2-vCPU Xeon host the benchmark was developed on,
/// so normalized figures read close to that host's wall times.
pub const REF_UNIT_US: f64 = 24.0;

/// The time to spawn and reap a process that exits at once
/// ([`spawn_ms`]) on the reference host, in ms: about its typical time on
/// the development host.
pub const SPAWN_REF_MS: f64 = 1.1;

/// The harness's first argument that makes it exit at once.
pub const NOOP_ARG: &str = "--noop";

/// A fixed std-only computation of about 24 µs in the shape of the
/// program's work: multi-limb multiply and remainder in `u128` with small
/// allocations (exact costing), then formatting and parsing a short
/// instance-like text (request parsing). It calls no code of the
/// program, so a faster or slower program does not move it.
pub fn ref_unit(seed: u64) -> u64 {
    let mut x = seed | 1;
    let mut acc = Vec::with_capacity(16);
    for i in 0..240u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let mut limbs: Vec<u64> = (0..8).map(|j| x.rotate_left(j * 8) | 1).collect();
        let mut carry = 0u128;
        for l in limbs.iter_mut() {
            let t = (*l as u128) * ((x | 3) as u128) + carry;
            *l = t as u64;
            carry = t >> 64;
        }
        let d = (x >> 3) | 1;
        let r = limbs
            .iter()
            .rev()
            .fold(0u128, |r, &l| ((r << 64) | l as u128) % d as u128);
        acc.push(r as u64 ^ i);
        if acc.len() == 16 {
            x ^= acc.iter().fold(0, |a, b| a ^ b);
            acc.clear();
        }
    }
    // Text in the shape of an instance: split, parse, collect.
    let mut text = String::with_capacity(512);
    for i in 0..24u64 {
        use std::fmt::Write as _;
        let _ = writeln!(
            text,
            "sel {} {} {}/{}",
            i,
            (x >> (i % 32)) & 31,
            i + 1,
            (x % 997) + 2
        );
    }
    let mut nums: Vec<u64> = Vec::new();
    for _ in 0..3 {
        for line in text.lines() {
            for tok in line.split_whitespace().skip(1) {
                for part in tok.split('/') {
                    nums.push(part.parse().unwrap_or(0));
                }
            }
        }
    }
    x ^= nums
        .iter()
        .fold(0u64, |a, b| a.wrapping_mul(31).wrapping_add(*b));
    std::hint::black_box(x)
}

/// The speed factor of reference units that took `unit_us` µs each.
pub fn factor_of(unit_us: &[f64]) -> f64 {
    unit_us.iter().sum::<f64>() / unit_us.len() as f64 / REF_UNIT_US
}

/// How long spawning this harness with [`NOOP_ARG`] and reaping it
/// takes right now, in ms. A server's boot is mostly the same kernel
/// work (fork, exec, loading, page faults), which the host slows down far
/// more than plain computation: raw boot times doubled between runs
/// minutes apart while [`ref_unit`] moved by a few percent.
pub fn spawn_ms() -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let t0 = std::time::Instant::now();
    let status = std::process::Command::new(&exe)
        .arg(NOOP_ARG)
        .stdin(std::process::Stdio::null())
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    match status.success() {
        true => Ok(ms),
        false => Err(format!("{} {NOOP_ARG}: {status}", exe.display())),
    }
}

/// A fixed std-only reference computation (xorshift into a 512 KiB
/// table), timed as the median of five repetitions: the host probe
/// taken before and after a run.
pub fn ref_ms() -> f64 {
    let mut reps: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = std::time::Instant::now();
            let mut table = vec![0u64; 1 << 16];
            let mut x = 0x9E37_79B9_7F4A_7C15u64;
            for _ in 0..(4 << 20) {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let j = (x as usize) & 0xFFFF;
                table[j] = table[j].wrapping_add(x);
            }
            std::hint::black_box(&table);
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    reps.sort_by(f64::total_cmp);
    reps[2]
}

pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|r| r.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// `cpu_set_t` as glibc and the kernel lay it out: 1024 bits.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// The highest-numbered CPU this process may run on.
pub fn last_allowed_cpu() -> Result<usize, String> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a valid, writable cpu_set_t of the size passed.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    (0..1024)
        .rev()
        .find(|&c| set[c / 64] >> (c % 64) & 1 == 1)
        .ok_or_else(|| "no CPU allowed".into())
}

/// Pins the calling thread and every thread of process `pid` to `cpu`.
pub fn pin(pid: u32, cpu: usize) -> Result<(), String> {
    let mut set: CpuSet = [0; 16];
    set[cpu / 64] |= 1 << (cpu % 64);
    let set_one = |tid: i32| {
        // SAFETY: `set` is a valid cpu_set_t of the size passed.
        match unsafe { sched_setaffinity(tid, std::mem::size_of::<CpuSet>(), &set) } {
            0 => Ok(()),
            _ => Err(format!(
                "sched_setaffinity({tid}): {}",
                std::io::Error::last_os_error()
            )),
        }
    };
    set_one(0)?;
    let dir = format!("/proc/{pid}/task");
    for entry in std::fs::read_dir(&dir).map_err(|e| format!("{dir}: {e}"))? {
        let tid = entry.map_err(|e| format!("{dir}: {e}"))?.file_name();
        if let Some(tid) = tid.to_str().and_then(|t| t.parse().ok()) {
            set_one(tid)?;
        }
    }
    Ok(())
}
