//! What a run ran on: the host stamp printed with every run, a fixed
//! reference kernel whose readings measure how fast the host is running,
//! and peak resident memory.

use crate::stats::median;
use std::path::Path;
use std::process::Command;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// CPU time the calling thread has run (`CLOCK_THREAD_CPUTIME_ID`). Unlike
/// wall time it leaves out the time the thread waited for a core held by
/// the workload's own threads, so a reading taken while they run still
/// measures the host, not the load.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn thread_cpu() -> Option<Duration> {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) for the duration of the call.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    (rc == 0).then(|| Duration::new(ts.sec as u64, ts.nsec as u32))
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn thread_cpu() -> Option<Duration> {
    None
}

/// Geometry of the reference: one 3×3 convolution layer of `CONV_C`
/// channels over `CONV_HW`² pixels into `CONV_O` outputs.
const CONV_C: usize = 16;
const CONV_HW: usize = 16;
const CONV_O: usize = 32;

/// The reference kernel: `passes` forward passes of a fixed conv layer in
/// the program's own style, im2col into a patch matrix and then a scalar
/// dot product per output (`A·Bᵀ` order, as `matmul_a_bt` computes it),
/// over an L2-sized working set. It is the benchmark's own code, so its
/// time moves with the host and never with the program under test.
fn conv_kernel(passes: usize) -> f32 {
    const K: usize = CONV_C * 9;
    const OUT: usize = CONV_HW - 2;
    let input: Vec<f32> = (0..CONV_C * CONV_HW * CONV_HW)
        .map(|i| (i % 11) as f32 * 0.1)
        .collect();
    let weights: Vec<f32> = (0..CONV_O * K).map(|i| (i % 5) as f32 * 0.05).collect();
    let mut cols = vec![0.0f32; OUT * OUT * K];
    let mut out = vec![0.0f32; OUT * OUT * CONV_O];
    for _ in 0..passes {
        for (p, patch) in cols.chunks_exact_mut(K).enumerate() {
            let (y, x) = (p / OUT, p % OUT);
            for (k, v) in patch.iter_mut().enumerate() {
                let (c, dy, dx) = (k / 9, (k % 9) / 3, k % 3);
                *v = input[(c * CONV_HW + y + dy) * CONV_HW + x + dx];
            }
        }
        for (patch, row) in cols.chunks_exact(K).zip(out.chunks_exact_mut(CONV_O)) {
            for (o, w) in row.iter_mut().zip(weights.chunks_exact(K)) {
                let mut acc = 0.0f32;
                for (&a, &b) in patch.iter().zip(w) {
                    acc += a * b;
                }
                *o = acc;
            }
        }
        std::hint::black_box(&mut out);
    }
    out.iter().sum()
}

/// Milliseconds `passes` of the reference kernel take on the calling
/// thread's CPU clock (the wall clock where there is none).
fn reading_ms(passes: usize) -> f64 {
    let (c0, t0) = (thread_cpu(), Instant::now());
    std::hint::black_box(conv_kernel(std::hint::black_box(passes)));
    match (c0, thread_cpu()) {
        (Some(a), Some(b)) => b.saturating_sub(a).as_secs_f64() * 1e3,
        _ => t0.elapsed().as_secs_f64() * 1e3,
    }
}

/// Passes of one in-run reading: about 1.5 ms on the reference host.
const READ_PASSES: usize = 2;

/// What one in-run reading takes on the reference host (a 2-vCPU Intel
/// Xeon KVM guest) at its usual speed. Reported times are scaled to it.
pub const NOMINAL_READ_MS: f64 = 1.5;

/// Passes of one before/after reading, and readings per reported value
/// (their median).
const REF_PASSES: usize = 8;
const REF_REPS: usize = 5;

/// Median milliseconds of [`REF_REPS`] readings of [`REF_PASSES`] passes:
/// the host's speed before and after a workload.
pub fn ref_ms() -> f64 {
    let times: Vec<f64> = (0..REF_REPS).map(|_| reading_ms(REF_PASSES)).collect();
    median(&times)
}

/// One in-run reading of the reference kernel ([`READ_PASSES`] passes), in
/// CPU milliseconds of the calling thread.
pub fn read() -> f64 {
    reading_ms(READ_PASSES)
}

/// Pause between two readings of [`sampled`].
const SAMPLE_EVERY: Duration = Duration::from_millis(20);

/// Runs `f` while a second thread takes a reading every [`SAMPLE_EVERY`],
/// and returns `f`'s result with those readings. For work that cannot be
/// interleaved with readings on its own thread (a whole model training):
/// the readings come from another core, but at the same moments and with
/// the same cores busy. Readings taken with the other core idle run up to
/// a third faster than under load on the reference host.
pub fn sampled<T>(f: impl FnOnce() -> T) -> (T, Vec<f64>) {
    /// Stops the sampler even if `f` panics, so the scope can join it.
    struct Stop<'a>(&'a AtomicBool);
    impl Drop for Stop<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Relaxed);
        }
    }
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut readings = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                readings.push(read());
                std::thread::sleep(SAMPLE_EVERY);
            }
            readings
        });
        let out = {
            let _stop = Stop(&stop);
            f()
        };
        (out, sampler.join().unwrap_or_default())
    })
}

/// In-run readings, taken on the thread that does a workload's work
/// (the crafting thread, or the engine worker inside the pipeline) and
/// collected from any thread.
#[derive(Debug, Default)]
pub struct Probe {
    readings: Mutex<Vec<f64>>,
}

impl Probe {
    /// Takes one reading on the calling thread.
    pub fn read(&self) {
        let ms = read();
        self.readings
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(ms);
    }

    /// The readings taken since the last call.
    pub fn take(&self) -> Vec<f64> {
        std::mem::take(&mut *self.readings.lock().unwrap_or_else(PoisonError::into_inner))
    }
}

/// How much slower than the reference host the host ran, from in-run
/// readings: their median over [`NOMINAL_READ_MS`]. Times are divided by
/// it and rates multiplied, so a reported figure reads as if measured on
/// the reference host at its usual speed. 1 when there are no usable
/// readings.
pub fn slowdown(readings: &[f64]) -> f64 {
    let s = median(readings) / NOMINAL_READ_MS;
    if s.is_finite() && s > 0.0 {
        s
    } else {
        1.0
    }
}

/// Readings either side of a position that [`slowdowns`] takes the median
/// of: one reading is too short to stand for the host on its own.
const SMOOTH: usize = 4;

/// The host slowdown at each of `n` units of a phase whose `readings` were
/// taken in order, evenly through its units (after every round of crafts,
/// or every so many served items): the [`slowdown`] of the readings
/// nearest the unit's position. The host changes speed within a run, so a
/// unit is scaled by the speed of its own stretch of the run.
pub fn slowdowns(readings: &[f64], n: usize) -> Vec<f64> {
    let r = readings.len();
    (0..n)
        .map(|i| {
            let at = i * r / n;
            let near = &readings[at.saturating_sub(SMOOTH)..(at + SMOOTH + 1).min(r)];
            slowdown(near)
        })
        .collect()
}

/// Machine-wide CPU time counters from `/proc/stat`, in clock ticks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuTimes {
    /// Time the virtual CPUs ran anything: user, nice, system, irq, softirq.
    busy: u64,
    /// Time they wanted to run but the hypervisor ran another guest.
    steal: u64,
}

/// The `cpu` line of `/proc/stat`, or `None` where there is none or it
/// has no `steal` column.
pub fn cpu_times() -> Option<CpuTimes> {
    parse_cpu_line(std::fs::read_to_string("/proc/stat").ok()?.lines().next()?)
}

fn parse_cpu_line(line: &str) -> Option<CpuTimes> {
    let mut fields = line.split_whitespace();
    (fields.next()? == "cpu").then_some(())?;
    let t: Vec<u64> = fields.map(|f| f.parse().ok()).collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal …
    Some(CpuTimes {
        busy: t[..3].iter().sum::<u64>() + t.get(5)? + t.get(6)?,
        steal: *t.get(7)?,
    })
}

/// The share of the time between `a` and `b` that the virtual CPUs wanted
/// to run but the hypervisor gave to other guests ("steal"), 0 when they
/// never wanted to run. A halted virtual CPU that is woken waits on the
/// host as steal too, so it covers wake-up delays as well as preemption.
/// The in-run readings, timed in CPU time, do not see steal.
pub fn stolen_share(a: CpuTimes, b: CpuTimes) -> f64 {
    let busy = b.busy.saturating_sub(a.busy);
    let steal = b.steal.saturating_sub(a.steal);
    if busy + steal == 0 {
        0.0
    } else {
        steal as f64 / (busy + steal) as f64
    }
}

/// `share` bounded to [0, 0.5]: a host that took more than half the time
/// is too far from the reference to scale back to it.
pub fn clamp_stolen(share: f64) -> f64 {
    share.clamp(0.0, 0.5)
}

/// Runs `f` and returns its result with the [`stolen_share`] of the time
/// it ran (0 where `/proc/stat` has no steal column).
pub fn stolen_during<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let a = cpu_times();
    let out = f();
    let share = match (a, cpu_times()) {
        (Some(a), Some(b)) => stolen_share(a, b),
        _ => 0.0,
    };
    (out, share)
}

/// Peak resident set size of this process in MB (`VmHWM`), or `None`
/// where `/proc` does not report it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Filesystem type of the mount holding `dir` (longest matching mount
/// point in `/proc/mounts`).
fn fs_type(dir: &Path) -> String {
    let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, point, kind) = (f.next()?, f.next()?, f.next()?);
            dir.starts_with(point)
                .then(|| (point.len(), kind.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, kind)| kind)
}

fn json_str(s: &str) -> String {
    let escaped: String = s
        .chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if c.is_control() => vec![' '],
            c => vec![c],
        })
        .collect();
    format!("\"{escaped}\"")
}

/// The host stamp as one JSON object: core count, CPU model, compiler,
/// build profile, source revision and dirtiness (when the checkout is a
/// git tree), and where the run wrote its files.
pub fn stamp(run_dir: &Path) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    // Only a checkout that is itself a git tree is asked: git would
    // otherwise search the parent directories for one.
    let rev = Path::new(".git")
        .exists()
        .then(|| command_line("git", &["rev-parse", "HEAD"]))
        .flatten();
    let dirty = rev
        .as_ref()
        .and_then(|_| command_line("git", &["status", "--porcelain"]))
        .map(|s| (!s.is_empty()).to_string());
    format!(
        "{{\"nproc\":{nproc},\"cpu\":{},\"rustc\":{},\"profile\":\"{profile}\",\"git_rev\":{},\
         \"git_dirty\":{},\"run_dir\":{},\"run_dir_fs\":{}}}",
        json_str(&cpu_model()),
        json_str(&rustc),
        json_str(rev.as_deref().unwrap_or("none")),
        dirty.as_deref().unwrap_or("null"),
        json_str(&run_dir.display().to_string()),
        json_str(&fs_type(run_dir)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ref_kernel_is_deterministic_work() {
        assert_eq!(conv_kernel(2).to_bits(), conv_kernel(2).to_bits());
        assert!(conv_kernel(1) > 0.0);
        assert!(ref_ms() > 0.0);
        assert!(read() > 0.0);
    }

    #[test]
    fn slowdown_is_the_median_reading_over_nominal() {
        assert_eq!(slowdown(&[]), 1.0);
        assert_eq!(slowdown(&[0.0]), 1.0);
        let n = NOMINAL_READ_MS;
        assert_eq!(slowdown(&[n, 2.0 * n, 9.0 * n]), 2.0);
        let probe = Probe::default();
        probe.read();
        probe.read();
        assert_eq!(probe.take().len(), 2);
        assert!(probe.take().is_empty());
        let (out, readings) = sampled(|| std::thread::sleep(Duration::from_millis(60)));
        assert_eq!(out, ());
        assert!(!readings.is_empty() && readings.iter().all(|&r| r > 0.0));
    }

    #[test]
    fn each_unit_takes_the_speed_of_its_own_stretch() {
        let n = NOMINAL_READ_MS;
        // 20 readings over 40 units: the first half of the run at the
        // reference speed, the second half twice as slow.
        let readings: Vec<f64> = (0..20).map(|k| if k < 10 { n } else { 2.0 * n }).collect();
        let s = slowdowns(&readings, 40);
        assert_eq!(s.len(), 40);
        assert_eq!(s[0], 1.0);
        assert_eq!(s[10], 1.0);
        assert_eq!(s[30], 2.0);
        assert_eq!(s[39], 2.0);
        // A lone outlier among its neighbours does not move a unit.
        let mut spiky = vec![n; 20];
        spiky[7] = 10.0 * n;
        assert!(slowdowns(&spiky, 40).iter().all(|&x| x == 1.0));
        // No readings: nothing is scaled.
        assert_eq!(slowdowns(&[], 3), vec![1.0; 3]);
        assert!(slowdowns(&readings, 0).is_empty());
    }

    #[test]
    fn steal_is_a_share_of_the_time_wanted() {
        // Between the two lines: 60 busy ticks (user 50, system 10), 100
        // idle (not wanted, not counted) and 20 stolen.
        let a = parse_cpu_line("cpu  100 0 10 800 5 0 5 80 0 0").unwrap();
        let b = parse_cpu_line("cpu  150 0 20 900 5 0 5 100 0 0").unwrap();
        assert_eq!(a.busy, 115);
        assert_eq!(stolen_share(a, b), 20.0 / 80.0);
        assert_eq!(stolen_share(a, a), 0.0);
        assert_eq!(parse_cpu_line("cpu  1 2 3 4 5 6 7"), None);
        assert_eq!(parse_cpu_line("cpu0 1 2 3 4 5 6 7 8"), None);
        let (out, share) = stolen_during(|| 7);
        assert_eq!(out, 7);
        assert!((0.0..=1.0).contains(&share));
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c \"");
    }
}
