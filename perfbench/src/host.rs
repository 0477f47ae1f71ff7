//! The host side of a run: the environment guard, the facts recorded
//! with every result (CPUs, build identity, memory, scheduler waits) and
//! the host-speed calibration that scales reported times.

use std::cell::RefCell;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::path::PathBuf;
use std::process::Command;
use std::time::Instant;

use crate::metrics::median;

/// `ASAP_*` knobs that change the work a run does or how it is
/// dispatched. The benchmark refuses to start while any is set, so every
/// run measures the same program configuration.
const WORK_KNOBS: [&str; 10] = [
    "ASAP_JOBS",
    "ASAP_SWEEP_JOBS",
    "ASAP_SNAP_BUDGET",
    "ASAP_CELL_JOBS",
    "ASAP_OPS",
    "ASAP_THREADS",
    "ASAP_BENCHES",
    "ASAP_EVENTS",
    "ASAP_HTTP",
    "ASAP_RUNCACHE",
];

/// The work-changing knobs set in the environment (`ASAP_RUNCACHE*`
/// matches by prefix).
pub fn work_knobs_set() -> Vec<String> {
    let mut set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| WORK_KNOBS.contains(&k.as_str()) || k.starts_with("ASAP_RUNCACHE"))
        .collect();
    set.sort();
    set
}

/// Cumulative CPU and run-queue wait of the calling thread, in ns, from
/// `/proc/thread-self/schedstat` (`None` where the kernel lacks it).
#[derive(Clone, Copy, Debug, Default)]
pub struct Sched {
    pub cpu_ns: u64,
    pub wait_ns: u64,
}

pub fn sched() -> Option<Sched> {
    let text = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    let mut f = text.split_whitespace().map(|x| x.parse::<u64>().ok());
    Some(Sched {
        cpu_ns: f.next()??,
        wait_ns: f.next()??,
    })
}

/// Resets the peak-RSS watermark (`VmHWM`) by writing `5` to
/// `/proc/self/clear_refs`. Returns whether the kernel accepted it.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// First line of a command's stdout, or `"unknown"` when it cannot run.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The host record printed beside the metrics: CPUs, source revision (a
/// checkout without its own git history reports `unknown`; the build
/// fingerprint still identifies the executable), compiler, and this run's
/// scheduler waits.
pub fn record_json(measured: Option<(Sched, Sched)>) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rev = if std::path::Path::new(".git").exists() {
        command_line("git", &["rev-parse", "HEAD"])
    } else {
        "unknown".to_string()
    };
    let rustc = command_line("rustc", &["--version"]);
    let build =
        asap_sim::fingerprint::build_fingerprint().map_or("unknown".to_string(), |f| f.hex());
    let (cpu, wait) = measured.map_or((0, 0), |(a, b)| {
        (b.cpu_ns - a.cpu_ns, b.wait_ns - a.wait_ns)
    });
    format!(
        "{{\"nproc\":{nproc},\"git_rev\":\"{}\",\"rustc\":\"{}\",\"build\":\"{build}\",\
         \"measured_cpu_s\":{},\"runqueue_wait_s\":{}}}",
        asap_sim::json::escape(&rev),
        asap_sim::json::escape(&rustc),
        cpu as f64 / 1e9,
        wait as f64 / 1e9,
    )
}

/// Where the benchmark keeps its scratch files (run-cache stores, span
/// dumps): `perfbench/` under the Cargo target directory.
pub fn scratch_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/target")))
        .join("perfbench")
}

/// Nominal wall time of the calibration kernel: reported host times are
/// what they would be on a host that runs the kernel in this long.
const KERNEL_REF_S: f64 = 0.010;

/// The kernel re-runs when its last reading is older than this.
const RECALIBRATE_S: f64 = 0.1;

thread_local! {
    static KERNEL: RefCell<(Option<Instant>, Vec<f64>)> = const { RefCell::new((None, Vec::new())) };
}

/// A fixed integer and memory workload sharing no code with the program:
/// hash-map updates and scattered reads over half a MiB.
fn kernel() -> u64 {
    let mut map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut v = vec![0u64; 1 << 16];
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0u64;
    for i in 0..200_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let k = x & 0xFFFF;
        *map.entry(k).or_insert(0) += i;
        let j = (x >> 20) as usize & 0xFFFF;
        v[j] = v[j].wrapping_add(x);
        acc = acc.wrapping_add(v[(j * 7) & 0xFFFF]);
        if x & 3 == 0 {
            acc ^= map.get(&(k ^ 1)).copied().unwrap_or(0);
        }
    }
    acc
}

/// Times [`kernel`] when its last reading is older than
/// [`RECALIBRATE_S`], so readings spread evenly over the run.
pub fn calibrate_if_due() {
    KERNEL.with(|k| {
        let mut k = k.borrow_mut();
        if k.0
            .is_none_or(|at| at.elapsed().as_secs_f64() >= RECALIBRATE_S)
        {
            let t = Instant::now();
            std::hint::black_box(kernel());
            k.1.push(t.elapsed().as_secs_f64());
            k.0 = Some(Instant::now());
        }
    })
}

/// Runs `f` and returns its result and wall seconds. A calibration
/// reading may be taken first, outside the timed interval.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    calibrate_if_due();
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// Median kernel wall time of this run, in seconds (0 before any reading).
pub fn kernel_median_s() -> f64 {
    KERNEL.with(|k| median(&k.borrow().1))
}

/// Calibration readings taken so far: a mark for [`speed_scale_since`].
pub fn readings() -> usize {
    KERNEL.with(|k| k.borrow().1.len())
}

/// The run's host-speed scale for wall times. Shared hosts run the same
/// code up to 1.5x slower for minutes at a time as neighbours load the
/// machine, which moves wall times more than most changes to the program
/// do. Reported end-to-end times are therefore scaled to a reference
/// speed: `t × KERNEL_REF_S / k`, with `k` the median wall time of
/// [`kernel`] over readings spread across this run. The kernel shares no
/// code with the program, so a change to the program moves a scaled time
/// exactly as much as the raw one.
pub fn speed_scale() -> f64 {
    speed_scale_since(0)
}

/// [`speed_scale`] over the readings taken since `mark`, for a phase of
/// the run that is compared with another (the traced pass with the
/// untraced one).
pub fn speed_scale_since(mark: usize) -> f64 {
    let k = KERNEL.with(|k| median(k.borrow().1.get(mark..).unwrap_or(&[])));
    if k > 0.0 {
        KERNEL_REF_S / k
    } else {
        1.0
    }
}
