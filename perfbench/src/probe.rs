//! Process and host probes: CPU time, peak memory, and the provenance
//! recorded with every result.

use std::path::Path;
use std::process::Command;

/// Cumulative user + system CPU of this process, in seconds, from
/// `/proc/self/stat` (fields 14/15, in `USER_HZ` = 100 ticks per
/// second). All threads count, the pool's workers included.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else { return 0.0 };
    // The command name may hold spaces; fields resume after its ')'.
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else { return 0.0 };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok()).unwrap_or(0.0);
    // `rest` starts at field 3 (state), so utime (14) is index 11.
    (ticks(11) + ticks(12)) / 100.0
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else { return 0.0 };
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Milliseconds a fixed CPU- and memory-bound kernel takes here (median
/// of 5), independent of the code under test: a host-speed reading to
/// record beside the results, so a slow host can be told apart from a
/// slow commit.
pub fn host_probe_ms() -> f64 {
    let mut buf = vec![0u64; 1 << 19];
    let mut times = Vec::with_capacity(5);
    for round in 0..5u64 {
        let start = std::time::Instant::now();
        let mut x = round ^ 0x9e37_79b9_7f4a_7c15;
        for _ in 0..8 {
            for slot in buf.iter_mut() {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                *slot = slot.wrapping_add(x);
            }
        }
        std::hint::black_box(&buf);
        times.push(start.elapsed().as_secs_f64() * 1e3);
    }
    crate::stats::median(&times)
}

/// Logical cores available to this process.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// First line of a command's standard output, or `unknown`. The child
/// is waited for before this returns.
fn command_line(command: &mut Command) -> String {
    command
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// `rustc --version` of the toolchain this directory resolves to.
pub fn rustc_version() -> String {
    command_line(Command::new("rustc").arg("--version"))
}

/// Commit of the checkout, or `unknown` when the working directory is not
/// itself a git work tree (git may not search the directories above it).
pub fn git_commit() -> String {
    let mut git = Command::new("git");
    git.args(["rev-parse", "--short=12", "HEAD"]);
    if let Some(parent) =
        std::env::current_dir().ok().and_then(|d| d.parent().map(Path::to_path_buf))
    {
        git.env("GIT_CEILING_DIRECTORIES", parent);
    }
    command_line(&mut git)
}

/// Filesystem type and mount point holding `dir`, from
/// `/proc/self/mounts` (longest matching mount point wins).
pub fn filesystem_of(dir: &Path) -> String {
    let Ok(path) = dir.canonicalize() else { return "unknown".to_string() };
    let Ok(mounts) = std::fs::read_to_string("/proc/self/mounts") else {
        return "unknown".to_string();
    };
    mounts
        .lines()
        .filter_map(|line| {
            let mut f = line.split_whitespace();
            let (_, point, fstype) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(point).then(|| (point.len(), format!("{fstype} on {point}")))
        })
        .max_by_key(|&(len, _)| len)
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs)
}

/// Total size of the regular files directly inside `dir`, in bytes.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}
