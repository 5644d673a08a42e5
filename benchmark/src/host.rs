//! What the benchmark learns about the machine it runs on: the stamp put
//! on every output, the child's peak memory, and the noise probe run
//! between passes.

use crate::json::{count, n, obj, s, Value};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Worker threads of the traced run: `min(nproc, 4)`, so the run is the
/// same on any host with at least four cores and is recorded where it is
/// not. (The end-to-end run uses `protocol::E2E_THREADS`.)
pub fn threads() -> usize {
    nproc().min(4)
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn read(path: &str) -> Option<String> {
    std::fs::read_to_string(path).ok()
}

/// The value of `key` in a `key : value` / `key: value kB` proc file.
fn proc_field(text: &str, key: &str) -> Option<String> {
    text.lines().find_map(|line| {
        let (k, v) = line.split_once(':')?;
        (k.trim() == key).then(|| v.trim().to_string())
    })
}

/// `VmHWM` of this process in KiB (0 where `/proc` does not say).
pub fn vm_hwm_kib() -> u64 {
    read("/proc/self/status")
        .and_then(|t| proc_field(&t, "VmHWM"))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// Cache sizes as sysfs reports them for cpu0, e.g. `L2 4096K`. In a
/// container the last level usually belongs to the whole host.
fn caches() -> String {
    let mut out = Vec::new();
    for i in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let (Some(level), Some(size)) =
            (read(&format!("{dir}/level")), read(&format!("{dir}/size")))
        else {
            continue;
        };
        let kind = read(&format!("{dir}/type")).unwrap_or_default();
        let suffix = match kind.trim() {
            "Data" => "d",
            "Instruction" => "i",
            _ => "",
        };
        out.push(format!("L{}{} {}", level.trim(), suffix, size.trim()));
    }
    if out.is_empty() {
        "unknown".into()
    } else {
        out.join(", ")
    }
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The checked-out commit, read from `.git` next to the benchmark
/// directory without running git (a driver's checkout is not a
/// repository; it reports `unknown`).
fn git_commit(repo: &Path) -> String {
    let git = repo.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return hash.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (hash, name) = line.split_once(' ')?;
                (name == reference).then(|| hash.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The host part of the stamp.
pub fn stamp(repo: &Path) -> Value {
    let cpuinfo = read("/proc/cpuinfo").unwrap_or_default();
    let meminfo = read("/proc/meminfo").unwrap_or_default();
    let mem_kib: u64 = proc_field(&meminfo, "MemTotal")
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
        .unwrap_or(0);
    obj([
        ("nproc", count(nproc() as u64)),
        (
            "cpu_model",
            s(proc_field(&cpuinfo, "model name").unwrap_or_else(|| "unknown".into())),
        ),
        ("caches_as_reported", s(caches())),
        ("memory_mib", n(mem_kib as f64 / 1024.0)),
        ("rustc", s(rustc_version())),
        ("git_commit", s(git_commit(repo))),
    ])
}

/// One reading of the host-noise probe.
#[derive(Debug, Clone, Copy)]
pub struct ProbeReading {
    /// Read bandwidth summing a 64 MiB array for 0.3 s.
    pub stream_gb_per_s: f64,
    /// Mean cost of spawning and joining two threads, over 200 rounds.
    pub spawn_us: f64,
}

/// A fixed piece of work whose speed says how busy the shared machine is
/// right now. Whether a pass is re-run depends on the probes around it
/// only, never on the pass's own time.
pub struct Probe {
    array: Vec<u64>,
}

const PROBE_BYTES: usize = 64 << 20;
const PROBE_SECONDS: f64 = 0.3;
const PROBE_SPAWNS: usize = 200;

impl Default for Probe {
    fn default() -> Self {
        Probe {
            array: (0..(PROBE_BYTES / 8) as u64).collect(),
        }
    }
}

impl Probe {
    /// Takes one reading (about a third of a second).
    pub fn read(&self) -> ProbeReading {
        let t = Instant::now();
        let mut sweeps = 0u32;
        let mut sum = 0u64;
        while t.elapsed().as_secs_f64() < PROBE_SECONDS {
            sum = sum.wrapping_add(black_box(&self.array).iter().sum::<u64>());
            sweeps += 1;
        }
        black_box(sum);
        let stream_gb_per_s =
            f64::from(sweeps) * PROBE_BYTES as f64 / t.elapsed().as_secs_f64() / 1e9;
        let t = Instant::now();
        for _ in 0..PROBE_SPAWNS {
            std::thread::scope(|scope| {
                scope.spawn(|| black_box(1));
                scope.spawn(|| black_box(2));
            });
        }
        let spawn_us = t.elapsed().as_secs_f64() * 1e6 / PROBE_SPAWNS as f64;
        ProbeReading {
            stream_gb_per_s,
            spawn_us,
        }
    }
}
