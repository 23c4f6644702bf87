//! Measurement helpers: order statistics, the output digest, child
//! processes with their own peak RSS, and host facts.

use std::io::Read as _;
use std::os::unix::process::ExitStatusExt as _;
use std::path::Path;
use std::process::{Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

/// Linear-interpolated quantile (`q` in `0..=1`) of unsorted samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn ratio(num: f64, den: f64) -> Option<f64> {
    (den > 0.0).then(|| num / den)
}

/// FNV-1a over a sequence of results; each result is length-prefixed so
/// concatenation boundaries are part of the digest.
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn add(&mut self, bytes: &[u8]) {
        for &b in (bytes.len() as u64).to_le_bytes().iter().chain(bytes) {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// One finished child process.
pub struct ChildRun {
    pub status: ExitStatus,
    pub stdout: Vec<u8>,
    pub stderr: Vec<u8>,
    /// Spawn → exit.
    pub wall: Duration,
    /// The child's own peak resident set (`ru_maxrss`), KiB.
    pub maxrss_kib: u64,
}

/// Runs `cmd` to completion, capturing both streams and reaping the
/// child with `wait4` so its peak RSS is its own, not the benchmark's.
pub fn run_child(cmd: &mut Command) -> std::io::Result<ChildRun> {
    let start = Instant::now();
    let mut child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()?;
    let mut err_pipe = child.stderr.take().expect("piped stderr");
    let err_reader = std::thread::spawn(move || {
        let mut buf = Vec::new();
        let _ = err_pipe.read_to_end(&mut buf);
        buf
    });
    let mut stdout = Vec::new();
    child
        .stdout
        .take()
        .expect("piped stdout")
        .read_to_end(&mut stdout)?;
    let mut status = 0i32;
    let mut usage: Rusage = unsafe { std::mem::zeroed() };
    // SAFETY: `child.id()` is our own unreaped child; `status` and
    // `usage` are valid for writes. `Child` is not waited on afterwards.
    let rc = loop {
        let rc = unsafe { wait4(child.id() as i32, &mut status, 0, &mut usage) };
        if rc >= 0 || std::io::Error::last_os_error().kind() != std::io::ErrorKind::Interrupted {
            break rc;
        }
    };
    let wall = start.elapsed();
    if rc < 0 {
        return Err(std::io::Error::last_os_error());
    }
    let stderr = err_reader.join().unwrap_or_default();
    Ok(ChildRun {
        status: ExitStatus::from_raw(status),
        stdout,
        stderr,
        wall,
        maxrss_kib: usage.maxrss.max(0) as u64,
    })
}

/// `VmHWM` (peak resident set) of a live process, KiB.
pub fn vm_hwm_kib(pid: &str) -> u64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Host facts printed with every result: CPU model, usable cores, the
/// Rust compiler, and the identity of the measured code.
pub fn host_lines(root: &Path) -> Vec<String> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rustc = Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    let commit = if root.join(".git").exists() {
        Command::new("git")
            .arg("-C")
            .arg(root)
            .args(["rev-parse", "--short=12", "HEAD"])
            .output()
            .ok()
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_string())
    } else {
        "n/a (not a git checkout)".to_string()
    };
    vec![
        format!("host.cpu          {cpu}"),
        format!("host.nproc        {nproc}"),
        format!("host.rustc        {rustc}"),
        format!("code.commit       {commit}"),
        format!("code.source_fnv   {}", source_digest(root)),
    ]
}

/// Digest of every `.rs` and `Cargo.toml` file under `crates/`, in path
/// order: identifies the measured code even where there is no git.
fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else if p.extension().is_some_and(|x| x == "rs")
                || p.file_name().is_some_and(|n| n == "Cargo.toml")
            {
                files.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut d = Digest::new();
    for f in &files {
        d.add(
            f.strip_prefix(root)
                .unwrap_or(f)
                .to_string_lossy()
                .as_bytes(),
        );
        d.add(&std::fs::read(f).unwrap_or_default());
    }
    format!("{} ({} files)", d.hex(), files.len())
}
