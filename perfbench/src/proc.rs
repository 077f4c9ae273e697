//! Running the programs under test and reading their resource use from
//! outside: launch-to-exit time and peak resident memory.

use std::collections::BTreeSet;
use std::os::unix::process::ExitStatusExt;
use std::path::Path;
use std::process::{Child, Command, ExitStatus};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// `struct rusage` of Linux: two `timeval`s, then fourteen `long`s, the
/// first of which is `ru_maxrss` in KiB.
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// How one program run ended.
pub struct Finished {
    pub status: ExitStatus,
    /// Launch to exit.
    pub wall: Duration,
    /// Largest resident set of the process and every descendant it reaped
    /// (the shard coordinator reaps its workers), in MiB.
    pub peak_rss_mib: f64,
    /// User plus system CPU time of the process and its reaped descendants.
    pub cpu_s: f64,
}

/// Waits for `child` with `wait4`, which also reports the peak memory of the
/// child and its reaped descendants. `launched` is when it was spawned.
pub fn wait_rusage(child: Child, launched: Instant) -> std::io::Result<Finished> {
    let pid = child.id() as i32;
    let mut status = 0i32;
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `pid` is our own unreaped child (std never waits for it
        // after this, as `child` is dropped without `wait`), and both
        // pointers are to live, writable locals of the C layout wait4 fills.
        let reaped = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if reaped == pid {
            break;
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    let wall = launched.elapsed();
    drop(child);
    Ok(Finished {
        status: ExitStatus::from_raw(status),
        wall,
        peak_rss_mib: usage.maxrss as f64 / 1024.0,
        cpu_s: [usage.utime, usage.stime]
            .iter()
            .map(|[sec, usec]| *sec as f64 + *usec as f64 / 1e6)
            .sum(),
    })
}

/// Runs a command to completion with stdout and stderr discarded.
pub fn run(command: &mut Command) -> std::io::Result<Finished> {
    run_watched(command, false).map(|(done, _)| done)
}

/// [`run`], and with `watch` also counts the child processes the command
/// starts (polling `/proc` every millisecond while it runs).
pub fn run_watched(command: &mut Command, watch: bool) -> std::io::Result<(Finished, usize)> {
    let launched = Instant::now();
    let child = command
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()?;
    if !watch {
        return wait_rusage(child, launched).map(|done| (done, 0));
    }
    let (pid, stop) = (child.id(), AtomicBool::new(false));
    std::thread::scope(|s| {
        let watcher = s.spawn(|| watch_children(pid, &stop));
        let done = wait_rusage(child, launched);
        stop.store(true, Ordering::SeqCst);
        let seen = watcher.join().expect("watcher thread");
        done.map(|done| (done, seen.len()))
    })
}

/// Peak resident memory (`VmHWM`) of a live process, in MiB.
pub fn vm_hwm_mib(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// User plus system CPU time a live process has used, in seconds (from
/// `/proc`, in units of 10 ms: Linux reports it in `USER_HZ` = 100 ticks).
pub fn cpu_s(pid: u32) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the line, the 12th and 13th after it.
    let rest = &stat[stat.rfind(')')? + 2..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / 100.0)
}

/// Collects the pids of `parent`'s children by polling `/proc` every
/// millisecond until `stop` is set: the shard workers a coordinator spawns.
fn watch_children(parent: u32, stop: &AtomicBool) -> BTreeSet<u32> {
    let path = format!("/proc/{parent}/task/{parent}/children");
    let mut seen = BTreeSet::new();
    while !stop.load(Ordering::SeqCst) {
        if let Ok(text) = std::fs::read_to_string(&path) {
            seen.extend(
                text.split_whitespace()
                    .filter_map(|p| p.parse::<u32>().ok()),
            );
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    seen
}

/// Launch-to-exit times, in s, of `n` runs of a program's usage path: the
/// fixed start-up cost (exec, loading, argument parsing) every run pays.
/// The usage path must exit with `expected_code`.
pub fn startups(
    program: &Path,
    args: &[&str],
    expected_code: i32,
    n: usize,
) -> Result<Vec<f64>, String> {
    let mut samples = Vec::with_capacity(n);
    for _ in 0..n {
        let done = run(Command::new(program).args(args))
            .map_err(|e| format!("launching {}: {e}", program.display()))?;
        if done.status.code() != Some(expected_code) {
            return Err(format!(
                "{} {args:?} exited {:?}, expected {expected_code}",
                program.display(),
                done.status.code()
            ));
        }
        samples.push(done.wall.as_secs_f64());
    }
    Ok(samples)
}
