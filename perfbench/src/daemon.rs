//! The daemon under test as a child process, observed from outside
//! through `/proc/<pid>`.

use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStderr, Command, Stdio};
use std::time::{Duration, Instant};

/// A running `richnote-server`.
pub struct Daemon {
    child: Child,
    stderr: BufReader<ChildStderr>,
    /// Where it listens.
    pub addr: SocketAddr,
}

impl Daemon {
    /// Starts `bin` on a free loopback port with `args` and waits for its
    /// "listening on" line.
    ///
    /// # Errors
    ///
    /// Spawn failures, or the daemon exiting before it listens.
    pub fn spawn(bin: &Path, args: &[String]) -> Result<Daemon, String> {
        let mut child = Command::new(bin)
            .arg("--addr")
            .arg("127.0.0.1:0")
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut line = String::new();
        loop {
            line.clear();
            let n = stderr.read_line(&mut line).map_err(|e| format!("daemon stderr: {e}"))?;
            if n == 0 {
                let _ = child.wait();
                return Err("daemon exited before listening".into());
            }
            if let Some(rest) = line.split("listening on ").nth(1) {
                let addr = rest.split_whitespace().next().unwrap_or_default();
                let addr = addr.parse().map_err(|e| format!("daemon address {addr:?}: {e}"))?;
                return Ok(Daemon { child, stderr, addr });
            }
        }
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// CPU time of every daemon thread, in ns (see [`process_cpu_ns`]).
    /// Threads must not exit inside a measured region, or their time
    /// leaves the sum; the benchmark keeps its connections open across
    /// every region it reads.
    pub fn cpu_ns(&self) -> Result<u64, String> {
        process_cpu_ns(self.pid())
    }

    /// Peak resident set (`VmHWM`), in MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.pid());
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        text.lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("{path}: no VmHWM"))
    }

    /// Waits for the daemon to exit after a `Shutdown` request, killing
    /// it if it has not within `grace`.
    ///
    /// # Errors
    ///
    /// The daemon had to be killed, or exited unsuccessfully.
    pub fn wait(mut self, grace: Duration) -> Result<(), String> {
        let deadline = Instant::now() + grace;
        loop {
            match self.child.try_wait().map_err(|e| format!("wait: {e}"))? {
                Some(status) => {
                    // Drain the rest of its log so it never sees EPIPE.
                    let mut rest = String::new();
                    let _ = self.stderr.read_to_string(&mut rest);
                    return if status.success() {
                        Ok(())
                    } else {
                        Err(format!("daemon exited with {status}: {}", rest.trim()))
                    };
                }
                None if Instant::now() >= deadline => {
                    return Err("daemon did not exit after Shutdown".into());
                }
                None => std::thread::sleep(Duration::from_millis(2)),
            }
        }
    }
}

/// CPU time of every thread of process `pid`, in ns: the sum of the
/// first field of `/proc/<pid>/task/*/schedstat` (for the daemon:
/// connection threads, shards, and the accept loop alike). Guest kernels
/// with paravirtual steal accounting leave out the time the hypervisor
/// stole.
pub fn process_cpu_ns(pid: u32) -> Result<u64, String> {
    let dir = format!("/proc/{pid}/task");
    let mut total = 0u64;
    for entry in std::fs::read_dir(&dir).map_err(|e| format!("{dir}: {e}"))? {
        let path = entry.map_err(|e| format!("{dir}: {e}"))?.path().join("schedstat");
        // A thread may exit between listing and reading.
        let Ok(text) = std::fs::read_to_string(&path) else { continue };
        let ns = text.split_whitespace().next().and_then(|v| v.parse::<u64>().ok());
        total += ns.ok_or_else(|| format!("{}: unparsable", path.display()))?;
    }
    Ok(total)
}

/// Host-wide CPU time from the first line of `/proc/stat`, in clock
/// ticks: `(steal, total)`.
pub fn host_times() -> Result<(u64, u64), String> {
    let text = std::fs::read_to_string("/proc/stat").map_err(|e| format!("/proc/stat: {e}"))?;
    let fields: Vec<u64> = text
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .ok_or("/proc/stat: no cpu line")?
        .split_whitespace()
        .map(|v| v.parse().map_err(|e| format!("/proc/stat: {e}")))
        .collect::<Result<_, _>>()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice],
    // where guest time is already inside user.
    let steal = *fields.get(7).ok_or("/proc/stat: no steal field")?;
    Ok((steal, fields.iter().take(8).sum()))
}

/// Steal share between two [`host_times`] readings.
pub fn steal_frac(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        0.0
    } else {
        after.0.saturating_sub(before.0) as f64 / total as f64
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Never leave a daemon behind, whatever path got us here.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}
