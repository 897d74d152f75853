//! Running the `icfgp` release binary: timed children with their own
//! peak RSS, started by a small helper process, and the cache server.

use serde::Value;
use std::ffi::OsString;
use std::io::{BufRead as _, BufReader, Write as _};
use std::os::raw::{c_int, c_long};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

/// A child still running after this long is killed and counted failed.
pub const REQUEST_LIMIT: Duration = Duration::from_secs(60);

/// Environment variables that would change what a request does. Every
/// child runs without them: default worker pool, no store, no trace.
const ICFGP_ENV: [&str; 6] = [
    "ICFGP_THREADS",
    "ICFGP_CACHE_DIR",
    "ICFGP_STORE_URL",
    "ICFGP_TRACE",
    "ICFGP_FUNC_TIMEOUT_MS",
    "ICFGP_STORE_LOCK_MS",
];

/// How one child process ended.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exit {
    /// Exit code; `None` when a signal ended it.
    pub code: Option<i32>,
    /// Spawn to exit, in milliseconds.
    pub ms: f64,
    /// The child's own peak resident set, in KiB.
    pub maxrss_kib: u64,
    /// Killed for passing [`REQUEST_LIMIT`].
    pub timed_out: bool,
}

mod sys {
    use super::{c_int, c_long};

    /// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 longs
    /// starting with `ru_maxrss`.
    #[repr(C)]
    #[derive(Default)]
    pub struct Rusage {
        pub utime: [c_long; 2],
        pub stime: [c_long; 2],
        pub maxrss: c_long,
        pub rest: [c_long; 13],
    }

    pub const SIGKILL: c_int = 9;

    extern "C" {
        pub fn wait4(pid: c_int, status: *mut c_int, options: c_int, rusage: *mut Rusage) -> c_int;
        pub fn kill(pid: c_int, sig: c_int) -> c_int;
    }
}

/// Spawn `cmd`, wait for it with `wait4` so its own peak RSS is known,
/// and kill it if it runs past `limit`.
///
/// # Errors
///
/// Spawning or waiting fails.
pub fn run_timed(cmd: &mut Command, limit: Duration) -> std::io::Result<Exit> {
    let start = Instant::now();
    let child = cmd.spawn()?;
    let pid = c_int::try_from(child.id()).expect("pids fit in pid_t");
    let (done, expired) = mpsc::channel::<()>();
    let watchdog = std::thread::spawn(move || {
        if expired.recv_timeout(limit) == Err(mpsc::RecvTimeoutError::Timeout) {
            // SAFETY: `kill` has no memory preconditions. The child is
            // not reaped until `wait4` below returns, and `done` is
            // signalled right after, so `pid` still names our child.
            unsafe { sys::kill(pid, sys::SIGKILL) };
            return true;
        }
        false
    });
    let mut status: c_int = 0;
    let mut usage = sys::Rusage::default();
    let reaped = loop {
        // SAFETY: both pointers are to live, writable locals of the
        // types `wait4(2)` expects.
        let r = unsafe { sys::wait4(pid, &mut status, 0, &mut usage) };
        if r == pid {
            break Ok(());
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            break Err(err);
        }
    };
    let ms = start.elapsed().as_secs_f64() * 1e3;
    let _ = done.send(());
    let timed_out = watchdog.join().expect("watchdog thread panicked");
    // `child` was reaped above; dropping it neither waits nor kills.
    drop(child);
    reaped?;
    let code = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
    Ok(Exit {
        code,
        ms,
        maxrss_kib: u64::try_from(usage.maxrss).unwrap_or(0),
        timed_out,
    })
}

/// The `icfgp` binary, run through a helper process.
///
/// Linux charges the address space a child had before `exec` to its
/// `ru_maxrss`, and a child started with `vfork` had its parent's. The
/// benchmark grows large (references, traced passes), so children
/// started from it directly would report its peak instead of their own.
/// The helper ([`spawner_main`]) is started while the benchmark is
/// still small and starts every measured child.
pub struct Icfgp {
    path: PathBuf,
    spawner: Child,
    io: Mutex<Option<(ChildStdin, BufReader<ChildStdout>)>>,
}

impl Icfgp {
    /// Start the helper for the binary at `path`.
    ///
    /// # Errors
    ///
    /// The helper cannot be started.
    pub fn start(path: PathBuf) -> Result<Icfgp, String> {
        let exe = std::env::current_exe().map_err(|e| format!("locating icfgp-perf: {e}"))?;
        let mut cmd = Command::new(exe);
        for var in ICFGP_ENV {
            cmd.env_remove(var);
        }
        let mut spawner = cmd
            .arg("spawner")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("starting the spawner: {e}"))?;
        let stdin = spawner.stdin.take().expect("stdin is piped");
        let stdout = BufReader::new(spawner.stdout.take().expect("stdout is piped"));
        Ok(Icfgp {
            path,
            spawner,
            io: Mutex::new(Some((stdin, stdout))),
        })
    }

    /// Run `icfgp ARGS` to completion (output discarded) and report how
    /// it ended.
    ///
    /// # Errors
    ///
    /// The helper failed or the child could not be run.
    pub fn run(&self, args: &[OsString]) -> Result<Exit, String> {
        let mut argv = vec![Value::Str(self.path.display().to_string())];
        for a in args {
            let a = a
                .to_str()
                .ok_or_else(|| format!("non-UTF-8 argument {a:?}"))?;
            argv.push(Value::Str(a.to_string()));
        }
        self.exec(argv)
    }

    /// One calibration sample (see [`crate::calib`]): `icfgp-perf
    /// calibrate` started, timed and reaped exactly like a request, so
    /// that it shares a request's process start-up and a fresh memory
    /// layout each time.
    ///
    /// # Errors
    ///
    /// The helper failed or the sample did not exit cleanly.
    pub fn calibrate(&self) -> Result<f64, String> {
        let exe = std::env::current_exe().map_err(|e| format!("locating icfgp-perf: {e}"))?;
        let argv = vec![
            Value::Str(exe.display().to_string()),
            Value::Str("calibrate".into()),
        ];
        let exit = self.exec(argv)?;
        if exit.code != Some(0) {
            return Err(format!("calibration sample failed: {exit:?}"));
        }
        Ok(exit.ms)
    }

    fn exec(&self, argv: Vec<Value>) -> Result<Exit, String> {
        let mut io = self.io.lock().expect("spawner pipe poisoned");
        let (stdin, stdout) = io.as_mut().expect("spawner is running");
        let line = serde_json::to_string(&Value::Arr(argv)).map_err(|e| e.to_string())?;
        writeln!(stdin, "{line}")
            .and_then(|()| stdin.flush())
            .map_err(|e| format!("spawner: {e}"))?;
        let mut reply = String::new();
        stdout
            .read_line(&mut reply)
            .map_err(|e| format!("spawner: {e}"))?;
        let v: Value =
            serde_json::from_str(&reply).map_err(|e| format!("spawner said {reply:?}: {e}"))?;
        let field = |k: &str| v.get(k).ok_or_else(|| format!("spawner said {reply:?}"));
        if let Some(err) = v.get("error").and_then(Value::as_str) {
            return Err(format!("running icfgp: {err}"));
        }
        Ok(Exit {
            code: field("code")?.as_i64().and_then(|c| i32::try_from(c).ok()),
            ms: field("ms")?.as_f64().unwrap_or(f64::NAN),
            maxrss_kib: field("maxrss_kib")?.as_u64().unwrap_or(0),
            timed_out: field("timed_out")? == &Value::Bool(true),
        })
    }

    /// Start `icfgp cache serve 127.0.0.1:0` over `dir`. The server is
    /// not measured, so it is started directly.
    ///
    /// # Errors
    ///
    /// The server fails to start or prints no URL.
    pub fn serve(&self, dir: &Path) -> Result<Server, String> {
        let mut cmd = Command::new(&self.path);
        for var in ICFGP_ENV {
            cmd.env_remove(var);
        }
        let mut child = cmd
            .args(["cache", "serve", "127.0.0.1:0", "--cache-dir"])
            .arg(dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning cache server: {e}"))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let _ = stdout.read_line(&mut line);
        // "serving icfgp://127.0.0.1:PORT from DIR"
        let url = line
            .split_whitespace()
            .find(|w| w.starts_with("icfgp://"))
            .unwrap_or_default();
        let server = Server {
            child,
            _stdout: stdout,
            url: url.to_string(),
        };
        if server.url.is_empty() {
            return Err(format!("cache server printed no URL: {line:?}"));
        }
        Ok(server)
    }
}

impl Drop for Icfgp {
    fn drop(&mut self) {
        // Closing the helper's stdin ends it.
        if let Ok(mut io) = self.io.lock() {
            io.take();
        }
        let _ = self.spawner.wait();
    }
}

/// The helper process behind [`Icfgp`]: read one JSON array of argv per
/// line, run it with [`run_timed`] (stdio discarded), and answer with
/// one JSON object per line, until stdin closes.
///
/// # Errors
///
/// Reading a request or writing a reply fails.
pub fn spawner_main() -> std::io::Result<()> {
    let mut out = std::io::stdout().lock();
    for line in std::io::stdin().lock().lines() {
        let line = line?;
        let argv: Vec<String> = serde_json::from_str::<Vec<String>>(&line).unwrap_or_default();
        let reply = match argv.split_first() {
            None => Err(format!("bad request {line:?}")),
            Some((program, args)) => run_timed(
                Command::new(program)
                    .args(args)
                    .stdin(Stdio::null())
                    .stdout(Stdio::null())
                    .stderr(Stdio::null()),
                REQUEST_LIMIT,
            )
            .map_err(|e| e.to_string()),
        };
        let v = match reply {
            Ok(e) => Value::Obj(vec![
                (
                    "code".into(),
                    e.code.map_or(Value::Null, |c| Value::Int(i64::from(c))),
                ),
                ("ms".into(), Value::Float(e.ms)),
                ("maxrss_kib".into(), Value::UInt(e.maxrss_kib)),
                ("timed_out".into(), Value::Bool(e.timed_out)),
            ]),
            Err(e) => Value::Obj(vec![("error".into(), Value::Str(e))]),
        };
        writeln!(
            out,
            "{}",
            serde_json::to_string(&v).expect("replies serialise")
        )?;
        out.flush()?;
    }
    Ok(())
}

/// An `icfgp cache serve` child. Dropping it kills and reaps the server.
pub struct Server {
    child: Child,
    /// Kept open: the server prints after its first line, and a closed
    /// pipe would make that print fail.
    _stdout: BufReader<ChildStdout>,
    /// `icfgp://127.0.0.1:PORT`.
    pub url: String,
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_timed_reports_exit_codes_rss_and_the_limit() {
        let exit = run_timed(Command::new("sh").args(["-c", "exit 3"]), REQUEST_LIMIT).unwrap();
        assert_eq!(exit.code, Some(3));
        assert!(exit.maxrss_kib > 0 && !exit.timed_out);
        let killed = run_timed(Command::new("sleep").arg("5"), Duration::from_millis(50)).unwrap();
        assert!(killed.timed_out && killed.code.is_none(), "{killed:?}");
    }
}
