//! Shared real-binary process harness for the daemon integration
//! tests (the upgrade soak and the federation e2e). Each test crate
//! includes this file with `#[path = "util/mod.rs"] mod util;`, so it
//! must stand alone: no dev-dependencies beyond std.
#![allow(dead_code)]

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// A per-process scratch path under the system temp dir, deleted when
/// dropped — a test that fails leaves no file behind.
pub struct Scratch(PathBuf);

impl Deref for Scratch {
    type Target = Path;
    fn deref(&self) -> &Path {
        &self.0
    }
}

impl AsRef<Path> for Scratch {
    fn as_ref(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

pub fn scratch(name: &str) -> Scratch {
    let name = format!("farm-test-{}-{name}", std::process::id());
    Scratch(std::env::temp_dir().join(name))
}

/// Writes a daemon config file; it is deleted with the returned guard.
pub fn write_config(name: &str, body: String) -> Scratch {
    let path = scratch(name);
    std::fs::write(&path, body).expect("write config");
    path
}

/// A spawned daemon, killed and reaped when dropped: a test that panics
/// takes its daemons with it instead of leaving them holding the
/// runner's output.
pub struct Spawned {
    pub child: Child,
    pub addr: SocketAddr,
}

impl Drop for Spawned {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Locates a workspace binary from a test executable.
///
/// `compile_time` is `option_env!("CARGO_BIN_EXE_<name>")` at the call
/// site: cargo only sets it while compiling the tests of the crate that
/// owns the binary. Tests in *other* crates (the federation e2e drives
/// `farmd`, owned by farm-ctl) fall back to walking up from the running
/// test executable (`target/<profile>/deps/<test>` →
/// `target/<profile>/<name>`).
pub fn locate_bin(name: &str, compile_time: Option<&str>) -> PathBuf {
    if let Some(path) = compile_time {
        return PathBuf::from(path);
    }
    let exe = std::env::current_exe().expect("test executable path");
    let profile_dir = exe
        .parent() // deps/
        .and_then(Path::parent)
        .expect("test executable has a profile dir");
    let candidate = profile_dir.join(name);
    assert!(
        candidate.exists(),
        "`{name}` not found at {}; build the workspace binaries first \
         (cargo build --bins)",
        candidate.display()
    );
    candidate
}

/// Spawns a daemon binary with `--config <config> --print-addr` and
/// blocks until it reports the bound address. Stderr is inherited so
/// daemon-side diagnostics land in the test log.
pub fn spawn_daemon(bin: &Path, config: &Path) -> Spawned {
    let child = Command::new(bin)
        .arg("--config")
        .arg(config)
        .arg("--print-addr")
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .unwrap_or_else(|e| panic!("spawn {}: {e}", bin.display()));
    let mut spawned = Spawned {
        child,
        addr: SocketAddr::from(([0, 0, 0, 0], 0)),
    };
    let stdout = spawned.child.stdout.take().expect("daemon stdout piped");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read daemon address line");
    spawned.addr = line
        .trim()
        .parse()
        .unwrap_or_else(|_| panic!("daemon printed `{line}`, not an address"));
    spawned
}

/// Waits (bounded) for a child to exit and returns its status.
pub fn wait_exit(child: &mut Child, why: &str) -> std::process::ExitStatus {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        if let Some(status) = child.try_wait().expect("try_wait") {
            return status;
        }
        assert!(Instant::now() < deadline, "daemon did not exit: {why}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Polls `probe` until it returns `Some`, failing after `deadline`.
pub fn wait_for<T>(deadline: Duration, what: &str, mut probe: impl FnMut() -> Option<T>) -> T {
    let until = Instant::now() + deadline;
    loop {
        if let Some(v) = probe() {
            return v;
        }
        assert!(Instant::now() < until, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(20));
    }
}
