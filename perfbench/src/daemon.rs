//! The `ngd-serve` daemon as its own process.

use ngd_serve::{ServeAddr, ServeClient};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

pub struct DaemonSpec<'a> {
    pub binary: &'a Path,
    pub snapshot: &'a Path,
    pub rules: &'a Path,
    pub socket: &'a Path,
    pub log: &'a Path,
    pub processors: usize,
    pub workers: usize,
}

impl DaemonSpec<'_> {
    pub fn args(&self) -> Vec<String> {
        vec![
            "--snapshot".into(),
            self.snapshot.display().to_string(),
            "--listen".into(),
            format!("unix:{}", self.socket.display()),
            "--rules".into(),
            self.rules.display().to_string(),
            "--processors".into(),
            self.processors.to_string(),
            "--workers".into(),
            self.workers.to_string(),
        ]
    }
}

/// A running daemon.  Dropping it without [`Daemon::stop`] kills the
/// process and waits for it.
pub struct Daemon {
    child: Option<Child>,
    pub addr: ServeAddr,
    log: PathBuf,
}

impl Daemon {
    /// Start the daemon and wait for its first `HELLO`.
    pub fn start(spec: &DaemonSpec<'_>) -> Result<(Daemon, ServeClient), String> {
        let log = std::fs::File::create(spec.log).map_err(|e| format!("create log: {e}"))?;
        let log_err = log.try_clone().map_err(|e| format!("clone log: {e}"))?;
        let child = Command::new(spec.binary)
            .args(spec.args())
            .stdin(Stdio::null())
            .stdout(log)
            .stderr(log_err)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", spec.binary.display()))?;
        let mut daemon = Daemon {
            child: Some(child),
            addr: ServeAddr::Unix(spec.socket.to_path_buf()),
            log: spec.log.to_path_buf(),
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Ok(client) = ServeClient::connect_as(&daemon.addr, "perfbench") {
                return Ok((daemon, client));
            }
            let child = daemon.child.as_mut().expect("child is running");
            if let Ok(Some(status)) = child.try_wait() {
                daemon.child = None;
                return Err(format!(
                    "daemon exited with {status}: {}",
                    daemon.log_text()
                ));
            }
            if Instant::now() > deadline {
                return Err(format!("daemon did not answer: {}", daemon.log_text()));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn log_text(&self) -> String {
        std::fs::read_to_string(&self.log).unwrap_or_default()
    }

    pub fn pid(&self) -> String {
        self.child
            .as_ref()
            .map_or(String::new(), |c| c.id().to_string())
    }

    /// Send `SHUTDOWN` and wait for the process to exit.
    pub fn stop(mut self, mut client: ServeClient) -> Result<(), String> {
        client
            .shutdown_server()
            .map_err(|e| format!("shutdown: {e}"))?;
        drop(client);
        let mut child = self.child.take().expect("child is running");
        let status = child.wait().map_err(|e| format!("wait: {e}"))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("daemon exited with {status}: {}", self.log_text()))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}
