//! The server under test as a child process, and blocking client
//! connections to it. Every guard here cleans up in `Drop`, so the child is
//! killed and the scratch directory removed on every return and panic path
//! (`run.sh` covers signals by killing the process group).

use crate::ops::{CORPUS, KINDS, QUEUE, SERVER_SEED, WORKERS};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// A reply that takes longer than this is a failed op, not a hung run.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// Scratch directory removed (with everything in it) on drop.
pub struct TempRoot(PathBuf);

impl TempRoot {
    pub fn create(path: PathBuf) -> Result<TempRoot, String> {
        // A stale directory of the same name can only be a dead run's.
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(TempRoot(path))
    }

    /// A fresh, empty subdirectory.
    pub fn subdir(&self, name: &str) -> Result<PathBuf, String> {
        let path = self.0.join(name);
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(path)
    }
}

impl Drop for TempRoot {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One blocking, `TCP_NODELAY` line connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// The outgoing line, newline included, so a request is one `write`.
    out: Vec<u8>,
    line: String,
}

impl Conn {
    pub fn connect(addr: &str) -> Result<Conn, String> {
        let io = |e: std::io::Error| format!("connect {addr}: {e}");
        let writer = TcpStream::connect(addr).map_err(io)?;
        writer.set_nodelay(true).map_err(io)?;
        writer.set_read_timeout(Some(REPLY_TIMEOUT)).map_err(io)?;
        let reader = BufReader::new(writer.try_clone().map_err(io)?);
        Ok(Conn {
            reader,
            writer,
            out: Vec::new(),
            line: String::new(),
        })
    }

    /// Send one request line and block for the full reply line.
    pub fn request(&mut self, request: &str) -> Result<&str, String> {
        self.out.clear();
        self.out.extend_from_slice(request.as_bytes());
        self.out.push(b'\n');
        self.writer
            .write_all(&self.out)
            .map_err(|e| format!("send: {e}"))?;
        self.line.clear();
        match self.reader.read_line(&mut self.line) {
            Ok(0) => Err("connection dropped".to_string()),
            Ok(_) if self.line.ends_with('\n') => Ok(self.line.trim_end()),
            Ok(_) => Err("connection dropped mid-reply".to_string()),
            Err(e) => Err(format!("receive: {e}")),
        }
    }
}

/// A running `tahoma-serve` child. Dropping it kills it.
pub struct Server {
    child: Child,
    // Held so the child's stdout stays open for its whole life.
    _stdout: BufReader<ChildStdout>,
    addr: String,
    /// Spawn → `listening` line → first `PONG`.
    pub boot_s: f64,
}

impl Server {
    /// Boot the fixed server configuration on `store_dir` and wait until
    /// it answers `PING`. Port 0 always, so runs can share a machine.
    pub fn boot(bin: &Path, store_dir: &Path) -> Result<Server, String> {
        let log_path = store_dir.with_extension("log");
        let log =
            std::fs::File::create(&log_path).map_err(|e| format!("{}: {e}", log_path.display()))?;
        let started = Instant::now();
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0", "--backend", "nn"])
            .args(["--kinds", &KINDS.join(",")])
            .args(["--corpus", &CORPUS.to_string()])
            .args(["--seed", &SERVER_SEED.to_string()])
            .args(["--workers", &WORKERS.to_string()])
            .args(["--queue", &QUEUE.to_string()])
            .arg("--store-dir")
            .arg(store_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = match (read, line.trim().strip_prefix("listening on ")) {
            (Ok(n), Some(addr)) if n > 0 => addr.to_string(),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                let log = std::fs::read_to_string(&log_path).unwrap_or_default();
                return Err(format!(
                    "server did not print its listening line (got {line:?}); stderr:\n{log}"
                ));
            }
        };
        let mut server = Server {
            child,
            _stdout: stdout,
            addr,
            boot_s: 0.0,
        };
        let pong = server.connect()?.request("PING")?.to_string();
        if pong != "PONG" {
            return Err(format!("PING answered {pong:?}"));
        }
        server.boot_s = started.elapsed().as_secs_f64();
        Ok(server)
    }

    pub fn connect(&self) -> Result<Conn, String> {
        Conn::connect(&self.addr)
    }

    /// The child's pid as `/proc` spells it.
    pub fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// `SHUTDOWN`, then wait for the process to exit on its own.
    pub fn shutdown(mut self) -> Result<(), String> {
        let bye = self.connect()?.request("SHUTDOWN")?.to_string();
        if bye != "BYE" {
            return Err(format!("SHUTDOWN answered {bye:?}"));
        }
        let status = self.child.wait().map_err(|e| format!("wait: {e}"))?;
        if !status.success() {
            return Err(format!("server exited with {status}"));
        }
        Ok(())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // After a clean `shutdown` both calls are no-ops on a reaped child.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
