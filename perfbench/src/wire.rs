//! The server side of the wire: the `harness serve` child process, one
//! line-JSON connection to it, and the `/proc` readings taken of it.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

/// A running `harness serve` process with default settings.
pub struct Server {
    child: Child,
    port: u16,
    /// Kept open so the server never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
}

fn free_port() -> io::Result<u16> {
    Ok(TcpListener::bind("127.0.0.1:0")?.local_addr()?.port())
}

impl Server {
    /// Spawns the server and waits until it listens. Retries a few times
    /// in case another process took the chosen port in between.
    pub fn spawn(harness: &Path) -> io::Result<Server> {
        let mut last = io::Error::other("server never listened");
        for _ in 0..3 {
            let port = free_port()?;
            let mut child = Command::new(harness)
                .args(["serve", &port.to_string()])
                .stdin(Stdio::null())
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit())
                .spawn()?;
            let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
            let mut line = String::new();
            stdout.read_line(&mut line)?;
            if line.contains("listening") {
                return Ok(Server {
                    child,
                    port,
                    _stdout: stdout,
                });
            }
            let _ = child.kill();
            let _ = child.wait();
            last = io::Error::other(format!("server said {line:?}"));
        }
        Err(last)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Opens a connection and completes the hello handshake.
    pub fn connect(&self) -> io::Result<Conn> {
        Conn::open(self.port)
    }

    /// Asks the server to shut down and waits for it to exit; kills it if
    /// it has not exited within five seconds.
    pub fn shutdown(mut self) -> io::Result<()> {
        let acked = self.connect().and_then(|mut c| {
            c.call("{\"verb\":\"shutdown\"}\n")
                .map(|r| r.contains("\"ok\":true"))
        });
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            if let Some(status) = self.child.try_wait()? {
                return match acked {
                    Ok(true) if status.success() => Ok(()),
                    Ok(_) => Err(io::Error::other(format!("shutdown: {status}"))),
                    Err(e) => Err(e),
                };
            }
            thread::sleep(Duration::from_millis(2));
        }
        Err(io::Error::new(
            io::ErrorKind::TimedOut,
            "server ignored shutdown",
        ))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One connection: a request is one write, its reply one line.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    buf: String,
}

impl Conn {
    /// Connects to a server on loopback and completes the hello
    /// handshake.
    pub fn open(port: u16) -> io::Result<Conn> {
        let stream = TcpStream::connect(("127.0.0.1", port))?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        let mut conn = Conn {
            reader: BufReader::with_capacity(64 << 10, stream.try_clone()?),
            writer: stream,
            buf: String::new(),
        };
        let hello = conn.call("{\"verb\":\"hello\",\"version\":1}\n")?;
        if !hello.starts_with("{\"ok\":true") {
            return Err(io::Error::other(format!("hello: {hello}")));
        }
        Ok(conn)
    }

    /// Sends one `\n`-terminated request line and returns the reply line
    /// without its newline.
    pub fn call(&mut self, line: &str) -> io::Result<&str> {
        self.writer.write_all(line.as_bytes())?;
        self.buf.clear();
        if self.reader.read_line(&mut self.buf)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(self.buf.trim_end_matches('\n'))
    }
}

/// CPU time (user + system) a process's live threads have used, in
/// seconds: the per-thread run time of `/proc/<pid>/task/*/schedstat`,
/// the nanosecond-resolution form of the utime + stime that
/// `/proc/<pid>/stat` reports in 10 ms ticks. Time stolen by the
/// hypervisor is not in it.
pub fn process_cpu_s(pid: u32) -> io::Result<f64> {
    let mut ns = 0u64;
    for task in std::fs::read_dir(format!("/proc/{pid}/task"))? {
        let path = task?.path().join("schedstat");
        // A thread may exit between listing and reading.
        let Ok(stat) = std::fs::read_to_string(path) else {
            continue;
        };
        ns += stat
            .split_whitespace()
            .next()
            .and_then(|f| f.parse::<u64>().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad schedstat"))?;
    }
    Ok(ns as f64 / 1e9)
}

/// Peak resident set size (`VmHWM`) of a process, in MiB.
pub fn peak_rss_mib(pid: u32) -> io::Result<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no VmHWM"))
}

/// Host-wide CPU time as `(steal, total)` ticks from `/proc/stat`.
pub fn host_cpu() -> io::Result<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat")?;
    let cpu = stat
        .lines()
        .next()
        .filter(|l| l.starts_with("cpu "))
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad /proc/stat"))?;
    let ticks: Vec<u64> = cpu
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal (guest time is
    // already inside user).
    let total = ticks.iter().take(8).sum();
    Ok((ticks.get(7).copied().unwrap_or(0), total))
}
