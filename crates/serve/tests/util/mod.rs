//! Shared helpers for the server integration suites: spawn an ephemeral
//! server, speak the line protocol over a raw socket.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use treequery_obs::{parse_json, Json};
use treequery_serve::{Server, ServerConfig, ServerHandle, PROTOCOL_VERSION};

/// Spawns a server with default config on an ephemeral port.
#[allow(dead_code)] // each suite uses a different subset of helpers
pub fn spawn() -> ServerHandle {
    Server::spawn(ServerConfig::default()).expect("spawn server")
}

/// Spawns a server with the given config.
#[allow(dead_code)]
pub fn spawn_with(config: ServerConfig) -> ServerHandle {
    Server::spawn(config).expect("spawn server")
}

/// A raw protocol connection, one JSON line per call.
pub struct TestConn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl TestConn {
    /// Connects (with retries — the accept loop starts concurrently).
    pub fn open(port: u16) -> TestConn {
        let deadline = Instant::now() + Duration::from_secs(5);
        let stream = loop {
            match TcpStream::connect(("127.0.0.1", port)) {
                Ok(s) => break s,
                Err(e) => {
                    assert!(Instant::now() < deadline, "connect: {e}");
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
        };
        stream.set_nodelay(true).expect("set TCP_NODELAY");
        let read_half = stream.try_clone().expect("clone stream");
        TestConn {
            reader: BufReader::new(read_half),
            writer: stream,
        }
    }

    /// Connects and completes the version handshake.
    pub fn hello(port: u16) -> TestConn {
        let mut conn = TestConn::open(port);
        let resp = conn.request(
            Json::obj()
                .set("verb", "hello")
                .set("version", PROTOCOL_VERSION),
        );
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{}", resp.render());
        conn
    }

    /// Sends one raw line (newline appended) in one write.
    pub fn send_raw(&mut self, line: &str) {
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        self.writer.write_all(&buf).expect("send");
    }

    /// Sends one request object.
    pub fn send(&mut self, req: &Json) {
        self.send_raw(&req.render());
    }

    /// Reads one response line; panics on EOF.
    pub fn recv(&mut self) -> Json {
        self.try_recv().expect("peer closed the connection")
    }

    /// Reads one response line, or `None` on EOF.
    pub fn try_recv(&mut self) -> Option<Json> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("recv");
        if n == 0 {
            return None;
        }
        Some(parse_json(line.trim()).unwrap_or_else(|e| panic!("bad response {line:?}: {e}")))
    }

    /// One request/response exchange.
    pub fn request(&mut self, req: Json) -> Json {
        self.send(&req);
        self.recv()
    }
}

/// Shorthand: the structured error code of a response, if any.
pub fn code(resp: &Json) -> Option<&str> {
    resp.get("code").and_then(Json::as_str)
}

/// Asserts a response is `ok:true`, returning it.
pub fn expect_ok(resp: Json) -> Json {
    assert_eq!(
        resp.get("ok"),
        Some(&Json::Bool(true)),
        "expected ok, got {}",
        resp.render()
    );
    resp
}
