//! The program under test, driven from outside: boot `aqo serve`, probe
//! readiness, talk JSONL over one loopback connection, read its
//! counters and peak RSS, shut it down.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// No single reply may take longer than this; a hung server fails the run
/// instead of hanging it.
const READ_TIMEOUT: Duration = Duration::from_secs(60);

/// A running `aqo serve --threads 1`, killed on drop if still alive.
pub struct Server {
    child: Child,
}

/// One client connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn open(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(READ_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Writes one newline-terminated request line and reads the reply
    /// line into `reply` (cleared first). The read blocks: in the timed
    /// phase client and server share one CPU, so polling would take it
    /// from the server.
    pub fn roundtrip(&mut self, line: &str, reply: &mut String) -> Result<(), String> {
        reply.clear();
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("write: {e}"))?;
        match self.reader.read_line(reply) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(_) => Ok(()),
            Err(e) => Err(format!("read: {e}")),
        }
    }

    /// The server's counters, from the `metrics` op.
    pub fn counters(&mut self) -> Result<BTreeMap<String, f64>, String> {
        let mut reply = String::new();
        self.roundtrip("{\"id\": 0, \"op\": \"metrics\"}\n", &mut reply)?;
        let doc = aqo_obs::json::parse(reply.trim_end())?;
        match doc.get("counters") {
            Some(aqo_obs::json::JsonValue::Obj(fields)) => Ok(fields
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.as_num()?)))
                .collect()),
            _ => Err(format!(
                "metrics reply has no counters: {}",
                reply.trim_end()
            )),
        }
    }
}

/// `aqo serve`'s acceptor polls `accept` this often.
const ACCEPT_POLL: Duration = Duration::from_millis(10);

/// How long one boot took, measured from the spawn.
pub struct BootTimes {
    /// Until the first reply to the readiness probe: the program's own
    /// start-up time and nothing else.
    pub ready: Duration,
    /// Until the probe's connect succeeded (the server listens).
    pub listening: Duration,
}

impl BootTimes {
    /// Whether the probe waited out an `accept` poll: it reached the
    /// backlog just after the acceptor's first `accept` found it empty,
    /// so the reply came about [`ACCEPT_POLL`] after the connect.
    pub fn missed_first_accept(&self) -> bool {
        self.ready - self.listening >= ACCEPT_POLL / 2
    }
}

impl Server {
    /// Spawns the server and waits for the first reply to a readiness
    /// probe. The port is chosen here and the probe retries its connect
    /// without sleeping, so it is queued the moment the server listens
    /// and does not wait to read the port from the server's stderr. It
    /// usually reaches the backlog before the acceptor's first `accept`;
    /// when it does not, it waits out the acceptor's 10 ms poll (see
    /// [`BootTimes::missed_first_accept`]).
    pub fn boot(aqo: &Path) -> Result<(Server, Conn, BootTimes), String> {
        let port = TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .map_err(|e| format!("pick a port: {e}"))?
            .port();
        let addr = format!("127.0.0.1:{port}");
        let t0 = Instant::now();
        let child = Command::new(aqo)
            .args(["serve", "--addr", &addr, "--threads", "1"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", aqo.display()))?;
        let mut server = Server { child };
        let mut conn = loop {
            match Conn::open(&addr) {
                Ok(conn) => break conn,
                Err(e) if t0.elapsed() > READ_TIMEOUT => return Err(e),
                Err(_) => {
                    if let Ok(Some(status)) = server.child.try_wait() {
                        return Err(format!("server exited before listening: {status}"));
                    }
                    std::thread::yield_now();
                }
            }
        };
        let listening = t0.elapsed();
        let mut reply = String::new();
        conn.roundtrip("{\"id\": 0, \"op\": \"status\"}\n", &mut reply)?;
        let ready = t0.elapsed();
        if !reply.contains("\"ok\": true") {
            return Err(format!("readiness probe failed: {}", reply.trim_end()));
        }
        Ok((server, conn, BootTimes { ready, listening }))
    }

    /// The server's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Peak resident set size (`VmHWM`) so far, in KiB.
    pub fn peak_rss_kib(&self) -> Result<u64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or_else(|| format!("{path} has no VmHWM line"))
    }

    /// Asks the server to drain and waits for it to exit.
    pub fn shutdown(mut self, mut conn: Conn) -> Result<(), String> {
        let mut reply = String::new();
        conn.roundtrip("{\"id\": 0, \"op\": \"shutdown\"}\n", &mut reply)?;
        drop(conn);
        let status = self.child.wait().map_err(|e| format!("wait: {e}"))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("server exited with {status}"))
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}
