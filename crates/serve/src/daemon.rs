//! The socket daemon: `bisramgen serve`.
//!
//! A [`Daemon`] binds a Unix domain socket (or a localhost TCP address
//! as the portable fallback), accepts connections on a nonblocking
//! accept loop, and services each connection on its own thread. A
//! connection carries any number of requests back-to-back; between
//! requests the handler polls for the first byte with a short timeout
//! so a shutdown can drain promptly without cutting off a request that
//! is mid-frame.
//!
//! Robustness contract: a malformed, corrupted, oversized or truncated
//! frame produces a typed [`RespFrame::Error`] with a retry-classified
//! status code and closes *that connection* — the daemon itself never
//! panics and keeps serving everyone else. A client that disconnects
//! mid-response just ends its handler thread.

use crate::proto::RespFrame;
use crate::service::Service;
use crate::JobSpec;
use bisram_wire::{read_frame, write_frame, FrameError, MAX_FRAME_BYTES};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Where the daemon listens (and where a client connects).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Listen {
    /// A Unix domain socket at this path.
    #[cfg(unix)]
    Unix(PathBuf),
    /// A TCP address, e.g. `127.0.0.1:7345`. Binding `127.0.0.1:0`
    /// picks an ephemeral port; [`Daemon::listen`] reports the
    /// resolved address.
    Tcp(String),
}

impl std::fmt::Display for Listen {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            #[cfg(unix)]
            Listen::Unix(path) => write!(f, "unix:{}", path.display()),
            Listen::Tcp(addr) => write!(f, "tcp:{addr}"),
        }
    }
}

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Bind address.
    pub listen: Listen,
    /// Worker threads per compile (`None` = automatic).
    pub jobs: Option<usize>,
}

/// A bidirectional stream, Unix or TCP. Shared by the daemon's
/// connection handlers and the [`Client`](crate::Client).
pub(crate) enum Conn {
    #[cfg(unix)]
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl Conn {
    pub(crate) fn connect(listen: &Listen) -> io::Result<Conn> {
        match listen {
            #[cfg(unix)]
            Listen::Unix(path) => UnixStream::connect(path).map(Conn::Unix),
            Listen::Tcp(addr) => TcpStream::connect(addr).map(|s| {
                // Request/response framing means many small writes; with
                // Nagle on, each round trip eats a delayed-ACK stall
                // (~40 ms) and caps throughput at ~12 req/s.
                let _ = s.set_nodelay(true);
                Conn::Tcp(s)
            }),
        }
    }

    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        match self {
            #[cfg(unix)]
            Conn::Unix(s) => s.set_read_timeout(timeout),
            Conn::Tcp(s) => s.set_read_timeout(timeout),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            #[cfg(unix)]
            Conn::Unix(s) => s.read(buf),
            Conn::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            #[cfg(unix)]
            Conn::Unix(s) => s.write(buf),
            Conn::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            #[cfg(unix)]
            Conn::Unix(s) => s.flush(),
            Conn::Tcp(s) => s.flush(),
        }
    }
}

enum Listener {
    #[cfg(unix)]
    Unix(UnixListener),
    Tcp(TcpListener),
}

impl Listener {
    fn bind(listen: &Listen) -> io::Result<(Listener, Listen)> {
        match listen {
            #[cfg(unix)]
            Listen::Unix(path) => {
                // A stale socket file from a dead daemon blocks the
                // bind; remove it (connect() on a live one would
                // succeed, but a daemon replacing a live daemon is an
                // operator action, not something to second-guess here).
                let _ = std::fs::remove_file(path);
                let listener = UnixListener::bind(path)?;
                Ok((Listener::Unix(listener), Listen::Unix(path.clone())))
            }
            Listen::Tcp(addr) => {
                let listener = TcpListener::bind(addr)?;
                let local = listener.local_addr()?;
                Ok((Listener::Tcp(listener), Listen::Tcp(local.to_string())))
            }
        }
    }

    fn set_nonblocking(&self, nb: bool) -> io::Result<()> {
        match self {
            #[cfg(unix)]
            Listener::Unix(l) => l.set_nonblocking(nb),
            Listener::Tcp(l) => l.set_nonblocking(nb),
        }
    }

    fn accept(&self) -> io::Result<Conn> {
        match self {
            #[cfg(unix)]
            Listener::Unix(l) => l.accept().map(|(s, _)| Conn::Unix(s)),
            Listener::Tcp(l) => l.accept().map(|(s, _)| {
                let _ = s.set_nodelay(true); // see Conn::connect
                Conn::Tcp(s)
            }),
        }
    }
}

/// A running daemon. Dropping it without [`Daemon::join`] leaves the
/// threads running; call [`Daemon::stop`] + [`Daemon::join`] (or just
/// `join` after a client sent `shutdown`) for a graceful exit.
pub struct Daemon {
    service: Arc<Service>,
    stop: Arc<AtomicBool>,
    listen: Listen,
    accept: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Daemon {
    /// Binds and starts serving on background threads.
    ///
    /// # Errors
    ///
    /// The bind error, verbatim.
    pub fn start(config: &DaemonConfig) -> io::Result<Daemon> {
        let service = Arc::new(Service::with_cache(
            Arc::clone(bisramgen::CellCache::global()),
            config.jobs,
        ));
        Daemon::start_with_service(config, service)
    }

    /// Like [`Daemon::start`] with an explicit service — lets tests
    /// and benchmarks observe a cold cache or share counters.
    ///
    /// # Errors
    ///
    /// The bind error, verbatim.
    pub fn start_with_service(config: &DaemonConfig, service: Arc<Service>) -> io::Result<Daemon> {
        let (listener, listen) = Listener::bind(&config.listen)?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

        let accept = {
            let service = Arc::clone(&service);
            let stop = Arc::clone(&stop);
            let conns = Arc::clone(&conns);
            std::thread::spawn(move || loop {
                if stop.load(Ordering::Relaxed) || service.draining() {
                    return;
                }
                match listener.accept() {
                    Ok(conn) => {
                        let service = Arc::clone(&service);
                        let stop = Arc::clone(&stop);
                        let mut conns = conns.lock().unwrap_or_else(|e| e.into_inner());
                        // Join the threads that have exited, so each
                        // one's stack is unmapped now, not at shutdown.
                        for done in conns.extract_if(.., |h| h.is_finished()) {
                            let _ = done.join();
                        }
                        conns.push(std::thread::spawn(move || {
                            handle_connection(&service, conn, &stop)
                        }));
                    }
                    Err(e)
                        if e.kind() == io::ErrorKind::WouldBlock
                            || e.kind() == io::ErrorKind::TimedOut =>
                    {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Err(_) => std::thread::sleep(Duration::from_millis(5)),
                }
            })
        };

        Ok(Daemon {
            service,
            stop,
            listen,
            accept: Some(accept),
            conns,
        })
    }

    /// Connection threads not yet joined, and how many of those exited.
    #[cfg(test)]
    pub(crate) fn connection_threads(&self) -> (usize, usize) {
        let conns = self.conns.lock().unwrap_or_else(|e| e.into_inner());
        (
            conns.len(),
            conns.iter().filter(|h| h.is_finished()).count(),
        )
    }

    /// The service behind the daemon (counters, drain state).
    pub fn service(&self) -> &Arc<Service> {
        &self.service
    }

    /// The resolved listen address — for TCP with port `0`, the actual
    /// ephemeral port.
    pub fn listen(&self) -> &Listen {
        &self.listen
    }

    /// Asks the accept loop and the idle connection handlers to exit.
    /// In-flight requests still complete; follow with [`Daemon::join`].
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }

    /// Whether the daemon has been asked to stop (via [`Daemon::stop`]
    /// or a client's `shutdown` request).
    pub fn stopping(&self) -> bool {
        self.stop.load(Ordering::Relaxed) || self.service.draining()
    }

    /// Waits for a graceful exit: accept loop done, every in-flight
    /// request completed and answered, every connection closed, socket
    /// file removed.
    pub fn join(mut self) {
        // If nobody called stop(), wait for a client-driven shutdown.
        while !self.stopping() {
            std::thread::sleep(Duration::from_millis(10));
        }
        self.stop.store(true, Ordering::SeqCst);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        self.service.drain();
        let handles = std::mem::take(&mut *self.conns.lock().unwrap_or_else(|e| e.into_inner()));
        for handle in handles {
            let _ = handle.join();
        }
        #[cfg(unix)]
        if let Listen::Unix(path) = &self.listen {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Reads one prepended byte, then the underlying stream — lets the
/// handler poll for the first byte of a frame with a short timeout and
/// still hand `read_frame` a contiguous stream.
struct Prepend<'a> {
    first: Option<u8>,
    inner: &'a mut Conn,
}

impl Read for Prepend<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if let Some(b) = self.first.take() {
            if buf.is_empty() {
                self.first = Some(b);
                return Ok(0);
            }
            buf[0] = b;
            return Ok(1);
        }
        self.inner.read(buf)
    }
}

/// Classifies a transport-frame error into a protocol status code.
fn classify(err: &FrameError) -> (u32, bool) {
    match err {
        // The stream position is unknown after corruption, so the
        // connection closes — but the *request* is safe to resend on a
        // fresh connection.
        FrameError::BadMagic | FrameError::BadChecksum => (498, true),
        FrameError::Truncated | FrameError::Io(_) => (499, true),
        FrameError::Oversized { .. } => (413, false),
    }
}

fn send(conn: &mut Conn, frame: &RespFrame) -> io::Result<()> {
    write_frame(conn, &frame.encode())?;
    conn.flush()
}

/// Serves one connection until disconnect, shutdown or an
/// unrecoverable framing error. Never panics; all errors end the
/// connection quietly.
fn handle_connection(service: &Service, mut conn: Conn, stop: &AtomicBool) {
    loop {
        // Poll for the first byte of the next request with a short
        // timeout, so shutdown drains promptly between requests.
        if conn
            .set_read_timeout(Some(Duration::from_millis(50)))
            .is_err()
        {
            return;
        }
        let mut first = [0u8; 1];
        match conn.read(&mut first) {
            Ok(0) => return, // clean disconnect
            Ok(_) => {}
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if stop.load(Ordering::Relaxed) || service.draining() {
                    return;
                }
                continue;
            }
            Err(_) => return,
        }

        // A frame is arriving: read the rest patiently but bounded, so
        // one stalled client cannot pin its handler forever.
        if conn
            .set_read_timeout(Some(Duration::from_secs(10)))
            .is_err()
        {
            return;
        }
        let payload = {
            let mut reader = Prepend {
                first: Some(first[0]),
                inner: &mut conn,
            };
            read_frame(&mut reader, MAX_FRAME_BYTES)
        };
        match payload {
            Ok(Some(payload)) => {
                if respond(service, &mut conn, &payload).is_err() {
                    return; // client went away mid-response
                }
            }
            Ok(None) => return,
            Err(err) => {
                let (code, retryable) = classify(&err);
                let _ = send(
                    &mut conn,
                    &RespFrame::Error {
                        code,
                        retryable,
                        message: format!("bad frame: {err}"),
                    },
                );
                return; // cannot resync a corrupted stream
            }
        }
    }
}

fn respond(service: &Service, conn: &mut Conn, payload: &[u8]) -> io::Result<()> {
    let text = match std::str::from_utf8(payload) {
        Ok(text) => text,
        Err(_) => {
            return send(
                conn,
                &RespFrame::Error {
                    code: 400,
                    retryable: false,
                    message: "request is not UTF-8".to_owned(),
                },
            )
        }
    };
    let job = match JobSpec::parse(text) {
        Ok(job) => job,
        Err(msg) => {
            return send(
                conn,
                &RespFrame::Error {
                    code: 400,
                    retryable: false,
                    message: msg,
                },
            )
        }
    };
    let (outcome, dedup) = service.submit(&job);
    match outcome.as_ref() {
        Ok(result) => {
            for section in &result.sections {
                send(
                    conn,
                    &RespFrame::Section {
                        name: section.name.clone(),
                        content: section.content.clone(),
                    },
                )?;
            }
            send(
                conn,
                &RespFrame::Done {
                    sections: result.sections.len(),
                    dedup,
                },
            )
        }
        Err(failure) => send(
            conn,
            &RespFrame::Error {
                code: failure.code,
                retryable: failure.retryable,
                message: failure.message.clone(),
            },
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Client;

    #[test]
    fn finished_connection_threads_are_reaped() {
        let path = std::env::temp_dir().join(format!("bisram-reap-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let config = DaemonConfig {
            #[cfg(unix)]
            listen: Listen::Unix(path),
            #[cfg(not(unix))]
            listen: Listen::Tcp("127.0.0.1:0".to_owned()),
            jobs: Some(1),
        };
        let daemon = Daemon::start_with_service(&config, Arc::new(Service::cold())).expect("bind");
        for i in 0..40 {
            let mut client = Client::connect(daemon.listen()).expect("connect");
            client.ping().expect("ping");
            // The accept that spawned this connection's thread joined
            // every earlier one, which had all exited.
            assert_eq!(daemon.connection_threads().0, 1, "connection {i}");
            drop(client);
            let deadline = std::time::Instant::now() + Duration::from_secs(10);
            while daemon.connection_threads().1 < 1 {
                assert!(
                    std::time::Instant::now() < deadline,
                    "connection {i} never ended"
                );
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        daemon.stop();
        daemon.join();
    }
}
