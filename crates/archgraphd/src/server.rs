//! The daemon's accept loop and per-connection protocol handler.
//!
//! The listener is a Unix-domain socket: local, permission-scoped, and
//! removed on shutdown.
//!
//! No timer sits on the serving path. The listener is non-blocking and
//! the accept loop parks in a readiness wait — `poll(2)` on the listener
//! descriptor — so a connection is accepted when it arrives. The wait is
//! bounded by `POLL` only so that a `stop` flag stored by an in-process
//! owner (no socket traffic) is still noticed; a `shutdown` op from any
//! client sets the same flag, and a SIGTERM/SIGINT flagged by the shared
//! [`archgraph_bench::signals`] handler interrupts the wait (`EINTR`) and
//! is seen at once. Either ends the loop, after which the scheduler
//! drains gracefully (in-flight cells finish and are cached, queued cells
//! flush to their submitters as cancelled), `serve` waits — counted, not
//! guessed — for the reply streams still open to flush their terminal
//! `done` line, and the socket file is removed.
//!
//! Each accepted connection is served by a handler thread reading request
//! lines. A handler whose connection has closed parks and takes the next
//! connection `serve` accepts, so no thread is started between an accept
//! and the first read unless every handler is busy; parked handlers exit
//! when `serve` returns. A malformed line — bad JSON, or bytes that are
//! not UTF-8 — answers with a structured error and keeps the connection, and a
//! connection whose handler thread cannot be started is answered `server
//! busy` rather than dropped. Input is bounded before it is buffered: a
//! line longer than `MAX_LINE` answers one error and closes, since
//! nothing cheap finds the next request in an endless line. Replies go
//! through one buffered writer flushed per protocol line (`reply`), so a
//! line is one `write(2)`, except that a job's lines already waiting are
//! flushed together (`stream_events`): a burst, `accepted` included when
//! results wait behind it, is one `write(2)` per 8 KiB buffer-full.
//! Handler threads are detached — one still streaming dies with the
//! process after the drain, and a client mid-`submit` whose stream ends
//! simply resubmits after restart, where the result cache makes the replay
//! nearly free.
//!
//! Reached by: every `archgraphd` op (the socket loop).

use std::convert::Infallible;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::os::unix::fs::MetadataExt;
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

use crate::protocol::{self, Request};
use crate::queue::{Event, Scheduler};
use crate::stages::Stage;

/// The longest the accept loop parks before re-reading `stop`. A pending
/// connection or a signal ends the park early, so this bounds only how
/// late a `stop` stored from outside (no socket traffic) is noticed.
const POLL: Duration = Duration::from_millis(50);

/// The longest `serve` waits, after the scheduler has drained, for open
/// reply streams to flush their terminal lines: a client that stopped
/// reading must not hold shutdown.
const DRAIN_CAP: Duration = Duration::from_millis(100);

/// The longest request line the handler buffers; a 64-cell submit is
/// about 8 KB.
const MAX_LINE: usize = 1 << 20;

/// Where the daemon listens (or a client connects). One variant: the
/// frozen `benchmarks/` package constructs `Endpoint::Unix`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A Unix-domain socket at this path.
    Unix(PathBuf),
}

impl Endpoint {
    /// Human-readable form for log lines.
    pub fn describe(&self) -> String {
        let Endpoint::Unix(path) = self;
        format!("unix:{}", path.display())
    }
}

/// One accepted (or dialed) connection.
pub type Conn = UnixStream;

/// The identity of a bound socket file: `(st_dev, st_ino)`. Recorded at
/// bind time so shutdown only unlinks the path if it still names *our*
/// socket — a daemon that lost a reclaim race must not delete a newer
/// daemon's live socket.
type FileId = (u64, u64);

fn file_id(path: &std::path::Path) -> Option<FileId> {
    std::fs::symlink_metadata(path)
        .ok()
        .map(|m| (m.dev(), m.ino()))
}

/// A bound listening socket: the listener, the path to unlink on
/// shutdown, and the socket file's identity as bound (to detect losing
/// the path to a newer daemon).
#[derive(Debug)]
pub struct Listener {
    listener: UnixListener,
    path: PathBuf,
    id: Option<FileId>,
}

/// Bind the endpoint. A socket path left behind by a killed daemon (the
/// file exists but nothing answers) is reclaimed automatically; a *live*
/// daemon on the same path is an error — two daemons must not fight over
/// one socket.
pub fn bind(ep: &Endpoint) -> io::Result<Listener> {
    let Endpoint::Unix(path) = ep;
    if path.exists() {
        match UnixStream::connect(path) {
            Ok(_) => {
                return Err(io::Error::new(
                    io::ErrorKind::AddrInUse,
                    format!("another archgraphd is already serving {}", path.display()),
                ))
            }
            // Dead socket file (daemon was killed): reclaim it.
            Err(_) => {
                let _ = std::fs::remove_file(path);
            }
        }
    }
    let listener = UnixListener::bind(path)?;
    listener.set_nonblocking(true)?;
    Ok(Listener {
        listener,
        path: path.clone(),
        id: file_id(path),
    })
}

/// Dial the endpoint (client side).
pub fn connect(ep: &Endpoint) -> io::Result<Conn> {
    let Endpoint::Unix(path) = ep;
    UnixStream::connect(path)
}

/// `poll(2)` for readability on one descriptor, declared directly as
/// [`archgraph_bench::signals`] declares `signal(2)` — no `libc` crate.
/// True when `fd` became readable within `timeout`; false on a timeout
/// and on `EINTR`, which returns early so that the caller sees a signal
/// flagged by its handler at once. A negative `fd` is ignored by the
/// kernel, which makes the call a plain interruptible wait.
fn poll_readable(fd: RawFd, timeout: Duration) -> bool {
    use std::os::raw::{c_int, c_short};

    #[repr(C)]
    struct PollFd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }
    /// `POLLIN` on every Unix the workspace targets.
    const POLLIN: c_short = 0x001;
    #[cfg(any(target_os = "linux", target_os = "android"))]
    type Nfds = std::os::raw::c_ulong;
    #[cfg(not(any(target_os = "linux", target_os = "android")))]
    type Nfds = std::os::raw::c_uint;
    extern "C" {
        fn poll(fds: *mut PollFd, nfds: Nfds, timeout: c_int) -> c_int;
    }

    let mut pfd = PollFd {
        fd,
        events: POLLIN,
        revents: 0,
    };
    let ms = c_int::try_from(timeout.as_millis()).unwrap_or(c_int::MAX);
    // SAFETY: `pfd` is one live, exclusively borrowed `struct pollfd`
    // (`#[repr(C)]`, the platform's field order and widths) and `nfds`
    // is 1, so the kernel reads and writes exactly that struct and
    // nothing else; `poll` keeps no pointer past its return.
    let ready = unsafe { poll(&mut pfd, 1, ms) };
    ready > 0
}

impl Listener {
    fn accept(&self) -> io::Result<Conn> {
        self.listener.accept().map(|(s, _)| s)
    }

    /// Park until a connection is pending or `timeout` elapses, whichever
    /// is first; true when one is pending. A signal ends the park early.
    fn wait_readable(&self, timeout: Duration) -> bool {
        poll_readable(self.listener.as_raw_fd(), timeout)
    }

    /// Unlink the socket path — but only while it still names the
    /// socket *we* bound. If a newer daemon reclaimed the path (after
    /// this one's file was removed out from under it), the inode no
    /// longer matches and the path is left alone.
    fn cleanup(&self) {
        if self.id.is_some() && file_id(&self.path) == self.id {
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

/// The reply streams still open — handlers inside [`stream_job`] — for
/// the end of `serve` to wait on. After the scheduler has drained, every
/// event of every job is already in its handler's channel; what remains
/// is for the handlers to write them out, and this counts them doing it.
#[derive(Default)]
struct OpenStreams {
    count: Mutex<usize>,
    none_left: Condvar,
}

/// One open reply stream; dropping it closes the count.
struct OpenStream<'a>(&'a OpenStreams);

impl OpenStreams {
    // A poisoned lock still holds a valid count: every update is one
    // add or subtract.
    fn open(&self) -> OpenStream<'_> {
        *self.count.lock().unwrap_or_else(PoisonError::into_inner) += 1;
        OpenStream(self)
    }

    /// Block until no reply stream is open, or `cap` has passed.
    fn wait_none(&self, cap: Duration) {
        let count = self.count.lock().unwrap_or_else(PoisonError::into_inner);
        let _ = self.none_left.wait_timeout_while(count, cap, |n| *n > 0);
    }
}

impl Drop for OpenStream<'_> {
    fn drop(&mut self) {
        let mut count = self.0.count.lock().unwrap_or_else(PoisonError::into_inner);
        *count -= 1;
        if *count == 0 {
            self.0.none_left.notify_all();
        }
    }
}

/// An accepted connection and when it was accepted.
type Accepted = (Conn, Instant);

/// The handlers parked between connections: one sender each, on which
/// `serve` hands a parked handler its next connection. `None` once `serve`
/// has returned, so that a handler finishing its connection then exits.
struct Parked {
    idle: Mutex<Option<Vec<mpsc::Sender<Accepted>>>>,
    /// Handler threads started, and those still running.
    #[cfg(test)]
    threads: (
        std::sync::atomic::AtomicUsize,
        std::sync::atomic::AtomicUsize,
    ),
}

impl Parked {
    fn new() -> Parked {
        Parked {
            idle: Mutex::new(Some(Vec::new())),
            #[cfg(test)]
            threads: Default::default(),
        }
    }

    // A poisoned lock still holds a valid list: every update is one push,
    // pop or take.
    fn idle(&self) -> std::sync::MutexGuard<'_, Option<Vec<mpsc::Sender<Accepted>>>> {
        self.idle.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Give `conn` to the handler parked last; hand it back when none is.
    fn take(&self, mut conn: Accepted) -> Result<(), Accepted> {
        loop {
            let Some(handler) = self.idle().as_mut().and_then(Vec::pop) else {
                return Err(conn);
            };
            match handler.send(conn) {
                Ok(()) => return Ok(()),
                // That handler is gone; try the next one.
                Err(mpsc::SendError(back)) => conn = back,
            }
        }
    }

    /// Park the calling handler until `serve` gives it a connection;
    /// `None` once `serve` has returned.
    fn park(&self) -> Option<Accepted> {
        let (tx, rx) = mpsc::channel();
        self.idle().as_mut()?.push(tx);
        rx.recv().ok()
    }

    /// Wake every parked handler to exit, and send later ones away.
    fn close(&self) {
        self.idle().take();
    }
}

/// Run the daemon until a `shutdown` op or a pending SIGTERM/SIGINT,
/// then drain the scheduler and remove the socket. Returns the reason
/// ("shutdown op" or the signal name) for the final log line.
///
/// `_token` and `_idle_timeout` are always `None`; removed with ROADMAP
/// 11(b). They stay only because the frozen `benchmarks/` package calls
/// `serve(listener, sched, stop, None, None)`.
pub fn serve(
    listener: Listener,
    sched: Arc<Scheduler>,
    stop: Arc<AtomicBool>,
    _token: Option<Infallible>,
    _idle_timeout: Option<Infallible>,
) -> &'static str {
    serve_parking(listener, sched, stop, Arc::new(Parked::new()))
}

/// [`serve`], its handlers parking in `parked`.
fn serve_parking(
    listener: Listener,
    sched: Arc<Scheduler>,
    stop: Arc<AtomicBool>,
    parked: Arc<Parked>,
) -> &'static str {
    let streams = Arc::new(OpenStreams::default());
    // Accept error kinds already logged since the last accept that worked.
    let mut logged: Vec<io::ErrorKind> = Vec::new();
    let reason = loop {
        if stop.load(Ordering::SeqCst) {
            break "shutdown op";
        }
        if let Some(signo) = archgraph_bench::signals::pending() {
            break if signo == archgraph_bench::signals::SIGTERM {
                "SIGTERM"
            } else {
                "SIGINT"
            };
        }
        match listener.accept() {
            Ok(conn) => {
                logged.clear();
                let Err((conn, accepted)) = parked.take((conn, Instant::now())) else {
                    continue;
                };
                let sched = Arc::clone(&sched);
                let stop = Arc::clone(&stop);
                let streams = Arc::clone(&streams);
                let parked = Arc::clone(&parked);
                // Detached: a handler still streaming dies with the process
                // after the drain.
                hand_off(
                    conn,
                    |handler| {
                        thread::Builder::new()
                            .name("archgraphd-client".to_string())
                            .spawn(handler)
                            .map(drop)
                    },
                    move |conn| {
                        #[cfg(test)]
                        let _running = parked.count_thread();
                        let mut next = Some((conn, accepted));
                        while let Some((conn, accepted)) = next {
                            handle_client(conn, accepted, &sched, &stop, &streams);
                            next = parked.park();
                        }
                    },
                );
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                listener.wait_readable(POLL);
            }
            Err(e) => {
                if !logged.contains(&e.kind()) {
                    logged.push(e.kind());
                    eprintln!("archgraphd: accept error: {e}");
                }
                // The refused connection may still be pending (EMFILE),
                // which keeps the listener readable: back off without
                // watching it, or this arm would spin.
                poll_readable(-1, POLL);
            }
        }
    };
    // Graceful drain: send the parked handlers away, finish in-flight cells
    // (caching them), flush the queued remainder as cancelled, wait for
    // the handler threads to write their terminal lines, then release the
    // socket.
    parked.close();
    sched.shutdown_and_join();
    streams.wait_none(DRAIN_CAP);
    listener.cleanup();
    reason
}

/// Start `handler` on `conn` through `spawn`. When the thread cannot be
/// started the closure — and the connection in it — is gone, so a second
/// handle is kept to answer one structured line; the client then sees a
/// reason, not a bare EOF. `spawn` is a parameter so a test can refuse.
fn hand_off(
    conn: Conn,
    spawn: impl FnOnce(Box<dyn FnOnce() + Send>) -> io::Result<()>,
    handler: impl FnOnce(Conn) + Send + 'static,
) {
    let spare = conn.try_clone();
    if let Err(e) = spawn(Box::new(move || handler(conn))) {
        eprintln!("archgraphd: cannot start a handler thread: {e}");
        if let Ok(mut spare) = spare {
            let line = protocol::error(&format!("server busy: {e}"));
            let _ = spare.write_all(format!("{line}\n").as_bytes());
        }
    }
}

/// One connection's request loop. Returns when the client disconnects,
/// a write fails, a line exceeds the cap, or the client asked for
/// shutdown. Each answered request's stages go into the scheduler's
/// histograms once its reply is out, the `accept` stage (from `accepted`)
/// with the connection's first.
fn handle_client(
    conn: Conn,
    accepted: Instant,
    sched: &Scheduler,
    stop: &AtomicBool,
    streams: &OpenStreams,
) {
    let mut accept = Some(accepted.elapsed());
    let Ok(read_half) = conn.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut w = BufWriter::new(conn);
    let stages = sched.stages();
    loop {
        let read_at = Instant::now();
        let line = read_line(&mut reader);
        let parse_at = Instant::now();
        let request = match line {
            Ok(Line::Text(line)) if line.trim().is_empty() => continue,
            Ok(Line::Text(line)) => protocol::parse_request(&line),
            Ok(Line::NotUtf8) => Err("malformed request: not UTF-8".to_string()),
            Ok(Line::TooLong) => {
                // One structured line, then the close.
                let too_long = format!("request line exceeds {MAX_LINE} bytes");
                let _ = reply(&mut w, &protocol::error(&too_long));
                return;
            }
            Ok(Line::Eof) | Err(_) => return,
        };
        let reply_at = Instant::now();
        let mut admission = None;
        let ok = match request {
            Err(msg) => reply(&mut w, &protocol::error(&msg)),
            Ok(Request::Ping) => reply(&mut w, &protocol::pong()),
            Ok(Request::Status) => reply(&mut w, &protocol::status(&sched.snapshot())),
            Ok(Request::Cancel { job }) => {
                if sched.cancel(&job) {
                    reply(&mut w, &protocol::cancelled(&job))
                } else {
                    reply(&mut w, &protocol::error(&format!("unknown job {job:?}")))
                }
            }
            Ok(Request::Shutdown) => {
                let _ = reply(&mut w, &protocol::bye());
                stop.store(true, Ordering::SeqCst);
                return;
            }
            Ok(Request::List) => reply(&mut w, &protocol::list_line(&sched.list())),
            Ok(Request::Submit { cells }) => {
                stream_job(&mut w, sched, streams, cells, &mut admission)
            }
        };
        let replied = reply_at.elapsed();
        if let Some(d) = accept.take() {
            stages.record(Stage::Accept, d);
        }
        stages.record(Stage::Read, parse_at - read_at);
        stages.record(Stage::Parse, reply_at - parse_at);
        if let Some(d) = admission {
            stages.record(Stage::Admission, d);
        }
        stages.record(
            Stage::Flush,
            replied.saturating_sub(admission.unwrap_or_default()),
        );
        if ok.is_err() {
            return;
        }
    }
}

/// One protocol line out: text, newline, flush. Buffered so that the line
/// is one `write(2)`; `writeln!` on the bare socket is one for the text
/// and one for the newline.
fn reply(w: &mut impl Write, line: &str) -> io::Result<()> {
    put(w, line)?;
    w.flush()
}

/// One protocol line into the buffer, not yet flushed.
fn put(w: &mut impl Write, line: &str) -> io::Result<()> {
    w.write_all(line.as_bytes())?;
    w.write_all(b"\n")
}

/// What [`read_line`] found on the request stream.
enum Line {
    /// One line, its terminator stripped (or the last one, cut off by EOF).
    Text(String),
    /// One whole line, consumed, that is not UTF-8.
    NotUtf8,
    /// More than [`MAX_LINE`] bytes and no newline yet; the rest is unread.
    TooLong,
    /// The peer hung up between lines.
    Eof,
}

/// `BufRead::lines` with a bound: never buffers more than [`MAX_LINE`]
/// bytes and a terminator, whatever the peer sends.
fn read_line(reader: &mut impl BufRead) -> io::Result<Line> {
    let mut buf = Vec::new();
    let cap = MAX_LINE as u64 + 1;
    if reader.take(cap).read_until(b'\n', &mut buf)? == 0 {
        return Ok(Line::Eof);
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
    } else if buf.len() > MAX_LINE {
        return Ok(Line::TooLong);
    }
    Ok(String::from_utf8(buf).map_or(Line::NotUtf8, Line::Text))
}

/// Submit a job and stream its events until the terminal `done` line.
/// The stream counts as open until that line has been flushed;
/// `admission` is set to how long `submit` took.
fn stream_job(
    w: &mut BufWriter<Conn>,
    sched: &Scheduler,
    streams: &OpenStreams,
    cells: Vec<archgraph_bench::CellSpec>,
    admission: &mut Option<Duration>,
) -> io::Result<()> {
    let _open = streams.open();
    let (tx, rx) = mpsc::channel();
    let submitted = Instant::now();
    let admitted = sched.submit(cells, None, None, tx);
    *admission = Some(submitted.elapsed());
    let (job, n) = match admitted {
        Ok(accepted) => accepted,
        Err(msg) => return reply(w, &protocol::error(&msg)),
    };
    stream_events(w, &job, n, &rx)
}

/// The reply stream of an accepted job: the `accepted` line, then the
/// events. Every event already waiting goes into the buffer behind what
/// is there and the burst is flushed once, and the buffer is flushed
/// before each wait, so a line is never held back for an event that has
/// not been sent yet. A warm resubmit's events are all waiting when the
/// job is accepted (the scheduler answers cache hits at admission), so
/// `accepted`, its result lines and `done` are one `write(2)`; a cold
/// job's `accepted` goes out at once, on its own.
fn stream_events(
    w: &mut impl Write,
    job: &str,
    cells: usize,
    rx: &mpsc::Receiver<Event>,
) -> io::Result<()> {
    put(w, &protocol::accepted(job, cells))?;
    let mut waiting = rx.try_recv().ok();
    loop {
        let first = match waiting.take() {
            Some(event) => event,
            None => {
                w.flush()?;
                match rx.recv() {
                    Ok(event) => event,
                    Err(_) => break,
                }
            }
        };
        for event in std::iter::once(first).chain(rx.try_iter()) {
            match event {
                Event::Cell(ev) => put(w, &protocol::cell_line(job, &ev))?,
                Event::Done(sum) => return reply(w, &protocol::done_line(job, &sum)),
            }
        }
    }
    // The channel closed without a Done event — only possible if the
    // scheduler dropped the job, which it never does; report it rather
    // than hanging the client.
    reply(w, &protocol::error("job stream ended unexpectedly"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::Cache;
    use crate::json::Json;
    use crate::queue::Runner;
    use std::time::Instant;

    /// What 20 connections cost when each waits out half an accept tick
    /// on average; the parent commit took twice this.
    const TWENTY_HALF_TICKS: Duration = Duration::from_millis(500);

    fn temp_socket(name: &str) -> PathBuf {
        let path = std::env::temp_dir().join(format!(
            "archgraphd-server-test-{}-{name}.sock",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        path
    }

    /// `serve` on its own thread, as `benchmarks/` and any other
    /// in-process owner runs it: stopped by storing `stop`.
    fn serve_on_thread(
        listener: Listener,
        sched: Arc<Scheduler>,
    ) -> (Arc<AtomicBool>, thread::JoinHandle<&'static str>) {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let serving = thread::spawn(move || serve(listener, sched, flag, None, None));
        (stop, serving)
    }

    fn idle_scheduler() -> Arc<Scheduler> {
        let never: Runner = Arc::new(|_| Err("no cell runs in this test".to_string()));
        Arc::new(Scheduler::new(1, 8, Cache::disabled(), never))
    }

    /// Dial, send one request line, return the reader and the reply.
    fn request(ep: &Endpoint, line: &str) -> (BufReader<Conn>, String) {
        let mut conn = connect(ep).expect("dial the daemon");
        conn.write_all(format!("{line}\n").as_bytes())
            .expect("send the request");
        let mut reader = BufReader::new(conn);
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("read the reply");
        (reader, reply)
    }

    /// Serve `listener`, time 20 `ping`s each on a fresh connection, stop.
    fn twenty_fresh_pings(listener: Listener, ep: &Endpoint) -> Duration {
        let (stop, serving) = serve_on_thread(listener, idle_scheduler());
        let t0 = Instant::now();
        for _ in 0..20 {
            let (_, reply) = request(ep, r#"{"op":"ping"}"#);
            assert_eq!(reply.trim_end(), protocol::pong());
        }
        let took = t0.elapsed();
        stop.store(true, Ordering::SeqCst);
        serving.join().expect("serve returns");
        took
    }

    #[test]
    fn fresh_unix_connections_are_served_on_arrival_not_at_the_next_tick() {
        let ep = Endpoint::Unix(temp_socket("pings"));
        let took = twenty_fresh_pings(bind(&ep).expect("bind"), &ep);
        assert!(took < TWENTY_HALF_TICKS, "20 pings took {took:?}");
    }

    #[test]
    fn the_readiness_wait_times_out_when_idle_and_returns_when_a_connection_is_pending() {
        let path = temp_socket("readiness");
        let listener = bind(&Endpoint::Unix(path.clone())).expect("bind");

        let t0 = Instant::now();
        assert!(!listener.wait_readable(Duration::from_millis(60)));
        assert!(
            t0.elapsed() >= Duration::from_millis(50),
            "an idle wait lasts its timeout, not {:?}",
            t0.elapsed()
        );

        let _pending = UnixStream::connect(&path).expect("dial");
        let t0 = Instant::now();
        assert!(listener.wait_readable(Duration::from_secs(30)));
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "a pending connection ends the wait, not the timeout"
        );
        // Still pending until accepted: the wait is level-triggered.
        assert!(listener.wait_readable(Duration::ZERO));
        listener.accept().expect("the pending connection");
        assert!(!listener.wait_readable(Duration::ZERO));
        listener.cleanup();
    }

    #[test]
    fn an_externally_stored_stop_ends_serve_and_removes_the_socket() {
        let path = temp_socket("stop");
        let listener = bind(&Endpoint::Unix(path.clone())).expect("bind");
        let (stop, serving) = serve_on_thread(listener, idle_scheduler());
        assert!(path.exists());

        // No socket traffic at all: only the flag.
        let t0 = Instant::now();
        stop.store(true, Ordering::SeqCst);
        assert_eq!(serving.join().expect("serve returns"), "shutdown op");
        assert!(
            t0.elapsed() < Duration::from_secs(1),
            "stop noticed after {:?}",
            t0.elapsed()
        );
        assert!(!path.exists(), "serve removes its socket file");
    }

    #[test]
    fn serve_waits_for_an_open_reply_stream_but_no_longer_than_the_drain_cap() {
        // One cell whose result line is larger than a socket buffer, sent
        // to a client that reads `accepted` and then stops reading: the
        // handler stays blocked in its write, the stream stays open.
        let (started_tx, started) = mpsc::channel();
        let huge: Runner = Arc::new(move |_| {
            let _ = started_tx.send(());
            Ok(vec![("x".repeat(4 << 20), 1)])
        });
        let sched = Arc::new(Scheduler::new(1, 8, Cache::disabled(), huge));
        let ep = Endpoint::Unix(temp_socket("drain"));
        let (stop, serving) = serve_on_thread(bind(&ep).expect("bind"), sched);
        let submit =
            r#"{"op":"submit","cells":[{"kernel":"color","machine":"smp","p":1,"n":64,"m":128}]}"#;
        let (_not_reading, accepted) = request(&ep, submit);
        assert!(accepted.contains(r#""type":"accepted""#), "{accepted}");
        // In flight, so the drain finishes the cell rather than cancel it.
        started.recv().expect("the cell runs");

        let t0 = Instant::now();
        stop.store(true, Ordering::SeqCst);
        serving.join().expect("serve returns");
        let took = t0.elapsed();
        assert!(
            took >= DRAIN_CAP,
            "serve left an open stream behind after {took:?}"
        );
        assert!(
            took < Duration::from_secs(5),
            "a client that stopped reading held shutdown for {took:?}"
        );
    }

    #[test]
    fn a_connection_whose_handler_thread_cannot_start_gets_one_busy_line() {
        let (ours, theirs) = UnixStream::pair().expect("socket pair");
        hand_off(
            theirs,
            |_handler| Err(io::Error::new(io::ErrorKind::WouldBlock, "no threads left")),
            |_conn| unreachable!("the refused handler never runs"),
        );
        // Every daemon-side handle is gone: one line, then EOF.
        let mut reply = String::new();
        BufReader::new(ours)
            .read_to_string(&mut reply)
            .expect("read to EOF");
        let line = reply.strip_suffix('\n').expect("one whole line");
        assert!(!line.contains('\n'), "exactly one line: {reply:?}");
        let v = Json::parse(line).expect("well-formed line");
        assert_eq!(v.get("type").and_then(Json::as_str), Some("error"));
        let message = v.get("message").and_then(Json::as_str).expect("message");
        assert!(message.starts_with("server busy: "), "{message}");
        assert!(message.contains("no threads left"), "{message}");
    }

    /// Counts one handler thread as started, and as running until dropped.
    pub(super) struct Running<'a>(&'a Parked);

    impl Parked {
        pub(super) fn count_thread(&self) -> Running<'_> {
            self.threads.0.fetch_add(1, Ordering::SeqCst);
            self.threads.1.fetch_add(1, Ordering::SeqCst);
            Running(self)
        }

        fn parked_now(&self) -> usize {
            self.idle().as_ref().map_or(0, Vec::len)
        }
    }

    impl Drop for Running<'_> {
        fn drop(&mut self) {
            self.0.threads.1.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// Poll `done` every millisecond; fail with `what` after ten seconds.
    fn wait_until(what: &str, done: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !done() {
            assert!(Instant::now() < deadline, "{what}");
            thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn fresh_connections_reuse_a_parked_handler_and_none_outlives_serve() {
        let ep = Endpoint::Unix(temp_socket("reuse"));
        let listener = bind(&ep).expect("bind");
        let parked = Arc::new(Parked::new());
        let stop = Arc::new(AtomicBool::new(false));
        let serving = {
            let (stop, parked) = (Arc::clone(&stop), Arc::clone(&parked));
            thread::spawn(move || serve_parking(listener, idle_scheduler(), stop, parked))
        };
        for i in 0..20 {
            if i > 0 {
                // The last connection is closed; its handler parks.
                wait_until("a handler parks", || parked.parked_now() >= 1);
            }
            let (_, reply) = request(&ep, r#"{"op":"ping"}"#);
            assert_eq!(reply.trim_end(), protocol::pong());
        }
        let started = parked.threads.0.load(Ordering::SeqCst);
        assert!(started <= 2, "20 connections started {started} threads");
        stop.store(true, Ordering::SeqCst);
        serving.join().expect("serve returns");
        wait_until("the parked handlers exit", || {
            parked.threads.1.load(Ordering::SeqCst) == 0
        });
        assert!(parked.idle().is_none(), "a late handler is sent away");
    }

    #[test]
    fn status_counts_each_stage_of_every_warm_submit_once() {
        use archgraph_bench::cells::{CellSpec, Kernel, MachineKind};
        const K: u64 = 5;
        let dir = std::env::temp_dir().join(format!(
            "archgraphd-server-test-{}-stages",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let warm = Cache::open(dir.clone());
        for n in [64, 96] {
            let mut spec = CellSpec::new(Kernel::Color, MachineKind::Smp, 1);
            (spec.n, spec.m) = (n, 2 * n);
            warm.record(&spec, &[("instructions".to_string(), n as u64)]);
        }
        let bytes = warm.usage().bytes;
        drop(warm);
        let never: Runner = Arc::new(|_| Err("every cell is cached".to_string()));
        let sched = Arc::new(Scheduler::new(1, 8, Cache::open(dir.clone()), never));
        let ep = Endpoint::Unix(temp_socket("stages"));
        let (stop, serving) = serve_on_thread(bind(&ep).expect("bind"), Arc::clone(&sched));

        let submit = concat!(
            r#"{"op":"submit","cells":[{"kernel":"color","machine":"smp","p":1,"n":64,"m":128},"#,
            r#"{"kernel":"color","machine":"smp","p":1,"n":96,"m":192}]}"#
        );
        for _ in 0..K {
            let (mut reader, accepted) = request(&ep, submit);
            assert!(accepted.contains(r#""type":"accepted""#), "{accepted}");
            let mut line = String::new();
            while !line.contains(r#""type":"done""#) {
                line.clear();
                reader.read_line(&mut line).expect("read up to done");
            }
        }
        // A request's stages land just after its last line is written;
        // wait for the K-th submit's without sending a request.
        wait_until("the last submit's stages", || {
            sched.snapshot().stages[4].1.count == K
        });
        let (_, line) = request(&ep, r#"{"op":"status"}"#);
        stop.store(true, Ordering::SeqCst);
        serving.join().expect("serve returns");
        let _ = std::fs::remove_dir_all(&dir);

        // The fields before the stages object, byte for byte; the object
        // is appended last.
        let (head, tail) = line.split_once(r#","stages":"#).expect("a stages object");
        assert_eq!(
            head,
            format!(
                concat!(
                    r#"{{"type":"status","workers":1,"queued":0,"inflight":0,"active_jobs":0,"#,
                    r#""jobs":{},"cells_run":0,"cache_hits":{},"failures":0,"#,
                    r#""cache_entries":2,"cache_bytes":{}"#
                ),
                K,
                2 * K,
                bytes
            )
        );
        assert!(tail.trim_end().ends_with("}}"), "{tail}");
        let v = Json::parse(line.trim_end()).expect("well-formed status");
        let stages = v.get("stages").and_then(Json::as_obj).expect("object");
        let names = [
            "accept",
            "read",
            "parse",
            "admission",
            "flush",
            "queue_wait",
            "run",
            "store",
        ];
        let order: Vec<usize> = names
            .iter()
            .map(|n| tail.find(&format!(r#""{n}":{{"count""#)).expect(n))
            .collect();
        assert!(order.windows(2).all(|w| w[0] < w[1]), "stage order");
        assert_eq!(stages.len(), names.len(), "no other stage");
        for (i, name) in names.iter().enumerate() {
            let stage = &stages[*name];
            let count = stage.get("count").and_then(Json::as_u64).expect("count");
            // Nothing is pulled: every cell hit at admission.
            assert_eq!(count, if i < 5 { K } else { 0 }, "{name}");
            let buckets = stage.get("log2_us").and_then(Json::as_arr).expect(name);
            assert_eq!(buckets.len(), crate::stages::BUCKETS, "{name}");
            let sum: u64 = buckets.iter().map(|b| b.as_u64().expect("u64")).sum();
            assert_eq!(sum, count, "{name}: buckets sum to the count");
            assert!(
                stage.get("sum_ns").and_then(Json::as_u64).is_some(),
                "{name}"
            );
        }
    }

    /// A handler on one end of a socket pair, as `serve` would start it.
    fn handler_on_a_pair() -> (UnixStream, thread::JoinHandle<()>) {
        let (ours, theirs) = UnixStream::pair().expect("socket pair");
        let handler = thread::spawn(move || {
            let (stop, streams) = (AtomicBool::new(false), OpenStreams::default());
            let sched = idle_scheduler();
            handle_client(theirs, Instant::now(), &sched, &stop, &streams);
            sched.shutdown_and_join();
        });
        (ours, handler)
    }

    fn error_message(line: &str) -> String {
        let v = Json::parse(line.trim_end()).expect("well-formed line");
        assert_eq!(
            v.get("type").and_then(Json::as_str),
            Some("error"),
            "{line}"
        );
        v.get("message")
            .and_then(Json::as_str)
            .expect("message")
            .to_string()
    }

    #[test]
    fn a_line_past_the_cap_gets_one_error_and_a_close() {
        // The reader stops at the cap whatever follows it.
        let mut endless = io::Cursor::new(vec![b'a'; 2 * MAX_LINE]);
        assert!(matches!(read_line(&mut endless), Ok(Line::TooLong)));
        assert_eq!(endless.position(), MAX_LINE as u64 + 1, "bytes buffered");
        let mut fits = io::Cursor::new([vec![b'a'; MAX_LINE], vec![b'\n']].concat());
        assert!(matches!(read_line(&mut fits), Ok(Line::Text(t)) if t.len() == MAX_LINE));

        let (ours, handler) = handler_on_a_pair();
        let mut sender = ours.try_clone().expect("clone");
        // 2 MiB and no newline; the handler hangs up part-way through.
        let sending = thread::spawn(move || {
            let _ = sender.write_all(&vec![b'a'; 2 * MAX_LINE]);
            let _ = sender.shutdown(std::net::Shutdown::Write);
        });
        let mut reader = BufReader::new(ours);
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("one reply line");
        assert_eq!(error_message(&reply), "request line exceeds 1048576 bytes");
        // Closed: EOF, or a reset because our tail went unread.
        match reader.read_to_end(&mut Vec::new()) {
            Ok(more) => assert_eq!(more, 0, "exactly one line"),
            Err(e) => assert_eq!(e.kind(), io::ErrorKind::ConnectionReset),
        }
        handler.join().expect("handler returns");
        sending.join().expect("sender returns");
    }

    #[test]
    fn a_request_line_near_the_cap_parses_in_linear_time() {
        // A cancel whose job id fills the line up to 64 bytes short of the
        // cap. Rescanning the rest of the line per character is quadratic,
        // minutes on this line; a linear parse takes milliseconds.
        let job = "é".repeat((MAX_LINE - 64) / 2);
        let line = format!(r#"{{"op":"cancel","job":"{job}"}}"#);
        assert!(line.len() <= MAX_LINE);
        let t0 = Instant::now();
        let parsed = protocol::parse_request(&line);
        let took = t0.elapsed();
        assert_eq!(parsed, Ok(Request::Cancel { job }));
        assert!(took < Duration::from_secs(1), "took {took:?}");
    }

    /// A writer that keeps what it is given and counts its flushes,
    /// reporting what had been written at each flush on `flushed`.
    struct Flushes {
        bytes: Vec<u8>,
        flushes: usize,
        flushed: mpsc::Sender<String>,
    }

    impl Flushes {
        fn new(flushed: mpsc::Sender<String>) -> Self {
            Flushes {
                bytes: Vec::new(),
                flushes: 0,
                flushed,
            }
        }
    }

    impl Write for Flushes {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            self.flushes += 1;
            let _ = self
                .flushed
                .send(String::from_utf8(self.bytes.clone()).expect("utf-8"));
            Ok(())
        }
    }

    fn cell_event(index: usize) -> Event {
        Event::Cell(crate::queue::CellEvent {
            index,
            name: format!("cell {index}"),
            key: format!("k{index}"),
            status: crate::queue::CellStatus::Done {
                sim: vec![("cycles".to_string(), 100 + index as u64)],
                cached: true,
            },
        })
    }

    fn done_event(cells: usize) -> Event {
        Event::Done(crate::queue::JobSummary {
            cells,
            ok: cells,
            cached: cells,
            ..Default::default()
        })
    }

    /// What a stream of `events` reads as, one line at a time.
    fn per_line(job: &str, events: &[Event]) -> String {
        let mut text = protocol::accepted(job, events.len() - 1) + "\n";
        for event in events {
            text += &match event {
                Event::Cell(ev) => protocol::cell_line(job, ev),
                Event::Done(sum) => protocol::done_line(job, sum),
            };
            text += "\n";
        }
        text
    }

    #[test]
    fn a_burst_of_ready_results_is_one_flush_with_the_per_line_bytes() {
        let mut events: Vec<Event> = (0..26).map(cell_event).collect();
        events.push(done_event(26));
        let (tx, rx) = mpsc::channel();
        for event in &events {
            tx.send(event.clone()).expect("queued");
        }
        let (flushed, _seen) = mpsc::channel();
        let mut w = Flushes::new(flushed);
        stream_events(&mut w, "j1", 26, &rx).expect("written");
        assert_eq!(String::from_utf8(w.bytes).unwrap(), per_line("j1", &events));
        // `accepted` and the whole burst through `done`, as one.
        assert_eq!(w.flushes, 1);
    }

    #[test]
    fn accepted_waits_only_for_events_already_sent() {
        let events = [cell_event(0), cell_event(1), cell_event(2), done_event(3)];
        let expected = per_line("j1", &events);
        let lines: Vec<&str> = expected.split_inclusive('\n').collect();
        let (tx, rx) = mpsc::channel();
        let (flushed, seen) = mpsc::channel();
        // Two results waiting at acceptance, as a mixed job's hits are.
        tx.send(events[0].clone()).expect("sent");
        tx.send(events[1].clone()).expect("sent");
        let streaming = thread::spawn(move || {
            let mut w = Flushes::new(flushed);
            stream_events(&mut w, "j1", 3, &rx).expect("written");
            w.flushes
        });
        let wait = |what| seen.recv_timeout(Duration::from_secs(10)).expect(what);
        assert_eq!(wait("accepted with the waiting burst"), lines[..3].concat());
        tx.send(events[2].clone()).expect("sent");
        assert_eq!(wait("the late result"), lines[..4].concat());
        tx.send(events[3].clone()).expect("sent");
        assert_eq!(wait("done"), expected);
        assert_eq!(streaming.join().expect("the stream ends at done"), 3);
    }

    #[test]
    fn a_result_line_is_not_held_back_for_an_event_not_yet_sent() {
        let events = [cell_event(0), cell_event(1), done_event(2)];
        let (tx, rx) = mpsc::channel();
        let (flushed, seen) = mpsc::channel();
        let streaming = thread::spawn(move || {
            let mut w = Flushes::new(flushed);
            stream_events(&mut w, "j1", 2, &rx).expect("written");
            w.flushes
        });
        let wait = |what| seen.recv_timeout(Duration::from_secs(10)).expect(what);
        let expected = per_line("j1", &events);
        let lines: Vec<&str> = expected.split_inclusive('\n').collect();
        assert_eq!(wait("accepted"), lines[0]);
        // Each event, sent alone, goes out before the next one is sent.
        for (i, event) in events.iter().enumerate() {
            tx.send(event.clone()).expect("sent");
            assert_eq!(wait("the line just sent"), lines[..i + 2].concat());
        }
        assert_eq!(streaming.join().expect("the stream ends at done"), 4);
    }

    #[test]
    fn a_line_that_is_not_utf8_gets_an_error_and_keeps_the_connection() {
        let (mut ours, handler) = handler_on_a_pair();
        ours.write_all(b"\xff\xfe\n{\"op\":\"ping\"}\n")
            .expect("send");
        let mut reader = BufReader::new(ours.try_clone().expect("clone"));
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("error line");
        assert_eq!(error_message(&reply), "malformed request: not UTF-8");
        reply.clear();
        reader
            .read_line(&mut reply)
            .expect("the connection is still served");
        assert_eq!(reply.trim_end(), protocol::pong());
        drop((ours, reader));
        handler.join().expect("handler returns on EOF");
    }

    #[test]
    fn endpoints_describe_themselves() {
        assert_eq!(
            Endpoint::Unix(PathBuf::from("/tmp/d.sock")).describe(),
            "unix:/tmp/d.sock"
        );
    }

    #[test]
    fn stale_socket_files_are_reclaimed_and_live_ones_refused() {
        let path = std::env::temp_dir().join(format!(
            "archgraphd-server-test-{}.sock",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        // Simulate a daemon killed without cleanup: a dead socket file.
        drop(UnixListener::bind(&path).expect("first bind"));
        assert!(path.exists(), "the socket file outlives the listener");
        let ep = Endpoint::Unix(path.clone());
        let second = bind(&ep).expect("stale socket reclaimed");
        // While it is live, a second daemon must be refused.
        let err = bind(&ep).expect_err("live socket refused");
        assert_eq!(err.kind(), io::ErrorKind::AddrInUse);
        second.cleanup();
        assert!(!path.exists(), "cleanup removes the socket file");
    }

    #[test]
    fn a_superseded_daemon_does_not_unlink_its_successors_socket() {
        let path = std::env::temp_dir().join(format!(
            "archgraphd-server-test-{}-race.sock",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let ep = Endpoint::Unix(path.clone());

        // Daemon A binds, then loses its socket file out from under it
        // (the reclaim race: someone judged it stale and removed it).
        let a = bind(&ep).expect("daemon A binds");
        std::fs::remove_file(&path).expect("A's socket file is removed");
        // Daemon B takes over the path with a fresh socket file.
        let b = bind(&ep).expect("daemon B binds the freed path");
        let b_id = file_id(&path).expect("B's socket file exists");

        // A shutting down must not delete B's live socket.
        a.cleanup();
        assert_eq!(
            file_id(&path),
            Some(b_id),
            "A's cleanup left B's socket in place"
        );
        // B still owns the path, so *its* cleanup removes it.
        b.cleanup();
        assert!(!path.exists(), "B's cleanup removes its own socket");
    }
}
