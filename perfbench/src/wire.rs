//! The served stack on a loopback port, and the load generators that
//! drive it over real sockets.

use crate::scan::{scan, Scanned};
use crate::workload::{quota, Arrival};
use serve::{serve_poll, FrontendConfig, MineService, ServeConfig};
use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A `MineService` behind `serve_poll`, with its client connections open.
pub struct Stack {
    /// The in-process service (for its counters).
    pub svc: MineService,
    /// Client connections, already accepted by the frontend's listener.
    pub conns: Vec<TcpStream>,
    frontend: Option<JoinHandle<io::Result<serve::FrontendStats>>>,
}

impl Stack {
    /// Starts the service and its frontend, opens `conns` connections
    /// and sends each `warm` line on the first one, waiting for a
    /// complete answer. Returns the stack and the time that took: from
    /// `MineService::start` until the first measured request can go out.
    pub fn boot(cfg: ServeConfig, conns: usize, warm: &[String]) -> io::Result<(Stack, Duration)> {
        let t0 = Instant::now();
        let svc = MineService::start(cfg);
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let front = svc.clone();
        let frontend = std::thread::spawn(move || {
            serve_poll(&front, listener, FrontendConfig::default(), Some(conns))
        });
        let mut stack = Stack {
            svc,
            conns: Vec::new(),
            frontend: Some(frontend),
        };
        for _ in 0..conns {
            let s = TcpStream::connect(addr)?;
            s.set_nodelay(true)?;
            stack.conns.push(s);
        }
        if let Some(first) = stack.conns.first() {
            let mut reader = BufReader::new(first);
            let mut buf = Vec::new();
            for line in warm {
                (&*first).write_all(format!("{line}\n").as_bytes())?;
                buf.clear();
                reader.read_until(b'\n', &mut buf)?;
                let got = scan(buf.trim_ascii_end()).map_err(io::Error::other)?;
                if got.outcome != "complete" {
                    return Err(io::Error::other(format!(
                        "warm-up answered {}",
                        got.outcome
                    )));
                }
            }
        }
        Ok((stack, t0.elapsed()))
    }

    /// Closes the connections, joins the frontend and shuts the service
    /// down (which flushes its store, when it has one).
    pub fn stop(mut self) -> io::Result<()> {
        for c in self.conns.drain(..) {
            let _ = c.shutdown(Shutdown::Both);
        }
        let frontend = match self.frontend.take() {
            Some(h) => h
                .join()
                .map_err(|_| io::Error::other("frontend thread panicked"))
                .and_then(|r| r.map(|_| ())),
            None => Ok(()),
        };
        self.svc.shutdown();
        frontend
    }
}

/// One answered request.
#[derive(Debug, Clone)]
pub struct Shot {
    /// When it was due (open loop) or sent (closed loop), ns after the
    /// phase started.
    pub due_ns: u64,
    /// When its line went to the socket.
    pub sent_ns: u64,
    /// When the last byte of its response line arrived.
    pub recv_ns: u64,
    /// Response line length, newline included.
    pub bytes: usize,
    /// The scanned response.
    pub scanned: Result<Scanned, String>,
}

impl Shot {
    /// Latency as the benchmark reports it: from due time to last byte.
    pub fn latency_ms(&self) -> f64 {
        (self.recv_ns.saturating_sub(self.due_ns)) as f64 / 1e6
    }
}

/// What one open-loop phase did.
#[derive(Debug, Default)]
pub struct OpenRun {
    /// Per arrival: its answer, or `None` if unsent or unanswered.
    pub shots: Vec<Option<Shot>>,
    /// Worst send lateness, ms.
    pub late_max_ms: f64,
    /// From the phase start to its last response.
    pub elapsed: Duration,
}

fn ns(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

/// Sends `arrivals` open loop over one connection with two threads: the
/// caller's sleeps until each due time and writes, a reader blocks on
/// the socket and timestamps each response line as it lands, so neither
/// side polls. At the frontend's in-flight quota the next send waits for
/// a response rather than draw a rejection; that shows as lateness and,
/// since latency runs from the due time, in the tail. Responses still
/// owed `drain` after the last send are left unanswered.
pub fn open_loop(
    conn: &TcpStream,
    arrivals: &[Arrival],
    lines: &[Vec<u8>],
    drain: Duration,
) -> io::Result<OpenRun> {
    let start = Instant::now();
    let received = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel();
    let (sent, shots) = std::thread::scope(|s| {
        let received = &received;
        let reader = s.spawn(move || receive(conn, &rx, arrivals, received, start, drain));
        let sent = send(conn, arrivals, lines, &tx, received, start);
        let _ = tx.send(Owed::Done);
        let shots = reader
            .join()
            .map_err(|_| io::Error::other("generator reader panicked"));
        (sent, shots)
    });
    conn.set_read_timeout(None)?;
    let sent = sent?;
    let mut run = OpenRun {
        shots: vec![None; arrivals.len()],
        late_max_ms: sent.late_max_ms,
        elapsed: start.elapsed(),
    };
    for (i, shot) in shots?? {
        run.shots[i] = Some(shot);
    }
    Ok(run)
}

/// Sender-to-reader messages, in send order.
enum Owed {
    /// Arrival `i` went out at this many ns after the start.
    Sent(usize, u64),
    /// Nothing more will be sent.
    Done,
}

#[derive(Default)]
struct Sent {
    sent: usize,
    late_max_ms: f64,
}

fn send(
    conn: &TcpStream,
    arrivals: &[Arrival],
    lines: &[Vec<u8>],
    tx: &mpsc::Sender<Owed>,
    received: &AtomicUsize,
    start: Instant,
) -> io::Result<Sent> {
    let mut out = Sent::default();
    let quota = quota();
    for (i, a) in arrivals.iter().enumerate() {
        let due_ns = a.due_us * 1000;
        let now = ns(start);
        if due_ns > now {
            std::thread::sleep(Duration::from_nanos(due_ns - now));
        }
        // ORDERING: Relaxed — a response counter; the sender only needs
        // an eventually fresh in-flight count, no data rides on it.
        while out.sent - received.load(Ordering::Relaxed) >= quota {
            std::thread::sleep(Duration::from_micros(100));
        }
        let now = ns(start);
        // Announce before writing: the reader must know of a request
        // before its response can arrive.
        tx.send(Owed::Sent(i, now))
            .map_err(|_| io::Error::other("generator reader stopped"))?;
        (&*conn).write_all(&lines[i])?;
        out.sent += 1;
        out.late_max_ms = out.late_max_ms.max(now.saturating_sub(due_ns) as f64 / 1e6);
    }
    Ok(out)
}

/// The reader's view of what the sender has sent.
#[derive(Default)]
struct Owing {
    owed: VecDeque<(usize, u64)>,
    done: bool,
    last_send_ns: u64,
}

impl Owing {
    fn absorb(&mut self, m: Owed) {
        match m {
            Owed::Sent(i, t) => {
                self.owed.push_back((i, t));
                self.last_send_ns = t;
            }
            Owed::Done => self.done = true,
        }
    }

    /// The oldest owed request, waiting for the sender's announcement if
    /// it has not been taken in yet.
    fn next(&mut self, rx: &mpsc::Receiver<Owed>) -> io::Result<(usize, u64)> {
        loop {
            if let Some(o) = self.owed.pop_front() {
                return Ok(o);
            }
            let m = rx
                .recv()
                .map_err(|_| io::Error::other("response without a request"))?;
            self.absorb(m);
        }
    }
}

fn receive(
    conn: &TcpStream,
    rx: &mpsc::Receiver<Owed>,
    arrivals: &[Arrival],
    received: &AtomicUsize,
    start: Instant,
    drain: Duration,
) -> io::Result<Vec<(usize, Shot)>> {
    let mut shots = Vec::with_capacity(arrivals.len());
    let mut st = Owing::default();
    let mut rbuf: Vec<u8> = Vec::with_capacity(1 << 16);
    let mut chunk = vec![0u8; 1 << 16];
    loop {
        while let Ok(m) = rx.try_recv() {
            st.absorb(m);
        }
        if st.owed.is_empty() {
            if st.done {
                return Ok(shots);
            }
            match rx.recv() {
                Ok(m) => st.absorb(m),
                Err(_) => return Ok(shots),
            }
            continue;
        }
        let wait = if st.done {
            let deadline = st.last_send_ns + drain.as_nanos() as u64;
            let now = ns(start);
            if now >= deadline {
                return Ok(shots);
            }
            Duration::from_nanos(deadline - now)
        } else {
            drain
        };
        conn.set_read_timeout(Some(wait))?;
        match (&*conn).read(&mut chunk) {
            Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(k) => {
                let recv_ns = ns(start);
                let scanned_to = rbuf.len();
                rbuf.extend_from_slice(&chunk[..k]);
                let mut next_owed = || st.next(rx);
                let n = take_lines(
                    &mut rbuf,
                    scanned_to,
                    recv_ns,
                    &mut next_owed,
                    arrivals,
                    &mut shots,
                )?;
                // ORDERING: Relaxed — see the load in `send`.
                received.fetch_add(n, Ordering::Relaxed);
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) => {}
            Err(e) => return Err(e),
        }
    }
}

/// Moves every complete response line out of `rbuf` (whose first
/// `scanned_to` bytes hold no newline), pairing each with the oldest
/// request owed on the connection. Returns the number of lines.
fn take_lines(
    rbuf: &mut Vec<u8>,
    scanned_to: usize,
    recv_ns: u64,
    next_owed: &mut impl FnMut() -> io::Result<(usize, u64)>,
    arrivals: &[Arrival],
    shots: &mut Vec<(usize, Shot)>,
) -> io::Result<usize> {
    let (mut line_start, mut from, mut n) = (0, scanned_to, 0);
    while let Some(off) = rbuf[from..].iter().position(|&b| b == b'\n') {
        let end = from + off;
        let (idx, sent_ns) = next_owed()?;
        shots.push((
            idx,
            Shot {
                due_ns: arrivals[idx].due_us * 1000,
                sent_ns,
                recv_ns,
                bytes: end + 1 - line_start,
                scanned: scan(&rbuf[line_start..end]),
            },
        ));
        line_start = end + 1;
        from = line_start;
        n += 1;
    }
    rbuf.drain(..line_start);
    Ok(n)
}

/// One closed-loop session keeping `depth` requests in flight: send
/// `depth` lines, then one more each time an answer lands. Times are ns
/// after `start`; `due_ns` is the send time.
pub fn closed_loop(
    conn: &TcpStream,
    lines: &[Vec<u8>],
    depth: usize,
    start: Instant,
) -> io::Result<Vec<Shot>> {
    let mut reader = BufReader::with_capacity(1 << 16, conn);
    let mut buf = Vec::new();
    let mut sent: VecDeque<u64> = VecDeque::new();
    let mut out = Vec::with_capacity(lines.len());
    let mut next = 0;
    while out.len() < lines.len() {
        while next < lines.len() && sent.len() < depth.max(1) {
            sent.push_back(ns(start));
            (&*conn).write_all(&lines[next])?;
            next += 1;
        }
        buf.clear();
        if reader.read_until(b'\n', &mut buf)? == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        let recv_ns = ns(start);
        let sent_ns = sent
            .pop_front()
            .ok_or_else(|| io::Error::other("response without a request"))?;
        out.push(Shot {
            due_ns: sent_ns,
            sent_ns,
            recv_ns,
            bytes: buf.len(),
            scanned: scan(buf.trim_ascii_end()),
        });
    }
    Ok(out)
}
