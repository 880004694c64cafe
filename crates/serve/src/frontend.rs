//! Wire frontends: the line-delimited JSON protocol over any
//! reader/writer pair, a stdin/stdout binding of it, and the
//! event-driven non-blocking TCP poll loop.
//!
//! One request per line, one response line per request, in order. A
//! malformed line — invalid JSON, a nesting bomb, bytes that are not
//! UTF-8 — gets a `rejected` response (with the parse error as the
//! reason) and the connection stays up: one bad client line must not
//! take down a batch. Both frontends run every line through the same
//! step (`parse_line`), so they answer the same bytes the same way.
//!
//! TCP is served by [`serve_poll`]: **one** frontend thread
//! multiplexing every connection with non-blocking sockets and
//! per-connection state machines. Requests are submitted as [`Ticket`]s
//! and polled with [`Ticket::try_wait`], so a slow mining run never
//! blocks the frontend, and the worker that answers a ticket unparks
//! the idle loop; meanwhile the loop enforces the *outer* tiers of
//! the admission policy — a connection cap (refused connections get one
//! rejection line), a per-client in-flight quota (excess lines get
//! rejection responses) and a line-length cap — before the service's
//! own queue-depth and Geerts-bound tiers even see the request. A
//! connection whose client leaves more than `MAX_UNSENT_BYTES` of
//! answers unread is neither read nor served until it catches up.

use crate::request::{parse_request, render_response, MineRequest, MineResponse, MineStats};
use crate::service::{MineService, Ticket};
use std::collections::VecDeque;
use std::io::{self, BufRead, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

/// Unsent response bytes past which [`serve_poll`] stops reading a
/// connection and stops promoting its responses, until the socket has
/// taken enough of them. The cap bounds a connection's write backlog to
/// about this plus one response, whatever its client reads.
const MAX_UNSENT_BYTES: usize = 1 << 20;

/// The per-line step both frontends share. `raw` is one wire line, with
/// or without its `\n` (or `\r\n`) terminator, decoded lossily so no
/// byte sequence can end a session. Returns `None` for a blank line (no
/// response is owed), else the parsed request or the `rejected`
/// response a malformed line gets.
fn parse_line(raw: &[u8]) -> Option<Result<MineRequest, MineResponse>> {
    let raw = raw.strip_suffix(b"\n").unwrap_or(raw);
    let raw = raw.strip_suffix(b"\r").unwrap_or(raw);
    let line = String::from_utf8_lossy(raw);
    if line.trim().is_empty() {
        return None;
    }
    Some(
        parse_request(&line)
            .map_err(|e| MineResponse::rejected(format!("parse error: {e}"), MineStats::default())),
    )
}

/// Drives the line protocol over `input`/`output` until EOF. Each line
/// is parsed, submitted, and awaited; responses are written in request
/// order, flushed per line (a client pipelining a batch sees answers as
/// they land).
pub fn serve_lines<R: BufRead, W: Write>(
    service: &MineService,
    mut input: R,
    mut output: W,
) -> io::Result<()> {
    let mut raw = Vec::new();
    loop {
        raw.clear();
        if input.read_until(b'\n', &mut raw)? == 0 {
            return Ok(());
        }
        let response = match parse_line(&raw) {
            None => continue,
            Some(Ok(request)) => service.mine(request),
            Some(Err(rejected)) => rejected,
        };
        output.write_all(render_response(&response).as_bytes())?;
        output.write_all(b"\n")?;
        output.flush()?;
    }
}

/// Binds the line protocol to stdin/stdout: the `fpm-mine serve --stdio`
/// mode, and the simplest way to script a query batch.
pub fn serve_stdio(service: &MineService) -> io::Result<()> {
    let stdin = io::stdin();
    let stdout = io::stdout();
    serve_lines(service, stdin.lock(), stdout.lock())
}

/// Tuning knobs of the [`serve_poll`] event loop.
#[derive(Debug, Clone, Copy)]
pub struct FrontendConfig {
    /// Maximum concurrently open connections. A connection accepted
    /// beyond the cap gets a single `rejected` line and is closed —
    /// the outermost admission tier.
    pub max_connections: usize,
    /// Per-client quota: request lines arriving while this many of the
    /// connection's requests are still in flight are answered with a
    /// `rejected` response instead of being submitted — the middle
    /// admission tier, ahead of the service's queue-depth and
    /// candidate-bound tiers.
    pub max_inflight_per_conn: usize,
    /// Longest accepted request line. A connection exceeding it without
    /// a newline gets a rejection and is closed (the stream cannot be
    /// resynchronised).
    pub max_line_bytes: usize,
}

impl Default for FrontendConfig {
    fn default() -> Self {
        FrontendConfig {
            max_connections: 64,
            max_inflight_per_conn: 16,
            max_line_bytes: 1 << 20,
        }
    }
}

/// What one [`serve_poll`] run did, for logs and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrontendStats {
    /// Connections accepted and served.
    pub connections_served: u64,
    /// Connections refused at the cap.
    pub connections_refused: u64,
    /// Request lines rejected by the per-client in-flight quota.
    pub quota_rejections: u64,
    /// Request lines submitted to the service.
    pub lines_submitted: u64,
}

/// A response owed to the client, kept in arrival order. Quota and
/// parse rejections are `Ready` immediately but still wait their turn
/// behind earlier in-flight requests, preserving one-response-per-line
/// ordering.
enum Pending {
    Waiting(Ticket),
    Ready(String),
}

/// Per-connection state machine for the poll loop.
struct Conn {
    stream: TcpStream,
    /// Bytes read but not yet terminated by a newline.
    rbuf: Vec<u8>,
    /// Rendered response bytes not yet accepted by the socket.
    wbuf: Vec<u8>,
    /// Responses owed, in request order.
    pending: VecDeque<Pending>,
    /// Client closed its write side (EOF seen); drain and close.
    read_closed: bool,
    /// Protocol error (oversized line): stop reading, flush, close.
    poisoned: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> io::Result<Conn> {
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            pending: VecDeque::new(),
            read_closed: false,
            poisoned: false,
        })
    }

    fn inflight(&self) -> usize {
        self.pending
            .iter()
            .filter(|p| matches!(p, Pending::Waiting(_)))
            .count()
    }

    fn queue_response(&mut self, resp: &MineResponse) {
        let mut line = render_response(resp);
        line.push('\n');
        self.pending.push_back(Pending::Ready(line));
    }

    /// True when everything owed has been flushed and no more input can
    /// arrive.
    fn finished(&self) -> bool {
        (self.read_closed || self.poisoned) && self.pending.is_empty() && self.wbuf.is_empty()
    }
}

/// Event-driven TCP frontend: a single thread multiplexes all
/// connections with non-blocking I/O, submitting requests as tickets
/// and collecting responses via [`Ticket::try_wait`]. `max_conns`
/// bounds how many connections are *accepted* in total before the loop
/// drains and returns — `None` serves forever.
pub fn serve_poll(
    service: &MineService,
    listener: TcpListener,
    cfg: FrontendConfig,
    max_conns: Option<usize>,
) -> io::Result<FrontendStats> {
    listener.set_nonblocking(true)?;
    let mut stats = FrontendStats::default();
    let mut conns: Vec<Conn> = Vec::new();
    let mut accepted_total: usize = 0;
    loop {
        let mut progressed = false;

        // Accept tier: a connection past the open-connection cap — or
        // past the total-served quota, when one is set — is answered
        // with a single rejection line and closed, never left hanging
        // in the backlog.
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    progressed = true;
                    let over_cap = conns.len() >= cfg.max_connections
                        || max_conns.is_some_and(|m| accepted_total >= m);
                    if over_cap {
                        stats.connections_refused += 1;
                        refuse_connection(stream, cfg.max_connections);
                        continue;
                    }
                    accepted_total += 1;
                    stats.connections_served += 1;
                    conns.push(Conn::new(stream)?);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }

        // Drive every connection's state machine one step.
        let mut closed: Vec<usize> = Vec::new();
        for (idx, conn) in conns.iter_mut().enumerate() {
            match step_conn(service, conn, &cfg, &mut stats) {
                Ok(p) => progressed |= p,
                // I/O error (client hangup mid-write): cancel whatever
                // the dead client was still waiting on — the mining
                // runs stop at their next checkpoint — and close.
                Err(_) => {
                    for p in &conn.pending {
                        if let Pending::Waiting(ticket) = p {
                            ticket.cancel();
                        }
                    }
                    closed.push(idx);
                    continue;
                }
            }
            if conn.finished() {
                closed.push(idx);
            }
        }
        for idx in closed.into_iter().rev() {
            conns.remove(idx);
            progressed = true;
        }

        if max_conns.is_some_and(|m| accepted_total >= m) && conns.is_empty() {
            return Ok(stats);
        }
        if !progressed {
            // Nothing moved: park instead of spinning. A worker that
            // answers a ticket submitted here unparks this thread, so a
            // finished request is promoted at once; the timeout bounds
            // how late new socket input is noticed, since std offers no
            // readiness wait.
            std::thread::park_timeout(Duration::from_micros(500));
        }
    }
}

/// Best-effort rejection line for a connection refused at the cap.
fn refuse_connection(mut stream: TcpStream, cap: usize) {
    let resp = MineResponse::rejected(
        format!("connection limit reached ({cap} open)"),
        MineStats::default(),
    );
    let mut line = render_response(&resp);
    line.push('\n');
    let _ = stream.write_all(line.as_bytes());
}

/// One step of a connection's state machine: read what's available,
/// parse complete lines through the quota tier, promote finished
/// tickets, and flush what the socket will take. Returns whether any
/// progress was made; `Err` means the connection is dead.
fn step_conn(
    service: &MineService,
    conn: &mut Conn,
    cfg: &FrontendConfig,
    stats: &mut FrontendStats,
) -> io::Result<bool> {
    let mut progressed = false;

    // A connection whose client does not read what it is owed stops
    // being read and stops having responses promoted until the socket
    // takes the backlog: TCP flow control then pushes back on the
    // client instead of the backlog growing in this process.
    let backlogged = conn.wbuf.len() > MAX_UNSENT_BYTES;

    // Read tier.
    if !conn.read_closed && !conn.poisoned && !backlogged {
        let mut chunk = [0u8; 4096];
        loop {
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    conn.read_closed = true;
                    progressed = true;
                    break;
                }
                Ok(n) => {
                    // `read` contracts `n <= chunk.len()`; the checked
                    // accessor keeps this path panic-free even against
                    // a misbehaving reader.
                    if let Some(read) = chunk.get(..n) {
                        conn.rbuf.extend_from_slice(read);
                    }
                    progressed = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        // Parse every complete line out of the read buffer: a cursor
        // walks the lines and one drain drops them all, so a step is
        // linear in the bytes read however many lines they hold.
        let mut start = 0;
        while let Some(line) = conn.rbuf.get(start..).and_then(|rest| {
            let nl = rest.iter().position(|&b| b == b'\n')?;
            rest.get(..=nl)
        }) {
            start += line.len();
            let Some(parsed) = parse_line(line) else {
                continue;
            };
            progressed = true;
            if conn.inflight() >= cfg.max_inflight_per_conn {
                stats.quota_rejections += 1;
                conn.queue_response(&MineResponse::rejected(
                    format!(
                        "per-client quota exceeded ({} requests in flight)",
                        cfg.max_inflight_per_conn
                    ),
                    MineStats::default(),
                ));
                continue;
            }
            match parsed {
                Ok(request) => {
                    stats.lines_submitted += 1;
                    conn.pending.push_back(Pending::Waiting(service.submit(request)));
                }
                Err(rejected) => conn.queue_response(&rejected),
            }
        }
        conn.rbuf.drain(..start);
        if conn.rbuf.len() > cfg.max_line_bytes {
            conn.poisoned = true;
            conn.rbuf.clear();
            conn.queue_response(&MineResponse::rejected(
                format!("request line exceeds {} bytes", cfg.max_line_bytes),
                MineStats::default(),
            ));
            progressed = true;
        }
    }

    // Promote tier: move responses into the write buffer strictly in
    // request order — a later ticket finishing first still waits.
    while conn.wbuf.len() <= MAX_UNSENT_BYTES {
        match conn.pending.front_mut() {
            Some(Pending::Ready(_)) => {
                let Some(Pending::Ready(line)) = conn.pending.pop_front() else {
                    // Unreachable: the match arm above just saw
                    // `front_mut()` return `Ready`, and nothing runs
                    // between peek and pop.
                    // also-lint: allow(panic-path)
                    unreachable!()
                };
                conn.wbuf.extend_from_slice(line.as_bytes());
                progressed = true;
            }
            Some(Pending::Waiting(ticket)) => match ticket.try_wait() {
                Some(resp) => {
                    let mut line = render_response(&resp);
                    line.push('\n');
                    conn.wbuf.extend_from_slice(line.as_bytes());
                    conn.pending.pop_front();
                    progressed = true;
                }
                None => break,
            },
            None => break,
        }
    }

    // Flush tier.
    while !conn.wbuf.is_empty() {
        match conn.stream.write(&conn.wbuf) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => {
                conn.wbuf.drain(..n);
                progressed = true;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }

    Ok(progressed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServeConfig;

    fn toy_line(kernel: &str, extra: &str) -> String {
        format!(
            r#"{{"dataset":{{"inline":[[0,2,5],[1,2,5],[0,2,5],[3,4],[0,1,2,3,4,5]]}},"kernel":"{kernel}","min_support":2{extra}}}"#
        )
    }

    #[test]
    fn line_protocol_roundtrip() {
        let svc = MineService::start(ServeConfig::default());
        let mut input = format!(
            "{}\n\n{}\nnot json at all\n",
            toy_line("lcm", ""),
            toy_line("eclat", r#","include_patterns":false"#)
        )
        .into_bytes();
        input.extend_from_slice(b"\xff\xfe not utf8\n");
        let mut out = Vec::new();
        serve_lines(&svc, input.as_slice(), &mut out).unwrap();
        let lines: Vec<String> = out.lines().map(|l| l.unwrap()).collect();
        assert_eq!(lines.len(), 4, "blank line skipped, bad lines answered");
        let first = crate::json::parse(&lines[0]).unwrap();
        assert_eq!(first.get("outcome").unwrap().as_str(), Some("complete"));
        assert!(first.get("patterns").is_some());
        let second = crate::json::parse(&lines[1]).unwrap();
        assert!(second.get("patterns").is_none(), "count-only");
        let third = crate::json::parse(&lines[2]).unwrap();
        assert_eq!(third.get("outcome").unwrap().as_str(), Some("rejected"));
        assert!(third
            .get("reason")
            .unwrap()
            .as_str()
            .unwrap()
            .starts_with("parse error"));
        let fourth = crate::json::parse(&lines[3]).unwrap();
        assert_eq!(fourth.get("outcome").unwrap().as_str(), Some("rejected"));
        svc.shutdown();
    }

    #[test]
    fn nesting_bomb_line_is_rejected_not_a_stack_overflow() {
        let svc = MineService::start(ServeConfig::default());
        let input = format!("{}\n", "[".repeat(300_000));
        let mut out = Vec::new();
        serve_lines(&svc, input.as_bytes(), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 1, "{text}");
        assert!(text.contains(r#""outcome":"rejected""#), "{text}");
        assert!(text.contains("nesting deeper than"), "{text}");
        svc.shutdown();
    }

    #[test]
    fn poll_frontend_answers_interleaved_clients() {
        // Two clients pipelining batches against ONE frontend thread:
        // the poll loop must interleave them without a thread per
        // connection, and each client still sees in-order responses.
        let svc = MineService::start(ServeConfig::default());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let svc2 = svc.clone();
        let server = std::thread::spawn(move || {
            serve_poll(&svc2, listener, FrontendConfig::default(), Some(2))
        });

        let clients: Vec<_> = (0..2)
            .map(|_| {
                std::thread::spawn(move || {
                    let mut stream = TcpStream::connect(addr).unwrap();
                    let mut batch = format!("{}\nnot json\n", toy_line("lcm", "")).into_bytes();
                    batch.extend_from_slice(b"\xff\xfe not utf8\n");
                    batch.extend_from_slice(format!("{}\n", toy_line("eclat", "")).as_bytes());
                    stream.write_all(&batch).unwrap();
                    stream.shutdown(std::net::Shutdown::Write).unwrap();
                    let reader = std::io::BufReader::new(stream);
                    let lines: Vec<String> = reader.lines().map(|l| l.unwrap()).collect();
                    assert_eq!(lines.len(), 4);
                    let outcomes: Vec<String> = lines
                        .iter()
                        .map(|l| {
                            crate::json::parse(l)
                                .unwrap()
                                .get("outcome")
                                .unwrap()
                                .as_str()
                                .unwrap()
                                .to_string()
                        })
                        .collect();
                    assert_eq!(
                        outcomes,
                        ["complete", "rejected", "rejected", "complete"],
                        "responses arrive in request order"
                    );
                })
            })
            .collect();
        for c in clients {
            c.join().unwrap();
        }
        let stats = server.join().unwrap().unwrap();
        assert_eq!(stats.connections_served, 2);
        assert_eq!(stats.lines_submitted, 4);
        assert_eq!(stats.connections_refused, 0);
        svc.shutdown();
    }

    #[test]
    fn poll_frontend_refuses_connections_past_the_cap() {
        let svc = MineService::start(ServeConfig::default());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let svc2 = svc.clone();
        let cfg = FrontendConfig {
            max_connections: 1,
            ..FrontendConfig::default()
        };
        let server = std::thread::spawn(move || serve_poll(&svc2, listener, cfg, Some(1)));

        // First connection occupies the single slot; keep it open while
        // the second connects.
        let mut first = TcpStream::connect(addr).unwrap();
        // Wait until the refused peer has actually been turned away so
        // the cap (not accept-queue timing) is what we assert on.
        let second = TcpStream::connect(addr).unwrap();
        let reader = std::io::BufReader::new(second);
        let mut lines = reader.lines();
        let refusal = lines.next().unwrap().unwrap();
        let v = crate::json::parse(&refusal).unwrap();
        assert_eq!(v.get("outcome").unwrap().as_str(), Some("rejected"));
        assert!(v
            .get("reason")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("connection limit"));
        assert!(lines.next().is_none(), "refused connection is closed");

        first.write_all(format!("{}\n", toy_line("lcm", "")).as_bytes()).unwrap();
        first.shutdown(std::net::Shutdown::Write).unwrap();
        let reader = std::io::BufReader::new(first);
        let lines: Vec<String> = reader.lines().map(|l| l.unwrap()).collect();
        assert_eq!(lines.len(), 1, "the admitted connection is served normally");
        let stats = server.join().unwrap().unwrap();
        assert_eq!(stats.connections_served, 1);
        assert_eq!(stats.connections_refused, 1);
        svc.shutdown();
    }

    #[test]
    fn poll_frontend_enforces_the_per_client_quota() {
        // Quota 1, mining gate held: the first line occupies the quota
        // slot, the next two are rejected at the frontend tier without
        // ever reaching the service.
        let svc = MineService::start(ServeConfig::default());
        svc.hold_mining(true);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let svc2 = svc.clone();
        let cfg = FrontendConfig {
            max_inflight_per_conn: 1,
            ..FrontendConfig::default()
        };
        let server = std::thread::spawn(move || serve_poll(&svc2, listener, cfg, Some(1)));

        let mut stream = TcpStream::connect(addr).unwrap();
        let batch = format!(
            "{}\n{}\n{}\n",
            toy_line("lcm", ""),
            toy_line("lcm", ""),
            toy_line("lcm", "")
        );
        stream.write_all(batch.as_bytes()).unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        // Let the quota rejections happen while the first request is
        // provably still in flight, then release the gate.
        for _ in 0..2000 {
            if svc.metrics().get("requests_submitted") >= 1 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
        svc.hold_mining(false);

        let reader = std::io::BufReader::new(stream);
        let lines: Vec<String> = reader.lines().map(|l| l.unwrap()).collect();
        assert_eq!(lines.len(), 3);
        let first = crate::json::parse(&lines[0]).unwrap();
        assert_eq!(first.get("outcome").unwrap().as_str(), Some("complete"));
        for line in &lines[1..] {
            let v = crate::json::parse(line).unwrap();
            assert_eq!(v.get("outcome").unwrap().as_str(), Some("rejected"));
            assert!(v
                .get("reason")
                .unwrap()
                .as_str()
                .unwrap()
                .contains("per-client quota"));
        }
        let stats = server.join().unwrap().unwrap();
        assert_eq!(stats.quota_rejections, 2);
        assert_eq!(stats.lines_submitted, 1);
        assert_eq!(
            svc.metrics().get("requests_submitted"),
            1,
            "quota rejections never reach the service"
        );
        svc.shutdown();
    }

    #[test]
    fn poll_frontend_rejects_oversized_lines_and_closes() {
        let svc = MineService::start(ServeConfig::default());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let svc2 = svc.clone();
        let cfg = FrontendConfig {
            max_line_bytes: 64,
            ..FrontendConfig::default()
        };
        let server = std::thread::spawn(move || serve_poll(&svc2, listener, cfg, Some(1)));

        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(&vec![b'x'; 256]).unwrap();
        let reader = std::io::BufReader::new(stream);
        let lines: Vec<String> = reader.lines().map(|l| l.unwrap()).collect();
        assert_eq!(lines.len(), 1);
        let v = crate::json::parse(&lines[0]).unwrap();
        assert_eq!(v.get("outcome").unwrap().as_str(), Some("rejected"));
        assert!(v.get("reason").unwrap().as_str().unwrap().contains("exceeds"));
        server.join().unwrap().unwrap();
        svc.shutdown();
    }

    #[test]
    fn a_newline_flood_does_not_stall_other_connections() {
        let svc = MineService::start(ServeConfig::default());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let svc2 = svc.clone();
        let server = std::thread::spawn(move || {
            serve_poll(&svc2, listener, FrontendConfig::default(), Some(2))
        });
        let answer = |stream: TcpStream| {
            stream.set_read_timeout(Some(std::time::Duration::from_secs(60))).unwrap();
            let mut line = String::new();
            std::io::BufReader::new(stream).read_line(&mut line).unwrap();
            crate::json::parse(&line).unwrap()
        };
        let limit = std::time::Duration::from_secs(2);

        // One client sends a million blank lines, then a request.
        let mut flood = TcpStream::connect(addr).unwrap();
        let mut bytes = vec![b'\n'; 1_000_000];
        bytes.extend_from_slice(format!("{}\n", toy_line("lcm", "")).as_bytes());
        let flood_sent = std::time::Instant::now();
        flood.write_all(&bytes).unwrap();
        flood.shutdown(std::net::Shutdown::Write).unwrap();

        // A second client's one request is answered as on an idle server.
        let mut other = TcpStream::connect(addr).unwrap();
        let other_sent = std::time::Instant::now();
        other.write_all(format!("{}\n", toy_line("eclat", "")).as_bytes()).unwrap();
        other.shutdown(std::net::Shutdown::Write).unwrap();
        let v = answer(other);
        let other_took = other_sent.elapsed();
        assert_eq!(v.get("outcome").unwrap().as_str(), Some("complete"));
        assert!(other_took < limit, "the second client waited {other_took:?}");

        let v = answer(flood);
        let flood_took = flood_sent.elapsed();
        assert_eq!(v.get("outcome").unwrap().as_str(), Some("complete"));
        assert!(flood_took < limit, "the flooding client waited {flood_took:?}");
        let stats = server.join().unwrap().unwrap();
        assert_eq!(stats.lines_submitted, 2, "blank lines are skipped");
        svc.shutdown();
    }

    #[test]
    fn a_client_that_never_reads_is_pushed_back_on() {
        // Every big line answers 4 095 patterns, about 150 KB; every
        // tenth line is a small request, so the order of the answers
        // shows. The quota and the queue admit every line, so only the
        // write backlog can hold the client back.
        const LINES: usize = 1000;
        let big = r#"{"dataset":{"inline":[[0,1,2,3,4,5,6,7,8,9,10,11]]},"kernel":"lcm","min_support":1}"#;
        let small = r#"{"dataset":{"inline":[[7]]},"kernel":"lcm","min_support":1}"#;
        let line = |i: usize| if i % 10 == 9 { small } else { big };
        let svc = MineService::start(ServeConfig {
            queue_depth: LINES,
            ..ServeConfig::default()
        });
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let svc2 = svc.clone();
        let cfg = FrontendConfig {
            max_inflight_per_conn: LINES,
            ..FrontendConfig::default()
        };
        let server = std::thread::spawn(move || serve_poll(&svc2, listener, cfg, Some(1)));

        // Pipeline every line, a few at a time, and read nothing. Then
        // wait: without the backlog cap, every line is submitted and its
        // answer held in the server's memory well before the wait ends.
        let mut stream = TcpStream::connect(addr).unwrap();
        for first in (0..LINES).step_by(8) {
            let batch: String = (first..LINES.min(first + 8))
                .map(|i| format!("{}\n", line(i)))
                .collect();
            stream.write_all(batch.as_bytes()).unwrap();
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        let wait_until = std::time::Instant::now() + std::time::Duration::from_secs(2);
        let mut submitted = svc.metrics().get("requests_submitted");
        while submitted < LINES as u64 && std::time::Instant::now() < wait_until {
            std::thread::sleep(std::time::Duration::from_millis(20));
            submitted = svc.metrics().get("requests_submitted");
        }
        assert!(
            submitted < LINES as u64 / 2,
            "{submitted} of {LINES} lines submitted to a client that reads nothing"
        );

        // Once the client reads, every line is answered, in order.
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let reader = std::io::BufReader::new(stream);
        let lines: Vec<String> = reader.lines().map(|l| l.unwrap()).collect();
        assert_eq!(lines.len(), LINES);
        for (i, got) in lines.iter().enumerate() {
            let want = if i % 10 == 9 { 1 } else { 4095 };
            let head = format!(r#"{{"outcome":"complete","count":{want},"#);
            assert!(got.starts_with(&head), "line {i}: {}", got.get(..200).unwrap_or(got));
        }
        server.join().unwrap().unwrap();
        svc.shutdown();
    }
}
