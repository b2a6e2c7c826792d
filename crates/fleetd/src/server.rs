//! The scrape endpoint: a std-only HTTP/1.1 responder serving Prometheus
//! text exposition.
//!
//! Routes:
//!
//! * `GET /metrics` — the fleet in Prometheus text format: the daemon's
//!   own obs self-metrics (`pathfinder_fleetd_*`, `pathfinder_tsdb_*`,
//!   `pathfinder_obs_dropped_events`), fleet-aggregated counter summaries
//!   (`pathfinder_fleet_<counter>`: per-host p50/p95/p99 quantiles plus
//!   `_sum` = fleet total and `_count` = host count), and per-host
//!   headline counters (`pathfinder_host_*{host="N"}`).
//! * `GET /healthz` — liveness.
//!
//! Request reads are bounded (`read_request_line`): a request over a
//! line or header cap gets `400 Bad Request`. The request and its
//! response share one deadline, counted from accept: a connection that has
//! not sent its request, or not taken its response, by then is closed, so
//! a client that drips bytes either way holds the accept loop for at most
//! that deadline.
//!
//! This module deliberately contains no concurrency primitives: it reads
//! the latest [`FleetSnapshot`] through [`SharedState::read`] and is
//! driven from the thread spawned by `shard::spawn_server`. Wall-clock
//! reads go through `obs::clock`; scrape latency is observed into the
//! `fleetd.scrape_ns` histogram and scrapes are counted in
//! `fleetd.scrapes` — so the daemon's own exposition describes its
//! scrape path too.

use std::fmt::Write as _;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

use obs::metrics::HistSnapshot;
use obs::prom::PromText;

use crate::shard::{FleetSnapshot, SharedState};

/// Longest request or header line read, line terminator included. A
/// longer line is refused after exactly this many bytes.
const MAX_LINE_BYTES: u64 = 8 * 1024;

/// Most header lines read after the request line.
const MAX_HEADERS: usize = 64;

/// Wall time a client gets to send its whole request head and read the
/// whole response, counted from accept.
const REQUEST_DEADLINE_NS: u64 = 2_000_000_000;

/// The Prometheus family of each counter column's fleet summary
/// (`pathfinder_fleet_<counter>`). A fleet computes these once at launch,
/// so a scrape never formats or mangles a family name.
pub fn fleet_families(names: &[String]) -> Vec<String> {
    names
        .iter()
        .map(|name| obs::prom::mangle(&format!("fleet.{name}")))
        .collect()
}

/// Render the full exposition for one scrape.
pub fn render_metrics(snap: &FleetSnapshot) -> String {
    let mut w = PromText::new();
    w.render_registry();
    let hosts = snap.hosts;
    for (family, stat) in snap.families.iter().zip(snap.counters.iter()) {
        let mean = if hosts == 0 {
            0.0
        } else {
            stat.sum as f64 / hosts as f64
        };
        let h = HistSnapshot {
            count: hosts,
            min: 0,
            max: stat.p99,
            mean,
            p50: stat.p50,
            p95: stat.p95,
            p99: stat.p99,
        };
        w.summary_family(family, &[], &h);
    }
    let mut id = String::new();
    for (host, vals) in &snap.headline {
        id.clear();
        let _ = write!(id, "{host}");
        let mut v = vals.iter();
        if let Some(inst) = v.next() {
            w.counter("host.inst_retired.any", &[("host", id.as_str())], *inst);
        }
        if let Some(cycles) = v.next() {
            w.counter(
                "host.cpu_clk_unhalted.thread",
                &[("host", id.as_str())],
                *cycles,
            );
        }
    }
    w.into_string()
}

/// Write the response head, then the body as it is, without copying it.
fn respond(out: &mut impl Write, status: &str, content_type: &str, body: &str) -> io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    out.write_all(head.as_bytes())?;
    out.write_all(body.as_bytes())
}

/// Why a request head was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum RequestError {
    /// A request or header line ran past [`MAX_LINE_BYTES`].
    LineTooLong,
    /// More than [`MAX_HEADERS`] header lines.
    TooManyHeaders,
    /// The read failed or ran past the request deadline.
    Unreadable,
}

/// Read one request head: the request line, then header lines up to a
/// blank line or the end of input. Returns the request line; headers are
/// discarded. No line reads more than [`MAX_LINE_BYTES`] of input.
fn read_request_line<R: BufRead>(reader: &mut R) -> Result<String, RequestError> {
    let mut line = Vec::new();
    read_capped_line(reader, &mut line)?;
    let request_line = String::from_utf8_lossy(&line).into_owned();
    let mut headers = 0usize;
    loop {
        if read_capped_line(reader, &mut line)? == 0 || line.iter().all(u8::is_ascii_whitespace) {
            return Ok(request_line);
        }
        headers += 1;
        if headers > MAX_HEADERS {
            return Err(RequestError::TooManyHeaders);
        }
    }
}

/// Read up to and including the next `\n` into `line`, stopping after
/// [`MAX_LINE_BYTES`]. Returns the byte count, 0 at the end of input.
fn read_capped_line<R: BufRead>(reader: &mut R, line: &mut Vec<u8>) -> Result<usize, RequestError> {
    line.clear();
    let n = reader
        .by_ref()
        .take(MAX_LINE_BYTES)
        .read_until(b'\n', line)
        .map_err(|_| RequestError::Unreadable)?;
    if n as u64 == MAX_LINE_BYTES && !line.ends_with(b"\n") {
        return Err(RequestError::LineTooLong);
    }
    Ok(n)
}

/// A connection under one deadline: each read or write waits at most the
/// time left, so dripping bytes cannot stretch the request or its
/// response.
struct DeadlineStream<'a> {
    stream: &'a TcpStream,
    deadline_ns: u64,
}

impl DeadlineStream<'_> {
    /// The time left, or `TimedOut` once the deadline has passed.
    fn left(&self) -> io::Result<Duration> {
        match self.deadline_ns.saturating_sub(obs::clock::now_ns()) {
            0 => Err(io::ErrorKind::TimedOut.into()),
            left => Ok(Duration::from_nanos(left)),
        }
    }
}

impl Read for DeadlineStream<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.stream.set_read_timeout(Some(self.left()?))?;
        self.stream.read(buf)
    }
}

impl Write for DeadlineStream<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.stream.set_write_timeout(Some(self.left()?))?;
        self.stream.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.stream.flush()
    }
}

fn handle(stream: &TcpStream, state: &SharedState) {
    // The head and the body go out as two writes; do not hold the body's
    // last segment back until the head is acknowledged.
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(DeadlineStream {
        stream,
        deadline_ns: obs::clock::now_ns().saturating_add(REQUEST_DEADLINE_NS),
    });
    let request_line = match read_request_line(&mut reader) {
        Ok(line) => line,
        Err(RequestError::Unreadable) => return,
        Err(RequestError::LineTooLong | RequestError::TooManyHeaders) => {
            let _ = respond(
                reader.get_mut(),
                "400 Bad Request",
                "text/plain",
                "bad request\n",
            );
            return;
        }
    };
    let out = reader.get_mut();
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    if method != "GET" {
        let _ = respond(
            out,
            "405 Method Not Allowed",
            "text/plain",
            "method not allowed\n",
        );
        return;
    }
    match path {
        "/metrics" => {
            let t0 = obs::clock::now_ns();
            let body = render_metrics(&state.read());
            let _ = respond(
                out,
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                &body,
            );
            obs::metrics::observe("fleetd.scrape_ns", obs::clock::now_ns().saturating_sub(t0));
            obs::metrics::counter_add("fleetd.scrapes", 1);
        }
        "/healthz" => {
            let _ = respond(out, "200 OK", "text/plain", "ok\n");
        }
        _ => {
            let _ = respond(out, "404 Not Found", "text/plain", "not found\n");
        }
    }
}

/// Accept loop: one request per connection, close after responding.
/// Runs until [`SharedState::stopping`] is raised — `shard::stop_server`
/// sets the flag and then pokes the listener with a throwaway connection
/// so the blocking accept returns; the flag is checked *before* the
/// woken connection is handled, the loop breaks, and returning drops the
/// listener (closing the socket).
pub fn serve(listener: &TcpListener, state: &SharedState) {
    for stream in listener.incoming() {
        if state.stopping() {
            break;
        }
        match stream {
            Ok(s) => handle(&s, state),
            Err(_) => continue,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    const REQUEST_LINE: &[u8] = b"GET /metrics HTTP/1.1\r\n";
    const HEADER: &[u8] = b"X-Pad: 1\r\n";

    #[test]
    fn oversized_lines_are_refused_at_the_cap() {
        // A 1 MiB request line with no newline: refused after the cap.
        let mut reader = Cursor::new(vec![b'a'; 1 << 20]);
        assert_eq!(
            read_request_line(&mut reader),
            Err(RequestError::LineTooLong)
        );
        assert_eq!(reader.position(), MAX_LINE_BYTES);

        // The same for a header line behind a valid request line.
        let mut input = REQUEST_LINE.to_vec();
        input.resize(REQUEST_LINE.len() + (1 << 20), b'a');
        let mut reader = Cursor::new(input);
        assert_eq!(
            read_request_line(&mut reader),
            Err(RequestError::LineTooLong)
        );
        assert_eq!(
            reader.position(),
            REQUEST_LINE.len() as u64 + MAX_LINE_BYTES
        );
    }

    #[test]
    fn header_count_is_capped() {
        let request =
            |headers: usize| Cursor::new([REQUEST_LINE, &HEADER.repeat(headers), b"\r\n"].concat());

        // At the cap the request is read whole.
        let mut reader = request(MAX_HEADERS);
        assert_eq!(
            read_request_line(&mut reader).as_deref(),
            Ok("GET /metrics HTTP/1.1\r\n")
        );

        // 10 000 headers: refused at the first header past the cap.
        let mut reader = request(10_000);
        assert_eq!(
            read_request_line(&mut reader),
            Err(RequestError::TooManyHeaders)
        );
        let read = REQUEST_LINE.len() + (MAX_HEADERS + 1) * HEADER.len();
        assert_eq!(reader.position(), read as u64);
    }

    /// A client that never reads its response: a body larger than both
    /// socket buffers stalls the write, which gives up when the
    /// connection's one deadline runs out rather than after one timeout
    /// per write call.
    #[test]
    fn a_stalled_reader_is_dropped_within_the_deadline() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (server, _) = listener.accept().expect("accept");
        let body = "x".repeat(16 << 20);
        let t0 = obs::clock::now_ns();
        let mut out = DeadlineStream {
            stream: &server,
            deadline_ns: t0 + REQUEST_DEADLINE_NS,
        };
        let sent = respond(&mut out, "200 OK", "text/plain", &body);
        let took_ms = obs::clock::now_ns().saturating_sub(t0) / 1_000_000;
        assert!(sent.is_err(), "16 MiB fit into a reader that never reads");
        assert!(
            took_ms < REQUEST_DEADLINE_NS / 1_000_000 + 500,
            "the stalled write held the connection for {took_ms} ms"
        );
        drop(client);
    }

    /// Request pieces, a line past the cap and a run of headers among
    /// them, so arbitrary requests reach both refusals.
    const PIECES: &[&[u8]] = &[
        b"GET /metrics HTTP/1.1",
        b"\r\n",
        b"\n",
        b"\r",
        b" ",
        b"X-Pad: 1\r\n",
        &[b'a'; 3_000],
        &[b'\n'; 40],
    ];

    proptest::proptest! {
        #[test]
        fn arbitrary_bytes_never_panic_the_request_reader(
            picks in proptest::collection::vec((0usize..2 * PIECES.len(), 0u8..=255), 0..256),
        ) {
            let mut input = Vec::new();
            for (pick, raw) in picks {
                match PIECES.get(pick) {
                    Some(piece) => input.extend_from_slice(piece),
                    None => input.push(raw),
                }
            }
            if let Ok(line) = read_request_line(&mut Cursor::new(input)) {
                proptest::prop_assert!(line.len() as u64 <= 3 * MAX_LINE_BYTES);
            }
        }
    }
}
