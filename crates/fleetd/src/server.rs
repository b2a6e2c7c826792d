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

use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

use obs::json::{write_f64, write_u64};
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

/// The per-host headline counters, in the order of
/// [`FleetSnapshot::headline`]'s values.
const HOST_COUNTERS: [&str; 2] = ["host.inst_retired.any", "host.cpu_clk_unhalted.thread"];

/// Bytes set aside for the obs registry part of a body: a fleet daemon's
/// runs to about 1.3 KB.
const REGISTRY_BYTES: usize = 4096;

/// Bytes a sample value takes at most: 20 digits for a `u64`, 24
/// characters for a `_sum`.
const VALUE_BYTES: usize = 24;

/// The fleet part of `/metrics` that every scrape repeats, built once per
/// fleet: each counter column's summary family, its `# TYPE` line and
/// the start of its five sample lines, and the same for the two per-host
/// families. A scrape then writes only the values.
pub struct FleetText {
    columns: Vec<ColumnText>,
    /// `(family, column)` of each column that types its family, sorted
    /// by family, to check the registry part of a scrape against.
    typing: Vec<(String, usize)>,
    hosts: [HostText; 2],
    /// Bytes of a body past its registry part, less the hosts' lines, at
    /// most.
    fixed_bytes: usize,
    /// Bytes of one host's lines, at most.
    host_bytes: usize,
}

/// One counter column's summary family (`pathfinder_fleet_<counter>`).
struct ColumnText {
    /// `# TYPE <family> summary`, or nothing when an earlier column has
    /// the same family.
    type_line: String,
    /// Each sample line up to its value: the p50, p95 and p99 quantiles,
    /// `_sum` and `_count`.
    prefixes: [String; 5],
}

/// One per-host counter family (`pathfinder_host_<counter>`).
struct HostText {
    family: String,
    /// `# TYPE <family> counter`, or nothing when a column has the family.
    type_line: String,
    /// `<family>{host="`: a sample line up to its host id.
    prefix: String,
}

impl FleetText {
    /// The text for counter columns named `names`, in column order.
    pub fn new(names: &[String]) -> FleetText {
        let families: Vec<String> = names
            .iter()
            .map(|name| obs::prom::mangle(&["fleet.", name].concat()))
            .collect();
        // The column that types each family: the first to have it.
        let mut typing = BTreeMap::new();
        let mut columns = Vec::with_capacity(families.len());
        for (i, family) in families.iter().enumerate() {
            let first = !typing.contains_key(family.as_str());
            if first {
                typing.insert(family.as_str(), i);
            }
            columns.push(ColumnText {
                type_line: if first {
                    ["# TYPE ", family, " summary\n"].concat()
                } else {
                    String::new()
                },
                prefixes: [
                    "{quantile=\"0.5\"} ",
                    "{quantile=\"0.95\"} ",
                    "{quantile=\"0.99\"} ",
                    "_sum ",
                    "_count ",
                ]
                .map(|suffix| [family, suffix].concat()),
            });
        }
        let typing = typing
            .into_iter()
            .map(|(family, column)| (family.to_string(), column))
            .collect();
        let hosts = HOST_COUNTERS.map(|name| {
            let family = obs::prom::mangle(name);
            HostText {
                type_line: if families.contains(&family) {
                    String::new()
                } else {
                    format!("# TYPE {family} counter\n")
                },
                prefix: format!("{family}{{host=\""),
                family,
            }
        });
        // A line is its prefix, a value and a newline; a host line has
        // the host id and `"} ` between its prefix and its value.
        let line = |prefix: &String| prefix.len() + VALUE_BYTES + 1;
        let fixed_bytes = columns
            .iter()
            .map(|c| c.type_line.len() + c.prefixes.iter().map(line).sum::<usize>())
            .chain(hosts.iter().map(|h| h.type_line.len()))
            .sum();
        let host_bytes = hosts
            .iter()
            .map(|h| line(&h.prefix) + VALUE_BYTES + 3)
            .sum();
        FleetText {
            columns,
            typing,
            hosts,
            fixed_bytes,
            host_bytes,
        }
    }
}

impl FleetText {
    /// Bytes of a fleet part with `hosts` hosts' lines, at most.
    fn bytes(&self, hosts: usize) -> usize {
        self.fixed_bytes + self.host_bytes.saturating_mul(hosts)
    }
}

impl Default for FleetText {
    fn default() -> FleetText {
        FleetText::new(&[])
    }
}

/// Render the full exposition for one scrape: the obs registry, then
/// [`render_fleet`].
pub fn render_metrics(snap: &FleetSnapshot) -> String {
    let mut w = PromText::with_capacity(REGISTRY_BYTES + snap.text.bytes(snap.headline.len()));
    w.render_registry();
    render_fleet(w, snap)
}

/// Write `snap`'s fleet part after what `w` holds: a summary per counter
/// column, then each host's headline counters. A family is typed once,
/// before its first sample, so a family `w` typed gets no second
/// `# TYPE` line.
pub fn render_fleet(w: PromText, snap: &FleetSnapshot) -> String {
    let text = &snap.text;
    let mut typed_columns = Vec::new();
    let mut typed_hosts = [false; 2];
    for family in w.typed() {
        if let Ok(k) = text
            .typing
            .binary_search_by(|(f, _)| f.as_str().cmp(family))
        {
            typed_columns.extend(text.typing.get(k).map(|(_, column)| *column));
        }
        for (host, typed) in text.hosts.iter().zip(&mut typed_hosts) {
            *typed |= host.family == family;
        }
    }
    let mut out = w.into_string();
    out.reserve(text.bytes(snap.headline.len()));
    let hosts = snap.hosts;
    for (column, (t, stat)) in text.columns.iter().zip(&snap.counters).enumerate() {
        if !typed_columns.contains(&column) {
            out.push_str(&t.type_line);
        }
        let mean = if hosts == 0 {
            0.0
        } else {
            stat.sum as f64 / hosts as f64
        };
        let [p50, p95, p99, sum, count] = &t.prefixes;
        for (prefix, v) in [(p50, stat.p50), (p95, stat.p95), (p99, stat.p99)] {
            out.push_str(prefix);
            write_u64(&mut out, v);
            out.push('\n');
        }
        out.push_str(sum);
        write_f64(&mut out, mean * hosts as f64);
        out.push('\n');
        out.push_str(count);
        write_u64(&mut out, hosts);
        out.push('\n');
    }
    for (id, values) in &snap.headline {
        for ((host, typed), v) in text.hosts.iter().zip(&mut typed_hosts).zip(values) {
            if !*typed {
                out.push_str(&host.type_line);
                *typed = true;
            }
            out.push_str(&host.prefix);
            write_u64(&mut out, u64::from(*id));
            out.push_str("\"} ");
            write_u64(&mut out, *v);
            out.push('\n');
        }
    }
    out
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
