//! A minimal HTTP/1.1 client for the engine's server (one request per
//! connection, close-delimited responses) that timestamps the response
//! head and the first NDJSON row, plus a `/metrics` text scraper.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Socket read/write budget: far above any healthy response, bounded so
/// a wedged server fails the run instead of hanging it.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// The marker that starts an NDJSON row event.
const ROW_MARKER: &[u8] = b"{\"event\": \"row\"";

/// One completed exchange, timed from just before `connect`.
#[derive(Debug)]
pub struct Exchange {
    /// HTTP status code.
    pub status: u16,
    /// Time until the whole response head had arrived.
    pub head: Duration,
    /// Time until the first complete NDJSON row line had arrived.
    pub first_row: Option<Duration>,
    /// Time until the server closed the connection.
    pub end: Duration,
    /// The response body.
    pub body: String,
}

/// Sends one request and reads the response to EOF.
///
/// # Errors
///
/// Returns a message on socket failure or a malformed response.
pub fn exchange(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> Result<Exchange, String> {
    let t0 = Instant::now();
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(IO_TIMEOUT))
        .and_then(|()| stream.set_write_timeout(Some(IO_TIMEOUT)))
        .map_err(|e| format!("socket timeouts: {e}"))?;
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream
        .write_all(request.as_bytes())
        .map_err(|e| format!("send {path}: {e}"))?;
    let mut raw: Vec<u8> = Vec::with_capacity(4096);
    let mut buf = [0u8; 16 * 1024];
    let mut head_end: Option<usize> = None;
    let mut head = Duration::ZERO;
    let mut first_row = None;
    loop {
        let n = stream
            .read(&mut buf)
            .map_err(|e| format!("read {path}: {e}"))?;
        if n == 0 {
            break;
        }
        raw.extend_from_slice(&buf[..n]);
        if head_end.is_none() {
            if let Some(i) = find(&raw, b"\r\n\r\n") {
                head_end = Some(i + 4);
                head = t0.elapsed();
            }
        }
        if let (Some(h), None) = (head_end, first_row) {
            if let Some(i) = find(&raw[h..], ROW_MARKER) {
                if raw[h + i..].contains(&b'\n') {
                    first_row = Some(t0.elapsed());
                }
            }
        }
    }
    let end = t0.elapsed();
    let h = head_end.ok_or_else(|| format!("{path}: no response head"))?;
    let status = std::str::from_utf8(&raw[..h])
        .ok()
        .and_then(|s| s.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("{path}: no status line"))?;
    let body =
        String::from_utf8(raw[h..].to_vec()).map_err(|_| format!("{path}: body is not UTF-8"))?;
    Ok(Exchange {
        status,
        head,
        first_row,
        end,
        body,
    })
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

/// A parsed Prometheus text exposition: `(series, value)` pairs, where a
/// series is the metric name plus its label block as rendered.
#[derive(Debug, Clone, Default)]
pub struct Scrape(Vec<(String, f64)>);

impl Scrape {
    /// Parses the text exposition format (comments and blank lines
    /// skipped; unreadable lines ignored).
    pub fn parse(text: &str) -> Self {
        Scrape(
            text.lines()
                .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
                .filter_map(|l| {
                    let (series, value) = l.rsplit_once(' ')?;
                    Some((series.to_string(), value.trim().parse().ok()?))
                })
                .collect(),
        )
    }

    /// `GET /metrics` from a server.
    ///
    /// # Errors
    ///
    /// Returns a message when the scrape fails.
    pub fn fetch(addr: SocketAddr) -> Result<Self, String> {
        let ex = exchange(addr, "GET", "/metrics", "")?;
        if ex.status != 200 {
            return Err(format!("GET /metrics answered {}", ex.status));
        }
        Ok(Self::parse(&ex.body))
    }

    /// The sum of every series of metric `name` whose label block
    /// contains each of `labels` (e.g. `phase="train"`).
    pub fn sum(&self, name: &str, labels: &[&str]) -> f64 {
        self.0
            .iter()
            .filter(|(series, _)| {
                let (n, rest) = series.split_once('{').unwrap_or((series, ""));
                n == name && labels.iter().all(|l| rest.contains(l))
            })
            .map(|(_, v)| v)
            .sum()
    }

    /// Series-wise sum of several scrapes (e.g. one per worker).
    pub fn merged(scrapes: &[Scrape]) -> Self {
        Scrape(scrapes.iter().flat_map(|s| s.0.iter().cloned()).collect())
    }
}

/// The counter deltas a run reports, read from two scrapes.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counts {
    /// Monte-Carlo iterations executed.
    pub mc_iters: f64,
    /// Rows computed (not replayed): sweep points run in-process, or
    /// rows a coordinator's merge finalized from shard partials.
    pub rows_computed: f64,
    /// Rows served from the row cache.
    pub rows_replayed: f64,
    /// Row-cache lookups that missed.
    pub row_misses: f64,
    /// `prepare` calls: each observes exactly one `train` or
    /// `cache_load` phase.
    pub prepares: f64,
    /// Successful shard dispatches.
    pub shards: f64,
    /// Connections shed with 429 by admission control or quotas.
    pub shed_429: f64,
}

impl Counts {
    /// The deltas between two scrapes of the same registries.
    pub fn delta(before: &Scrape, after: &Scrape) -> Self {
        let d = |name: &str, labels: &[&str]| after.sum(name, labels) - before.sum(name, labels);
        // Shard workers count blocks in `spnn_points_total`; when a merge
        // ran, its finalized rows are the rows computed.
        let merged = d("spnn_merge_rows_finalized_total", &[]);
        Counts {
            mc_iters: d("spnn_mc_iterations_total", &[]),
            rows_computed: if merged > 0.0 {
                merged
            } else {
                d("spnn_points_total", &[])
            },
            rows_replayed: d("spnn_rowcache_hits_total", &[]),
            row_misses: d("spnn_rowcache_misses_total", &[]),
            prepares: d("spnn_phase_duration_seconds_count", &["phase=\"train\""])
                + d(
                    "spnn_phase_duration_seconds_count",
                    &["phase=\"cache_load\""],
                ),
            shards: d("spnn_shard_dispatch_total", &["outcome=\"ok\""]),
            shed_429: d("spnn_admission_shed_total", &[]) + d("spnn_quota_shed_total", &[]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrapes_sum_series_by_name_and_label() {
        let text = "# HELP x y\n# TYPE x counter\n\
                    spnn_points_total 4\n\
                    spnn_phase_duration_seconds_count{phase=\"train\"} 1\n\
                    spnn_phase_duration_seconds_count{phase=\"cache_load\"} 2\n\
                    spnn_phase_duration_seconds_count{phase=\"rounds\"} 9\n\
                    spnn_rowcache_hits_total{tier=\"mem\"} 5\n\
                    spnn_rowcache_hits_total{tier=\"disk\"} 1\n\
                    spnn_points_total_extra 100\n";
        let s = Scrape::parse(text);
        assert_eq!(s.sum("spnn_points_total", &[]), 4.0);
        assert_eq!(s.sum("spnn_rowcache_hits_total", &[]), 6.0);
        let c = Counts::delta(&Scrape::default(), &Scrape::merged(&[s.clone(), s]));
        assert_eq!(c.prepares, 6.0);
        assert_eq!(c.rows_computed, 8.0);
        assert_eq!(c.rows_replayed, 12.0);
    }
}
