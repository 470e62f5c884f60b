//! Client-side Prometheus text handling: a std-only HTTP GET, a parser
//! for the text exposition format (version 0.0.4), and the cumulative-
//! bucket quantile estimator `sknn top` and the CI smoke check use.
//!
//! The parser accepts what [`sknn_obs::Registry`] emits plus the common
//! dialect: `# HELP` / `# TYPE` comments (skipped), `name{labels} value`
//! samples, optional timestamps (ignored). It is a validator as much as
//! a reader — CI scrapes the live endpoint and fails if a line does not
//! parse.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// One parsed sample line.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Metric name (including `_bucket`/`_sum`/`_count` suffixes).
    pub name: String,
    /// Label set, sorted by key.
    pub labels: BTreeMap<String, String>,
    /// Sample value.
    pub value: f64,
}

impl Sample {
    /// The `le` label parsed as a bound (`+Inf` → infinity), if present.
    pub fn le(&self) -> Option<f64> {
        let raw = self.labels.get("le")?;
        if raw == "+Inf" {
            Some(f64::INFINITY)
        } else {
            raw.parse().ok()
        }
    }
}

/// Parses a full exposition body into samples. Returns the zero-based
/// line number of the first malformed line on failure.
pub fn parse(body: &str) -> Result<Vec<Sample>, usize> {
    let mut samples = Vec::new();
    for (idx, line) in body.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        samples.push(parse_sample(line).ok_or(idx)?);
    }
    Ok(samples)
}

fn parse_sample(line: &str) -> Option<Sample> {
    // name{labels} value [timestamp]  |  name value [timestamp]
    let (name_part, rest) = match line.find('{') {
        Some(brace) => {
            let close = line[brace..].find('}')? + brace;
            (&line[..brace], &line[close + 1..])
        }
        None => {
            let sp = line.find(' ')?;
            (&line[..sp], &line[sp..])
        }
    };
    let name = name_part.trim().to_string();
    if name.is_empty() || !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':') {
        return None;
    }
    let labels = match line.find('{') {
        Some(brace) => {
            let close = line[brace..].find('}')? + brace;
            parse_labels(&line[brace + 1..close])?
        }
        None => BTreeMap::new(),
    };
    let mut fields = rest.split_whitespace();
    let value_str = fields.next()?;
    let value: f64 = match value_str {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        "NaN" => f64::NAN,
        other => other.parse().ok()?,
    };
    // An optional timestamp may follow; anything beyond that is garbage.
    let ts = fields.next();
    if ts.is_some_and(|t| t.parse::<i64>().is_err()) || fields.next().is_some() {
        return None;
    }
    Some(Sample { name, labels, value })
}

fn parse_labels(body: &str) -> Option<BTreeMap<String, String>> {
    let mut labels = BTreeMap::new();
    let mut rest = body.trim();
    while !rest.is_empty() {
        let eq = rest.find('=')?;
        let key = rest[..eq].trim().to_string();
        let after = &rest[eq + 1..];
        if !after.starts_with('"') {
            return None;
        }
        // Find the closing quote, honoring backslash escapes.
        let mut value = String::new();
        let mut chars = after[1..].char_indices();
        let mut consumed = None;
        while let Some((i, c)) = chars.next() {
            match c {
                '\\' => match chars.next() {
                    Some((_, 'n')) => value.push('\n'),
                    Some((_, e)) => value.push(e),
                    None => return None,
                },
                '"' => {
                    consumed = Some(i + 2); // opening quote + content + closing
                    break;
                }
                c => value.push(c),
            }
        }
        labels.insert(key, value);
        rest = after[consumed?..].trim_start();
        rest = rest.strip_prefix(',').unwrap_or(rest).trim_start();
    }
    Some(labels)
}

/// Estimates a quantile from a histogram's cumulative `_bucket` samples
/// (each carrying an `le` bound). Returns `None` when the histogram is
/// empty or the samples are not a plausible cumulative series. The
/// estimate is the upper bound of the bucket containing the quantile
/// rank — same resolution the server-side log histogram delivers.
pub fn histogram_quantile(buckets: &[Sample], q: f64) -> Option<f64> {
    let mut series: Vec<(f64, f64)> =
        buckets.iter().filter_map(|s| s.le().map(|le| (le, s.value))).collect();
    if series.is_empty() {
        return None;
    }
    series.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
    let total = series.last()?.1;
    if total <= 0.0 {
        return None;
    }
    let rank = q.clamp(0.0, 1.0) * total;
    for (le, cum) in &series {
        if *cum >= rank {
            return Some(*le);
        }
    }
    Some(series.last()?.0)
}

/// Send one GET and read the whole raw response. The request goes out in
/// a single write: the endpoint answers and closes as soon as it has the
/// request line, so a request still being written piecewise (`write!` on a
/// socket is one syscall per fragment) can meet a closed peer and fail
/// with `BrokenPipe`.
fn exchange(addr: &str, path: &str, timeout: Duration) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    let request = format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n");
    stream.write_all(request.as_bytes())?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    Ok(raw)
}

/// Plain HTTP/1.1 GET returning the response body; `addr` is
/// `host:port`. Follows no redirects, speaks no TLS — it exists so the
/// CI smoke test and `sknn top` need no HTTP dependency.
pub fn http_get(addr: &str, path: &str, timeout: Duration) -> std::io::Result<String> {
    let raw = exchange(addr, path, timeout)?;
    match raw.split_once("\r\n\r\n") {
        Some((_head, body)) => Ok(body.to_string()),
        None => Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "malformed HTTP response (no header terminator)",
        )),
    }
}

/// [`http_get`] returning `(status, body)` for callers that branch on
/// status (the drain check wants the 503).
pub fn http_get_status(
    addr: &str,
    path: &str,
    timeout: Duration,
) -> std::io::Result<(u16, String)> {
    let raw = exchange(addr, path, timeout)?;
    let status =
        raw.split(' ').nth(1).and_then(|c| c.parse().ok()).ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, "no status code")
        })?;
    let body = raw.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
    Ok((status, body))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_counters_gauges_and_labels() {
        let body = "# HELP hits Total hits\n# TYPE hits counter\nhits 42\n\
                    temp{city=\"oslo\",unit=\"c\"} -3.5\n";
        let samples = parse(body).unwrap();
        assert_eq!(samples.len(), 2);
        assert_eq!(samples[0].name, "hits");
        assert_eq!(samples[0].value, 42.0);
        assert_eq!(samples[1].labels.get("city").unwrap(), "oslo");
        assert_eq!(samples[1].value, -3.5);
    }

    #[test]
    fn rejects_garbage_with_line_number() {
        let body = "ok_metric 1\nnot a metric at all!!!\n";
        assert_eq!(parse(body), Err(1));
    }

    #[test]
    fn quantile_from_cumulative_buckets() {
        let mk = |le: &str, v: f64| Sample {
            name: "lat_bucket".into(),
            labels: [("le".to_string(), le.to_string())].into_iter().collect(),
            value: v,
        };
        let buckets = vec![mk("1", 10.0), mk("10", 60.0), mk("100", 95.0), mk("+Inf", 100.0)];
        assert_eq!(histogram_quantile(&buckets, 0.5), Some(10.0));
        assert_eq!(histogram_quantile(&buckets, 0.95), Some(100.0));
        assert_eq!(histogram_quantile(&buckets, 0.99), Some(f64::INFINITY));
        assert_eq!(histogram_quantile(&[], 0.5), None);
        assert_eq!(histogram_quantile(&[mk("1", 0.0)], 0.5), None);
    }

    #[test]
    fn registry_output_round_trips_through_parser() {
        let reg = sknn_obs::Registry::new();
        reg.counter_fn("c_total", "A counter", || 5);
        let h = sknn_obs::LogHistogram::new();
        h.record(100);
        h.record(3000);
        reg.histogram_fn("lat_us", "Latency", "", move || h.snapshot());
        let samples = parse(&reg.render()).unwrap();
        assert!(samples.iter().any(|s| s.name == "c_total" && s.value == 5.0));
        let buckets: Vec<Sample> =
            samples.iter().filter(|s| s.name == "lat_us_bucket").cloned().collect();
        assert!(!buckets.is_empty());
        let p50 = histogram_quantile(&buckets, 0.5).unwrap();
        assert!(p50 >= 100.0, "p50 {p50} should cover the 100µs sample");
        assert!(samples.iter().any(|s| s.name == "lat_us_count" && s.value == 2.0));
    }
}
