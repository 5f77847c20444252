//! The benchmark's HTTP clients: a blocking keep-alive client for the
//! looking-glass endpoints, and a reader of the chunked NDJSON stream that
//! `/stream/updates` serves.

use crate::pace::{ProbeClock, PROBE_ASN};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One keep-alive connection, re-dialled whenever the server closes it
/// (the shipped `ServerConfig` does after 32 requests).
pub struct HttpClient {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
}

impl HttpClient {
    pub fn new(addr: SocketAddr) -> HttpClient {
        HttpClient {
            addr,
            stream: None,
            buf: Vec::with_capacity(64 * 1024),
        }
    }

    fn dial(&mut self) -> std::io::Result<()> {
        let s = TcpStream::connect(self.addr)?;
        s.set_nodelay(true)?;
        s.set_read_timeout(Some(Duration::from_secs(10)))?;
        s.set_write_timeout(Some(Duration::from_secs(10)))?;
        self.stream = Some(s);
        Ok(())
    }

    /// `GET target`; returns the status and the full body.
    pub fn get(&mut self, target: &str) -> std::io::Result<(u16, Vec<u8>)> {
        if self.stream.is_none() {
            self.dial()?;
        }
        let stream = self.stream.as_mut().expect("dialled above");
        let request = format!("GET {target} HTTP/1.1\r\nHost: bench\r\n\r\n");
        stream.write_all(request.as_bytes())?;

        // head
        self.buf.clear();
        let mut chunk = [0u8; 16 * 1024];
        let head_end = loop {
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos + 4;
            }
            let n = stream.read(&mut chunk)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    ErrorKind::UnexpectedEof,
                    "closed before the head",
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| std::io::Error::new(ErrorKind::InvalidData, "head is not UTF-8"))?;
        let bad = |what| std::io::Error::new(ErrorKind::InvalidData, what);
        let status: u16 = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("no status"))?;
        let mut length = None;
        let mut close = false;
        for line in head.lines().skip(1) {
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            if name.eq_ignore_ascii_case("content-length") {
                length = value.trim().parse::<usize>().ok();
            } else if name.eq_ignore_ascii_case("connection") {
                close = value.trim().eq_ignore_ascii_case("close");
            }
        }
        let length = length.ok_or_else(|| bad("no content-length"))?;

        // body
        let mut body = self.buf.split_off(head_end);
        body.reserve(length.saturating_sub(body.len()));
        while body.len() < length {
            let n = stream.read(&mut chunk)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    ErrorKind::UnexpectedEof,
                    "closed inside the body",
                ));
            }
            body.extend_from_slice(&chunk[..n]);
        }
        if close {
            self.stream = None;
        }
        Ok((status, body))
    }
}

/// FNV-1a (64-bit) of a response body.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = gill::scenario::Fnv64::new();
    h.write(bytes);
    h.finish()
}

/// What a `/stream/updates` subscriber read off its socket.
#[derive(Default)]
pub struct StreamSeen {
    pub frames: u64,
    pub missed: u64,
    /// The `eos` frame arrived: the stream ended cleanly.
    pub eos: bool,
    /// Probe due time → its frame read from the socket.
    pub lags_ms: Vec<f64>,
}

/// Reader of the chunked NDJSON stream. Chunk framing is skipped by
/// shape: frame lines start with `{`, chunk-size lines do not.
pub struct StreamReader {
    stream: TcpStream,
    pending: Vec<u8>,
    pub seen: StreamSeen,
}

impl StreamReader {
    /// Subscribes and returns once the response head has been read.
    pub fn subscribe(addr: SocketAddr) -> std::io::Result<StreamReader> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        stream.write_all(b"GET /stream/updates HTTP/1.1\r\nHost: bench\r\n\r\n")?;
        let mut pending = Vec::new();
        let mut chunk = [0u8; 4096];
        let head_end = loop {
            if let Some(pos) = pending.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos + 4;
            }
            let n = stream.read(&mut chunk)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    ErrorKind::UnexpectedEof,
                    "stream refused",
                ));
            }
            pending.extend_from_slice(&chunk[..n]);
        };
        if !pending.starts_with(b"HTTP/1.1 200") {
            return Err(std::io::Error::new(
                ErrorKind::InvalidData,
                "stream not 200",
            ));
        }
        pending.drain(..head_end);
        stream.set_read_timeout(Some(Duration::from_millis(100)))?;
        Ok(StreamReader {
            stream,
            pending,
            seen: StreamSeen::default(),
        })
    }

    /// Blocks (up to 100 ms) for the next bytes and accounts every whole
    /// frame line in them, so a probe is timed when its frame arrives,
    /// not when a poll loop next looks. Returns `false` once the server
    /// has closed the stream.
    pub fn read_some(&mut self, clock: &ProbeClock) -> bool {
        let mut chunk = [0u8; 64 * 1024];
        match self.stream.read(&mut chunk) {
            Ok(0) => return false,
            Ok(n) => self.pending.extend_from_slice(&chunk[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) => {}
            Err(_) => return false,
        }
        let mut start = 0;
        while let Some(nl) = self.pending[start..].iter().position(|&b| b == b'\n') {
            account_line(&self.pending[start..start + nl], clock, &mut self.seen);
            start += nl + 1;
        }
        self.pending.drain(..start);
        true
    }
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

/// Accounts one line of the stream body.
fn account_line(line: &[u8], clock: &ProbeClock, seen: &mut StreamSeen) {
    if line.first() != Some(&b'{') {
        return; // chunk framing
    }
    if find(line, b"\"type\":\"update\"").is_some() {
        seen.frames += 1;
        let tag = format!("\"{PROBE_ASN}:");
        if let Some(at) = find(line, tag.as_bytes()) {
            let digits = &line[at + tag.len()..];
            let end = digits
                .iter()
                .position(|b| !b.is_ascii_digit())
                .unwrap_or(digits.len());
            let id = std::str::from_utf8(&digits[..end])
                .ok()
                .and_then(|s| s.parse::<u16>().ok());
            if let Some(lag) = id.and_then(|id| clock.lag_ms(id)) {
                seen.lags_ms.push(lag);
            }
        }
    } else if let Some(at) = find(line, b"\"missed\":") {
        let digits = &line[at + 9..];
        let end = digits
            .iter()
            .position(|b| !b.is_ascii_digit())
            .unwrap_or(digits.len());
        seen.missed += std::str::from_utf8(&digits[..end])
            .ok()
            .and_then(|s| s.parse::<u64>().ok())
            .unwrap_or(0);
    } else if find(line, b"\"type\":\"eos\"").is_some() {
        seen.eos = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Frames rendered by the program's own encoder, wrapped in chunk
    /// framing as `/stream/updates` sends them.
    #[test]
    fn stream_lines_are_accounted_by_shape() {
        use gill::stream::Frame;
        use gill::types::{Asn, Prefix, UpdateBuilder, VpId};
        let clock = ProbeClock::new();
        clock.stamp(7, 1);
        let announce = |probe: Option<u16>| {
            let b = UpdateBuilder::announce(VpId::from_asn(Asn(65_001)), Prefix::synthetic(4))
                .path([65_001, 2, 3])
                .community(65_001, 100);
            probe
                .map_or(b.clone(), |id| b.community(PROBE_ASN, id))
                .build()
        };
        let lines = [
            "1a3\r".to_string(),
            Frame::update(1, &announce(Some(7))).json().to_string(),
            "\r".to_string(),
            Frame::update(2, &announce(None)).json().to_string(),
            Frame::gap(3, 12).json().to_string(),
            Frame::eos(2).json().to_string(),
        ];
        let mut seen = StreamSeen::default();
        for line in &lines {
            account_line(line.as_bytes(), &clock, &mut seen);
        }
        assert_eq!((seen.frames, seen.missed, seen.eos), (2, 12, true));
        assert_eq!(seen.lags_ms.len(), 1);
    }
}
