//! Per-connection buffering between a non-blocking [`Transport`] and a
//! sans-I/O session machine.
//!
//! The FSMs already speak byte-in/byte-out; what an evented loop adds is
//! *when*: on readable, drain the socket to `WouldBlock` (mandatory
//! under edge triggering) feeding every chunk to the machine; on
//! writable, flush whatever output the machine queued that the socket
//! wouldn't take earlier.

use gill_collector::transport::Transport;
use std::io;

/// A buffered non-blocking connection.
pub struct EventedConn<T: Transport> {
    transport: T,
    /// Output the socket hasn't accepted yet; `off` indexes the unsent
    /// tail so flushing never memmoves.
    out: Vec<u8>,
    off: usize,
    /// A write hit a hard error: the peer is gone. The event loop
    /// surfaces this as EOF to the machine, mirroring the deterministic
    /// harness, where a failed write closes the session without waiting
    /// for the read side to notice.
    dead: bool,
}

impl<T: Transport> EventedConn<T> {
    /// Wraps a transport already in non-blocking mode.
    pub fn new(transport: T) -> EventedConn<T> {
        EventedConn {
            transport,
            out: Vec::new(),
            off: 0,
            dead: false,
        }
    }

    /// The wrapped transport.
    pub fn transport_mut(&mut self) -> &mut T {
        &mut self.transport
    }

    /// Reads until `WouldBlock` or EOF, handing each chunk to `sink`.
    /// Returns `Ok(true)` when EOF was observed. Hard I/O errors (e.g.
    /// connection reset) are reported as EOF too: from the session's
    /// perspective the connection is gone either way, and the FSM's
    /// close path owns the bookkeeping.
    pub fn fill(&mut self, scratch: &mut [u8], mut sink: impl FnMut(&[u8])) -> io::Result<bool> {
        loop {
            match self.transport.read(scratch) {
                Ok(0) => return Ok(true),
                Ok(n) => sink(&scratch[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    return Ok(false)
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return Ok(true),
            }
        }
    }

    /// Queues bytes for transmission (call [`flush`] to push them).
    ///
    /// [`flush`]: EventedConn::flush
    pub fn queue(&mut self, bytes: &[u8]) {
        if bytes.is_empty() {
            return;
        }
        if self.off == self.out.len() {
            self.out.clear();
            self.off = 0;
        }
        self.out.extend_from_slice(bytes);
    }

    /// Writes as much queued output as the socket will take. Returns
    /// `Ok(true)` when the buffer fully drained. Write failures mean the
    /// peer is gone; they surface as a drained buffer (the next read
    /// reports the close).
    pub fn flush(&mut self) -> io::Result<bool> {
        while self.off < self.out.len() {
            match self.transport.write(&self.out[self.off..]) {
                Ok(0) => break,
                Ok(n) => self.off += n,
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    return Ok(false)
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    // dead link: drop the buffer and remember it — the
                    // loop reports EOF to the machine
                    self.out.clear();
                    self.off = 0;
                    self.dead = true;
                    return Ok(true);
                }
            }
        }
        self.out.clear();
        self.off = 0;
        Ok(true)
    }

    /// Whether a write ever hit a hard error (the link is gone).
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// Whether queued output is waiting on socket writability.
    pub fn has_pending(&self) -> bool {
        self.off < self.out.len()
    }

    /// Bytes currently queued and unsent.
    pub fn pending_bytes(&self) -> usize {
        self.out.len() - self.off
    }

    /// Closes both directions (best effort).
    pub fn shutdown(&mut self) {
        self.transport.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gill_collector::transport::{sim_pair, FaultSchedule, VirtualClock};

    #[test]
    fn fill_drains_to_wouldblock_and_reports_eof() {
        let clock = VirtualClock::new();
        let (mut a, b) = sim_pair(&clock, FaultSchedule::default(), FaultSchedule::default());
        a.write_all(b"hello").unwrap();
        let mut conn = EventedConn::new(b);
        let mut got = Vec::new();
        let mut scratch = [0u8; 4096];
        let eof = conn
            .fill(&mut scratch, |c| got.extend_from_slice(c))
            .unwrap();
        assert!(!eof);
        assert_eq!(got, b"hello");
        // nothing more: immediately WouldBlock, no spin
        let eof = conn
            .fill(&mut scratch, |c| got.extend_from_slice(c))
            .unwrap();
        assert!(!eof);
        assert_eq!(got, b"hello");
        a.shutdown();
        let eof = conn
            .fill(&mut scratch, |c| got.extend_from_slice(c))
            .unwrap();
        assert!(eof);
    }

    #[test]
    fn queue_and_flush_roundtrip() {
        let clock = VirtualClock::new();
        let (a, mut b) = sim_pair(&clock, FaultSchedule::default(), FaultSchedule::default());
        let mut conn = EventedConn::new(a);
        conn.queue(b"one ");
        conn.queue(b"two");
        assert!(conn.has_pending());
        assert!(conn.flush().unwrap());
        assert!(!conn.has_pending());
        let mut buf = [0u8; 64];
        let n = b.read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"one two");
    }
}
