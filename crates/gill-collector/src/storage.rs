//! Storage backends for retained updates.
//!
//! The daemon's dominant cost is persisting updates (§8: "less data is
//! written to disk, which is the most time-consuming task of our daemon").
//! Backends implement [`Storage`]; [`SlowStorage`] wraps any backend with a
//! configurable per-record cost so the Table-1 load experiment can emulate
//! disk pressure deterministically.

use bgp_types::{Asn, BgpUpdate, Timestamp};
use bgp_wire::{MrtRecord, MrtWriter};
use std::io::Write;
use std::time::Duration;

/// A retained update together with its reception time.
#[derive(Clone, Debug)]
pub struct StoredUpdate {
    /// The update (its `time` field is the reception timestamp).
    pub update: BgpUpdate,
}

/// A sink for retained updates.
pub trait Storage: Send {
    /// Persists one update. Records are taken by value: the daemon's drain
    /// loop owns each record exactly once, and passing ownership through
    /// lets in-memory backends keep it without a per-record clone (the hot
    /// path of §8's storage-bound daemon).
    fn store(&mut self, rec: StoredUpdate);

    /// Number of records persisted so far.
    fn stored(&self) -> usize;

    /// Flushes buffered state to durable storage (called when a drain loop
    /// stops). Backends without buffering can ignore it.
    fn flush(&mut self) {}
}

/// Keeps everything in memory (tests, analysis pipelines).
#[derive(Default)]
pub struct MemoryStorage {
    /// The stored updates.
    pub updates: Vec<BgpUpdate>,
}

impl Storage for MemoryStorage {
    fn store(&mut self, rec: StoredUpdate) {
        self.updates.push(rec.update);
    }

    fn stored(&self) -> usize {
        self.updates.len()
    }
}

/// Archives updates as MRT `BGP4MP_MESSAGE_AS4` records (§9's public
/// database format).
pub struct MrtStorage<W: Write + Send> {
    writer: MrtWriter<W>,
    local_as: u32,
}

impl<W: Write + Send> MrtStorage<W> {
    /// Wraps a writer; `local_as` is the collector's AS in the records.
    pub fn new(inner: W, local_as: u32) -> Self {
        MrtStorage {
            writer: MrtWriter::new(inner),
            local_as,
        }
    }

    /// Finishes and returns the inner writer.
    pub fn into_inner(self) -> std::io::Result<W> {
        self.writer.into_inner()
    }
}

impl<W: Write + Send> Storage for MrtStorage<W> {
    fn store(&mut self, rec: StoredUpdate) {
        // an update the wire cannot carry is skipped, not archived
        if let Ok(record) = MrtRecord::bgp4mp(&rec.update, Asn(self.local_as)) {
            let _ = self.writer.write_record(&record);
        }
    }

    fn stored(&self) -> usize {
        self.writer.records_written()
    }
}

/// Adds a fixed CPU cost per stored record (busy loop, so the cost is CPU
/// time like real serialization + syscall work, not just sleep).
pub struct SlowStorage<S: Storage> {
    inner: S,
    cost: Duration,
}

impl<S: Storage> SlowStorage<S> {
    /// Wraps `inner` with `cost` per record.
    pub fn new(inner: S, cost: Duration) -> Self {
        SlowStorage { inner, cost }
    }

    /// The wrapped backend.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: Storage> Storage for SlowStorage<S> {
    fn store(&mut self, rec: StoredUpdate) {
        let start = std::time::Instant::now();
        self.inner.store(rec);
        while start.elapsed() < self.cost {
            std::hint::spin_loop();
        }
    }

    fn stored(&self) -> usize {
        self.inner.stored()
    }

    fn flush(&mut self) {
        self.inner.flush();
    }
}

/// Convenience: wraps an update with a reception timestamp.
pub fn received(update: BgpUpdate, at: Timestamp) -> StoredUpdate {
    let mut u = update;
    u.time = at;
    StoredUpdate { update: u }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_types::{Asn, Prefix, UpdateBuilder, VpId};
    use bgp_wire::MrtReader;

    fn upd(pfx: u32) -> BgpUpdate {
        UpdateBuilder::announce(VpId::from_asn(Asn(65001)), Prefix::synthetic(pfx))
            .at(Timestamp::from_secs(1))
            .path([65001, 2, 3])
            .build()
    }

    #[test]
    fn memory_storage_counts() {
        let mut s = MemoryStorage::default();
        s.store(StoredUpdate { update: upd(1) });
        s.store(StoredUpdate { update: upd(2) });
        assert_eq!(s.stored(), 2);
        assert_eq!(s.updates.len(), 2);
    }

    #[test]
    fn mrt_storage_roundtrips_through_reader() {
        let mut s = MrtStorage::new(Vec::new(), 65535);
        for i in 0..5 {
            s.store(StoredUpdate { update: upd(i) });
        }
        assert_eq!(s.stored(), 5);
        let bytes = s.into_inner().unwrap();
        let mut r = MrtReader::new(&bytes[..]);
        let mut n = 0;
        while let Some(rec) = r.next_record().unwrap() {
            assert_eq!(rec.peer_as, Asn(65001));
            n += 1;
        }
        assert_eq!(n, 5);
    }

    #[test]
    fn slow_storage_takes_time() {
        let mut s = SlowStorage::new(MemoryStorage::default(), Duration::from_millis(3));
        let start = std::time::Instant::now();
        for i in 0..5 {
            s.store(StoredUpdate { update: upd(i) });
        }
        assert!(start.elapsed() >= Duration::from_millis(15));
        assert_eq!(s.stored(), 5);
    }

    #[test]
    fn received_overwrites_timestamp() {
        let r = received(upd(1), Timestamp::from_secs(99));
        assert_eq!(r.update.time, Timestamp::from_secs(99));
    }
}
