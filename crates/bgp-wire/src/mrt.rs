//! MRT export format (RFC 6396) — the storage format GILL publishes its
//! collected updates in (§9).
//!
//! Implements `BGP4MP_MESSAGE_AS4` records (type 16, subtype 4): the MRT
//! common header followed by peer/local AS and addresses (AFI 1 with
//! 4-byte or AFI 2 with 16-byte addresses) and a raw BGP message.
//! [`MrtWriter`] streams records to any `io::Write`; [`MrtReader`]
//! streams them back, skipping-and-counting records of types we do not
//! decode instead of aborting the archive (real collector dumps mix in
//! OSPF, TABLE_DUMP and exotic AFIs — see [`MrtReader::skipped`]).
//! [`MrtRecord::bgp4mp`] is the one place a domain update becomes an
//! archive record: the collector's archive, the looking glass's
//! `/mrt/updates` and the CLI's MRT writer all call it.

use crate::error::{WireError, WireResult};
use crate::message::BgpMessage;
use crate::update::{DecodeCtx, UpdateMessage};
use bgp_types::{Asn, BgpUpdate, Timestamp};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::io::{Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

/// MRT type code for BGP4MP.
pub const MRT_TYPE_BGP4MP: u16 = 16;
/// MRT subtype for BGP4MP_MESSAGE_AS4.
pub const MRT_SUBTYPE_MESSAGE_AS4: u16 = 4;

/// One MRT BGP4MP_MESSAGE_AS4 record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MrtRecord {
    /// Record timestamp (seconds resolution on the wire).
    pub time: Timestamp,
    /// The peer (VP) AS.
    pub peer_as: Asn,
    /// The collector's AS.
    pub local_as: Asn,
    /// Peer address (the record's AFI field follows its family).
    pub peer_ip: IpAddr,
    /// Collector address (must be the same family as `peer_ip`).
    pub local_ip: IpAddr,
    /// The carried BGP message.
    pub message: BgpMessage,
}

impl MrtRecord {
    /// The archive record for one domain update, as every GILL archive
    /// writer emits it: the update as a BGP message with its ADD-PATH id
    /// dropped (`BGP4MP_MESSAGE_AS4` carries no ADD-PATH signal; RFC 8050
    /// defines dedicated subtypes this platform does not emit), stamped
    /// with the update's time and VP AS. The peer and collector addresses
    /// are fixed per family — `10.255.0.1` / `10.255.0.254` for v4 routes,
    /// `2001:db8:ff::1` / `2001:db8:ff::fe` for v6 — so a v6 update is an
    /// AFI-2 record.
    pub fn bgp4mp(u: &BgpUpdate, local_as: Asn) -> WireResult<MrtRecord> {
        let msg = UpdateMessage::from_domain(u)?.without_path_ids();
        let (peer_ip, local_ip) = if u.prefix.is_ipv6() {
            (
                IpAddr::V6(Ipv6Addr::new(0x2001, 0xdb8, 0xff, 0, 0, 0, 0, 1)),
                IpAddr::V6(Ipv6Addr::new(0x2001, 0xdb8, 0xff, 0, 0, 0, 0, 0xfe)),
            )
        } else {
            (
                IpAddr::V4(Ipv4Addr::new(10, 255, 0, 1)),
                IpAddr::V4(Ipv4Addr::new(10, 255, 0, 254)),
            )
        };
        Ok(MrtRecord {
            time: u.time,
            peer_as: u.vp.asn,
            local_as,
            peer_ip,
            local_ip,
            message: BgpMessage::Update(msg),
        })
    }

    /// Encodes the record (header + body).
    pub fn encode(&self) -> WireResult<Vec<u8>> {
        let msg = self.message.encode_to_vec()?;
        let mut body = BytesMut::with_capacity(44 + msg.len());
        body.put_u32(self.peer_as.value());
        body.put_u32(self.local_as.value());
        body.put_u16(0); // interface index
        match (self.peer_ip, self.local_ip) {
            (IpAddr::V4(p), IpAddr::V4(l)) => {
                body.put_u16(1); // AFI: IPv4
                body.put_u32(u32::from(p));
                body.put_u32(u32::from(l));
            }
            (IpAddr::V6(p), IpAddr::V6(l)) => {
                body.put_u16(2); // AFI: IPv6
                body.extend_from_slice(&p.octets());
                body.extend_from_slice(&l.octets());
            }
            _ => return Err(WireError::Unsupported("mixed-family MRT peer addresses")),
        }
        body.extend_from_slice(&msg);
        let mut out = BytesMut::with_capacity(12 + body.len());
        out.put_u32(self.time.as_secs() as u32);
        out.put_u16(MRT_TYPE_BGP4MP);
        out.put_u16(MRT_SUBTYPE_MESSAGE_AS4);
        out.put_u32(body.len() as u32);
        out.extend_from_slice(&body);
        Ok(out.to_vec())
    }

    /// Decodes one record from `bytes` (classic sessions — no ADD-PATH);
    /// returns the record and the number of bytes consumed, or `None`
    /// when the input is incomplete.
    pub fn decode(bytes: &[u8]) -> WireResult<Option<(MrtRecord, usize)>> {
        Self::decode_ctx(bytes, &DecodeCtx::default())
    }

    /// Decodes one record, parsing the embedded BGP message under `ctx`.
    pub fn decode_ctx(bytes: &[u8], ctx: &DecodeCtx) -> WireResult<Option<(MrtRecord, usize)>> {
        if bytes.len() < 12 {
            return Ok(None);
        }
        let mut hdr = Bytes::copy_from_slice(&bytes[..12]);
        let secs = hdr.get_u32();
        let ty = hdr.get_u16();
        let subty = hdr.get_u16();
        let len = hdr.get_u32() as usize;
        if bytes.len() < 12 + len {
            return Ok(None);
        }
        // completeness is checked first, so an unsupported-record error
        // always refers to a fully buffered record that a reader can skip
        if ty != MRT_TYPE_BGP4MP || subty != MRT_SUBTYPE_MESSAGE_AS4 {
            return Err(WireError::UnsupportedMrt("unsupported MRT type/subtype"));
        }
        if len < 20 {
            return Err(WireError::BadMrt("BGP4MP body too short"));
        }
        let mut body = Bytes::copy_from_slice(&bytes[12..12 + len]);
        let peer_as = Asn(body.get_u32());
        let local_as = Asn(body.get_u32());
        let _ifindex = body.get_u16();
        let afi = body.get_u16();
        let (peer_ip, local_ip) = match afi {
            1 => (
                IpAddr::V4(Ipv4Addr::from(body.get_u32())),
                IpAddr::V4(Ipv4Addr::from(body.get_u32())),
            ),
            2 => {
                if body.remaining() < 32 {
                    return Err(WireError::BadMrt("BGP4MP v6 body too short"));
                }
                let mut p = [0u8; 16];
                for slot in p.iter_mut() {
                    *slot = body.get_u8();
                }
                let mut l = [0u8; 16];
                for slot in l.iter_mut() {
                    *slot = body.get_u8();
                }
                (IpAddr::V6(Ipv6Addr::from(p)), IpAddr::V6(Ipv6Addr::from(l)))
            }
            _ => return Err(WireError::UnsupportedMrt("unknown BGP4MP AFI")),
        };
        let mut msgbuf = BytesMut::from(&body[..]);
        let message = BgpMessage::decode_ctx(&mut msgbuf, ctx)?
            .ok_or(WireError::BadMrt("truncated BGP message in record"))?;
        Ok(Some((
            MrtRecord {
                time: Timestamp::from_secs(secs as u64),
                peer_as,
                local_as,
                peer_ip,
                local_ip,
                message,
            },
            12 + len,
        )))
    }
}

/// Streams MRT records to a writer.
pub struct MrtWriter<W: Write> {
    inner: W,
    records: usize,
}

impl<W: Write> MrtWriter<W> {
    /// Wraps a writer.
    pub fn new(inner: W) -> Self {
        MrtWriter { inner, records: 0 }
    }

    /// Writes one record.
    pub fn write_record(&mut self, r: &MrtRecord) -> std::io::Result<()> {
        let bytes = r
            .encode()
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        self.inner.write_all(&bytes)?;
        self.records += 1;
        Ok(())
    }

    /// Number of records written.
    pub fn records_written(&self) -> usize {
        self.records
    }

    /// Flushes and returns the inner writer.
    pub fn into_inner(mut self) -> std::io::Result<W> {
        self.inner.flush()?;
        Ok(self.inner)
    }
}

/// Streams MRT records from a reader.
///
/// Structurally complete records of unsupported types/subtypes/AFIs are
/// skipped and tallied in [`MrtReader::skipped`] rather than aborting the
/// stream; malformed records still error.
pub struct MrtReader<R: Read> {
    inner: R,
    buf: Vec<u8>,
    eof: bool,
    skipped: usize,
    ctx: DecodeCtx,
}

impl<R: Read> MrtReader<R> {
    /// Wraps a reader (classic sessions — no ADD-PATH).
    pub fn new(inner: R) -> Self {
        Self::with_ctx(inner, DecodeCtx::default())
    }

    /// Wraps a reader whose embedded BGP messages decode under `ctx`.
    pub fn with_ctx(inner: R, ctx: DecodeCtx) -> Self {
        MrtReader {
            inner,
            buf: Vec::new(),
            eof: false,
            skipped: 0,
            ctx,
        }
    }

    /// Number of unsupported records skipped so far (the skip ledger).
    pub fn skipped(&self) -> usize {
        self.skipped
    }

    /// Reads the next record, or `None` at end of stream.
    pub fn next_record(&mut self) -> WireResult<Option<MrtRecord>> {
        loop {
            match MrtRecord::decode_ctx(&self.buf, &self.ctx) {
                Ok(Some((rec, used))) => {
                    self.buf.drain(..used);
                    return Ok(Some(rec));
                }
                Err(WireError::UnsupportedMrt(_)) => {
                    // decode only reports unsupported records once fully
                    // buffered, so the header length is trustworthy here
                    let len =
                        u32::from_be_bytes([self.buf[8], self.buf[9], self.buf[10], self.buf[11]])
                            as usize;
                    self.buf.drain(..12 + len);
                    self.skipped += 1;
                }
                Err(e) => return Err(e),
                Ok(None) => {
                    if self.eof {
                        if self.buf.is_empty() {
                            return Ok(None);
                        }
                        return Err(WireError::BadMrt("trailing bytes at end of stream"));
                    }
                    let mut chunk = [0u8; 4096];
                    let n = self
                        .inner
                        .read(&mut chunk)
                        .map_err(|_| WireError::BadMrt("read error"))?;
                    if n == 0 {
                        self.eof = true;
                    } else {
                        self.buf.extend_from_slice(&chunk[..n]);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_types::AsPath;

    fn sample_record(t: u64, peer: u32) -> MrtRecord {
        MrtRecord {
            time: Timestamp::from_secs(t),
            peer_as: Asn(peer),
            local_as: Asn(65535),
            peer_ip: IpAddr::V4(Ipv4Addr::new(10, 0, 0, 2)),
            local_ip: IpAddr::V4(Ipv4Addr::new(10, 0, 0, 1)),
            message: BgpMessage::Update(UpdateMessage::announce(
                "192.0.2.0/24".parse().unwrap(),
                AsPath::from_u32s([peer, 2, 3]),
                Ipv4Addr::new(10, 0, 0, 2),
                vec![],
            )),
        }
    }

    fn sample_v6_record(t: u64, peer: u32) -> MrtRecord {
        MrtRecord {
            time: Timestamp::from_secs(t),
            peer_as: Asn(peer),
            local_as: Asn(65535),
            peer_ip: IpAddr::V6("2001:db8::2".parse().unwrap()),
            local_ip: IpAddr::V6("2001:db8::1".parse().unwrap()),
            message: BgpMessage::Update(UpdateMessage::announce_v6(
                "2001:db8:42::/48".parse().unwrap(),
                AsPath::from_u32s([peer, 2, 3]),
                "2001:db8::2".parse().unwrap(),
                vec![],
            )),
        }
    }

    #[test]
    fn record_roundtrip() {
        let r = sample_record(1_700_000_000, 65001);
        let bytes = r.encode().unwrap();
        let (back, used) = MrtRecord::decode(&bytes).unwrap().unwrap();
        assert_eq!(used, bytes.len());
        assert_eq!(back, r);
    }

    #[test]
    fn v6_record_roundtrip_uses_afi_2() {
        let r = sample_v6_record(1_700_000_000, 65001);
        let bytes = r.encode().unwrap();
        // AFI field sits after the 12-byte header + 8 bytes of ASNs +
        // 2 bytes interface index
        assert_eq!(u16::from_be_bytes([bytes[22], bytes[23]]), 2);
        let (back, used) = MrtRecord::decode(&bytes).unwrap().unwrap();
        assert_eq!(used, bytes.len());
        assert_eq!(back, r);
    }

    #[test]
    fn mixed_family_peer_addresses_fail_encode() {
        let mut r = sample_v6_record(1, 2);
        r.local_ip = IpAddr::V4(Ipv4Addr::new(10, 0, 0, 1));
        assert!(r.encode().is_err());
    }

    #[test]
    fn incomplete_input_returns_none() {
        let r = sample_record(1, 2);
        let bytes = r.encode().unwrap();
        assert!(MrtRecord::decode(&bytes[..5]).unwrap().is_none());
        assert!(MrtRecord::decode(&bytes[..bytes.len() - 1])
            .unwrap()
            .is_none());
    }

    #[test]
    fn writer_reader_stream_roundtrip() {
        let mut w = MrtWriter::new(Vec::new());
        let records: Vec<MrtRecord> = (0..10)
            .map(|i| {
                if i % 3 == 0 {
                    sample_v6_record(1000 + i, 65000 + i as u32)
                } else {
                    sample_record(1000 + i, 65000 + i as u32)
                }
            })
            .collect();
        for r in &records {
            w.write_record(r).unwrap();
        }
        assert_eq!(w.records_written(), 10);
        let bytes = w.into_inner().unwrap();
        let mut rd = MrtReader::new(&bytes[..]);
        let mut back = Vec::new();
        while let Some(r) = rd.next_record().unwrap() {
            back.push(r);
        }
        assert_eq!(back, records);
        assert_eq!(rd.skipped(), 0);
    }

    #[test]
    fn trailing_garbage_is_an_error() {
        let r = sample_record(1, 2);
        let mut bytes = r.encode().unwrap();
        bytes.extend_from_slice(&[1, 2, 3]);
        let mut rd = MrtReader::new(&bytes[..]);
        assert!(rd.next_record().unwrap().is_some());
        assert!(rd.next_record().is_err());
    }

    #[test]
    fn unsupported_type_rejected() {
        let r = sample_record(1, 2);
        let mut bytes = r.encode().unwrap();
        bytes[4] = 0;
        bytes[5] = 13; // TABLE_DUMP_V2
        assert!(MrtRecord::decode(&bytes).is_err());
    }

    #[test]
    fn reader_skips_and_counts_unsupported_records() {
        let good = [sample_record(1, 65001), sample_v6_record(2, 65002)];
        let mut ospf = sample_record(3, 65003).encode().unwrap();
        ospf[4] = 0;
        ospf[5] = 48; // OSPFv3 — complete record of a foreign type
        let mut exotic_afi = sample_record(4, 65004).encode().unwrap();
        exotic_afi[23] = 25; // AFI 25 (L2VPN) — complete but undecodable
        let mut bytes = Vec::new();
        bytes.extend(good[0].encode().unwrap());
        bytes.extend(ospf);
        bytes.extend(good[1].encode().unwrap());
        bytes.extend(exotic_afi);
        let mut rd = MrtReader::new(&bytes[..]);
        let mut back = Vec::new();
        while let Some(r) = rd.next_record().unwrap() {
            back.push(r);
        }
        assert_eq!(back, good);
        assert_eq!(rd.skipped(), 2);
    }
}
