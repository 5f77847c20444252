//! End-to-end tests of the collector → broker → subscriber pipeline.
//!
//! The determinism tests drive the PR-2 session harness (virtual clock,
//! seeded stall faults) to produce a *reproducible* delivered-update
//! sequence, feed it through the broker with a scripted subscriber
//! interleave, and assert that three independent runs produce bit-identical
//! per-subscriber frame sequences — overload behaviour included.
//!
//! The live test runs the real thing: a TCP BGP session into an
//! `EventedPool` with a `StreamPublisher` sink, fanned out over the
//! chunked HTTP streaming endpoint.

use bgp_types::{Asn, BgpUpdate, Prefix, Timestamp, UpdateBuilder, VpId};
use bgp_wire::{BgpMessage, Notification, UpdateMessage};
use gill_collector::{
    handshake_client, run_scenario, DaemonConfig, FaultSchedule, MessageStream, Scenario,
    UpdateSink,
};
use gill_query::{RouteStore, ServerConfig};
use gill_runtime::{EventedPool, RuntimeConfig};
use gill_stream::{
    serve_streaming, BrokerConfig, Delivery, Frame, FramePayload, SlowPolicy, StreamBroker,
    StreamFilter,
};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

/// FNV-1a over a rendered frame sequence: equal digests ⇒ the subscriber
/// saw the exact same bytes in the exact same order.
fn fnv1a(lines: &[String]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for line in lines {
        for b in line.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x1_0000_01b3);
        }
        h ^= u64::from(b'\n');
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    h
}

/// One deterministic harness run: a stalled-then-reconnected session
/// delivers its script, which is published through a small ring against
/// one fast and one deliberately lagging subscriber. Returns the two
/// subscribers' rendered frame sequences.
fn harness_run(seed: u64) -> (Vec<String>, Vec<String>) {
    let updates: Vec<UpdateMessage> = (0..24)
        .map(|i| UpdateMessage::withdraw(Prefix::synthetic(i)))
        .collect();
    let mut scenario = Scenario {
        seed,
        updates,
        // the first attempt stalls mid-stream; the retry completes
        client_faults: vec![FaultSchedule::parse("stall@600").unwrap()],
        max_attempts: 3,
        ..Scenario::default()
    };
    scenario.server.hold_time = 5;
    scenario.client.hold_time = 5;
    let out = run_scenario(&scenario);
    assert!(out.completed, "scripted session must deliver");

    // convert the delivered wire messages to domain updates at a virtual
    // timestamp derived from their position (no wall clock anywhere)
    let vp = VpId::from_asn(Asn(scenario.client.local_asn));
    let domain: Vec<BgpUpdate> = out
        .delivered
        .iter()
        .enumerate()
        .flat_map(|(i, w)| w.to_domain(vp, Timestamp::from_millis(i as u64 * 10)))
        .collect();

    // a ring smaller than the update count, so the lagging subscriber
    // must overrun and emit gap markers
    let broker = StreamBroker::new(BrokerConfig {
        ring_capacity: 8,
        max_subscribers: 4,
    });
    let mut fast = broker
        .subscribe(StreamFilter::any(), SlowPolicy::SkipWithGapMarker)
        .unwrap();
    let mut slow = broker
        .subscribe(StreamFilter::any(), SlowPolicy::SkipWithGapMarker)
        .unwrap();
    let mut fast_lines = Vec::new();
    let mut slow_lines = Vec::new();
    let drain = |sub: &mut gill_stream::Subscription, lines: &mut Vec<String>| loop {
        match sub.poll_next() {
            Delivery::Frame(f) => lines.push(f.json().to_string()),
            Delivery::Gap(g) => lines.push(g.json().to_string()),
            Delivery::Pending | Delivery::Closed => break,
            Delivery::Overrun { .. } => unreachable!("skip policy"),
        }
    };
    for (i, u) in domain.iter().enumerate() {
        broker.publish(u).expect("subscribers attached");
        // scripted interleave: fast keeps up, slow wakes rarely
        drain(&mut fast, &mut fast_lines);
        if i % 13 == 12 {
            drain(&mut slow, &mut slow_lines);
        }
    }
    broker.close();
    drain(&mut fast, &mut fast_lines);
    drain(&mut slow, &mut slow_lines);
    (fast_lines, slow_lines)
}

#[test]
fn stalled_session_replays_bit_identically_through_the_broker() {
    let runs: Vec<(Vec<String>, Vec<String>)> = (0..3).map(|_| harness_run(42)).collect();
    let fast_digests: Vec<u64> = runs.iter().map(|(f, _)| fnv1a(f)).collect();
    let slow_digests: Vec<u64> = runs.iter().map(|(_, s)| fnv1a(s)).collect();
    assert_eq!(fast_digests[0], fast_digests[1]);
    assert_eq!(fast_digests[1], fast_digests[2]);
    assert_eq!(slow_digests[0], slow_digests[1]);
    assert_eq!(slow_digests[1], slow_digests[2]);
    // and the overload behaviour itself is part of what replayed: the
    // lagging subscriber saw at least one gap marker, the fast one none
    let (fast, slow) = &runs[0];
    assert!(
        slow.iter().any(|l| l.contains("\"type\":\"gap\"")),
        "lagging subscriber must be gapped: {slow:?}"
    );
    assert!(
        fast.iter().all(|l| !l.contains("\"type\":\"gap\"")),
        "fast subscriber must see every frame: {fast:?}"
    );
    // fast subscriber got every update frame in sequence
    let n_updates = fast
        .iter()
        .filter(|l| l.contains("\"type\":\"update\""))
        .count();
    assert!(
        n_updates >= 24,
        "all delivered updates streamed: {n_updates}"
    );
}

#[test]
fn different_seeds_may_reorder_but_still_account_for_every_frame() {
    let (fast, _) = harness_run(7);
    // whatever the backoff jitter did, the fast subscriber's stream is a
    // clean prefix-free sequence ending in eos
    let last = fast.last().expect("nonempty");
    let (_, payload) = Frame::from_json(last).unwrap();
    assert!(matches!(payload, FramePayload::Eos { .. }));
    let mut prev = None;
    for l in &fast {
        let (seq, payload) = Frame::from_json(l).unwrap();
        if matches!(payload, FramePayload::Update(_)) {
            if let Some(p) = prev {
                assert!(seq > p, "monotone seqs: {seq} after {p}");
            }
            prev = Some(seq);
        }
    }
}

/// Reads one chunked HTTP response head, asserting 200 + chunked.
fn open_stream(addr: std::net::SocketAddr, target: &str) -> BufReader<TcpStream> {
    let mut s = TcpStream::connect(addr).unwrap();
    write!(s, "GET {target} HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
    let mut r = BufReader::new(s);
    let mut line = String::new();
    r.read_line(&mut line).unwrap();
    assert!(line.starts_with("HTTP/1.1 200"), "got {line:?}");
    loop {
        let mut l = String::new();
        r.read_line(&mut l).unwrap();
        if l == "\r\n" {
            return r;
        }
    }
}

/// Reads chunked body lines until the terminating zero-length chunk.
fn read_chunked_lines(r: &mut BufReader<TcpStream>) -> Vec<String> {
    let mut lines = Vec::new();
    loop {
        let mut size_line = String::new();
        r.read_line(&mut size_line).unwrap();
        let size = usize::from_str_radix(size_line.trim(), 16).unwrap();
        if size == 0 {
            let mut fin = String::new();
            r.read_line(&mut fin).unwrap();
            return lines;
        }
        let mut payload = vec![0u8; size + 2];
        r.read_exact(&mut payload).unwrap();
        payload.truncate(size);
        for l in String::from_utf8(payload).unwrap().lines() {
            lines.push(l.to_string());
        }
    }
}

#[test]
fn live_tcp_session_fans_out_to_http_subscribers() {
    // collector with a stream sink + combined query/stream HTTP server
    let broker = StreamBroker::new(BrokerConfig {
        ring_capacity: 64,
        max_subscribers: 8,
    });
    let sink: Arc<dyn UpdateSink> = Arc::new(broker.publisher());
    let mut pool = EventedPool::start(
        DaemonConfig::default(),
        RuntimeConfig::default(),
        Some(sink),
    )
    .unwrap();
    let store = Arc::new(parking_lot::RwLock::new(RouteStore::default()));
    let mut srv = serve_streaming(
        "127.0.0.1:0",
        ServerConfig::default(),
        store,
        None,
        broker.clone(),
    )
    .unwrap();

    // subscribe BEFORE the session sends: zero-subscriber publishes shed
    let mut r = open_stream(srv.local_addr(), "/stream/updates");
    for _ in 0..200 {
        if broker.subscribers() == 1 {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(broker.subscribers(), 1);

    // a real BGP session over TCP delivers three announcements
    let peer = pool.bgp_addr().unwrap();
    std::thread::spawn(move || {
        let stream = TcpStream::connect(peer).unwrap();
        let mut ms = MessageStream::new(stream);
        handshake_client(&mut ms, 65001).unwrap();
        for i in 0..3u32 {
            let u = UpdateBuilder::announce(VpId::from_asn(Asn(65001)), Prefix::synthetic(i))
                .path([65001, 2, 3])
                .build();
            let wire = UpdateMessage::from_domain(&u).unwrap();
            ms.write_message(&BgpMessage::Update(wire)).unwrap();
        }
        ms.write_message(&BgpMessage::Notification(Notification::cease()))
            .unwrap();
    })
    .join()
    .unwrap();

    // the sink tees post-filter: wait for the publishes to land
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while broker.stats().published < 3 {
        assert!(
            std::time::Instant::now() < deadline,
            "published={} ",
            broker.stats().published
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    broker.close();

    let lines = read_chunked_lines(&mut r);
    assert_eq!(lines.len(), 4, "3 updates + eos: {lines:?}");
    let mut seqs = Vec::new();
    for l in &lines[..3] {
        let (seq, payload) = Frame::from_json(l).unwrap();
        match payload {
            FramePayload::Update(u) => {
                assert_eq!(u.vp, VpId::from_asn(Asn(65001)));
                seqs.push(seq);
            }
            other => panic!("expected update, got {other:?}"),
        }
    }
    assert_eq!(seqs, vec![0, 1, 2]);
    let (_, last) = Frame::from_json(&lines[3]).unwrap();
    assert!(matches!(last, FramePayload::Eos { published: 3 }));

    // the collector counted the tee
    let stats = pool.stats();
    let load = |c: &std::sync::atomic::AtomicUsize| c.load(std::sync::atomic::Ordering::Relaxed);
    assert_eq!(load(&stats.stream_published), 3);
    assert_eq!(load(&stats.stream_shed), 0);
    assert_eq!(load(&stats.stream_subscribers), 1);

    pool.stop();
    srv.stop();
}
