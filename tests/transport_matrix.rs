//! Transport matrix: the same session-layer invariants checked over both
//! transports the collector supports. `GILL_TRANSPORT=tcp` runs them over
//! real sockets through the evented pool; `GILL_TRANSPORT=sim` (the
//! default) runs them in-process over `SimTransport` on a virtual clock.
//! CI runs this suite once per backend.

use gill::collector::{
    handshake_client, run_scenario, DaemonConfig, FaultSchedule, MemoryStorage, MessageStream,
    Scenario,
};
use gill::prelude::*;
use gill::runtime::{EventedPool, RuntimeConfig};
use gill::wire::{BgpMessage, Notification, UpdateMessage};
use std::net::{Ipv4Addr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Backend {
    Tcp,
    Sim,
}

fn backend() -> Backend {
    match std::env::var("GILL_TRANSPORT").as_deref() {
        Ok("tcp") => Backend::Tcp,
        Ok("sim") | Err(_) => Backend::Sim,
        Ok(other) => panic!("unknown GILL_TRANSPORT value {other:?} (use tcp or sim)"),
    }
}

fn script(n: u32) -> Vec<UpdateMessage> {
    (0..n)
        .map(|i| {
            UpdateMessage::announce(
                Prefix::synthetic(i),
                AsPath::from_u32s([65021, 174, 3356]),
                Ipv4Addr::new(10, 0, 0, 9),
                vec![],
            )
        })
        .collect()
}

fn wait_counter(counter: &AtomicUsize, expect: usize) {
    for _ in 0..500 {
        if counter.load(Ordering::Relaxed) >= expect {
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Delivered prefixes, in reception order, for either backend.
fn deliver_over_backend(n: u32) -> Vec<Prefix> {
    match backend() {
        Backend::Sim => {
            let scenario = Scenario {
                seed: 1,
                updates: script(n),
                ..Scenario::default()
            };
            let out = run_scenario(&scenario);
            assert!(out.completed, "{}", out.transcript.lines().join("\n"));
            out.delivered
                .iter()
                .flat_map(|u| u.announced.iter().map(|n| n.prefix))
                .collect()
        }
        Backend::Tcp => {
            let mut pool =
                EventedPool::start(DaemonConfig::default(), RuntimeConfig::default(), None)
                    .unwrap();
            let addr = pool.bgp_addr().unwrap();
            {
                let stream = TcpStream::connect(addr).unwrap();
                let mut ms = MessageStream::new(stream);
                handshake_client(&mut ms, 65021).unwrap();
                for u in script(n) {
                    ms.write_message(&BgpMessage::Update(u)).unwrap();
                }
                ms.write_message(&BgpMessage::Notification(Notification::cease()))
                    .unwrap();
            }
            wait_counter(&pool.stats().received, n as usize);
            pool.stop();
            let mut storage = MemoryStorage::default();
            pool.pool().drain_into(&mut storage);
            storage.updates.iter().map(|u| u.prefix).collect()
        }
    }
}

#[test]
fn handshake_and_in_order_delivery() {
    let got = deliver_over_backend(8);
    let want: Vec<Prefix> = (0..8).map(Prefix::synthetic).collect();
    assert_eq!(got, want, "backend {:?}", backend());
}

#[test]
fn malformed_open_is_rejected_and_the_next_peer_is_served() {
    match backend() {
        Backend::Sim => {
            // one attempt, marker bit flipped in the client's OPEN: the
            // handshake must fail without delivering anything
            let mut scenario = Scenario {
                seed: 2,
                updates: script(2),
                max_attempts: 1,
                ..Scenario::default()
            };
            scenario.client_faults = vec![FaultSchedule::parse("corrupt@3.7").unwrap()];
            let out = run_scenario(&scenario);
            assert!(!out.completed);
            assert!(out.delivered.is_empty());
            assert!(out
                .transcript
                .lines()
                .join("\n")
                .contains("notification-tx code=1 sub=1"));

            // a clean scenario afterwards succeeds
            scenario.client_faults.clear();
            let out = run_scenario(&scenario);
            assert!(out.completed);
        }
        Backend::Tcp => {
            let mut pool =
                EventedPool::start(DaemonConfig::default(), RuntimeConfig::default(), None)
                    .unwrap();
            let addr = pool.bgp_addr().unwrap();
            {
                use std::io::Write;
                let mut s = TcpStream::connect(addr).unwrap();
                s.write_all(b"\xffnot a bgp marker at all\x00\x00").unwrap();
            }
            wait_counter(&pool.stats().handshake_failures, 1);
            assert_eq!(pool.stats().handshake_failures.load(Ordering::Relaxed), 1);

            // a clean peer afterwards is served
            {
                let stream = TcpStream::connect(addr).unwrap();
                let mut ms = MessageStream::new(stream);
                handshake_client(&mut ms, 65022).unwrap();
                ms.write_message(&BgpMessage::Update(script(1).remove(0)))
                    .unwrap();
            }
            wait_counter(&pool.stats().received, 1);
            pool.stop();
            assert_eq!(pool.stats().received.load(Ordering::Relaxed), 1);
        }
    }
}

#[test]
fn graceful_cease_closes_without_errors() {
    match backend() {
        Backend::Sim => {
            let scenario = Scenario {
                seed: 3,
                updates: script(1),
                ..Scenario::default()
            };
            let out = run_scenario(&scenario);
            assert!(out.completed);
            assert_eq!(out.attempts, 1);
            let joined = out.transcript.lines().join("\n");
            assert!(joined.contains("closed reason=NotificationReceived"));
            assert!(!joined.contains("HoldTimerExpired"));
        }
        Backend::Tcp => {
            let mut pool =
                EventedPool::start(DaemonConfig::default(), RuntimeConfig::default(), None)
                    .unwrap();
            let addr = pool.bgp_addr().unwrap();
            {
                let stream = TcpStream::connect(addr).unwrap();
                let mut ms = MessageStream::new(stream);
                handshake_client(&mut ms, 65023).unwrap();
                ms.write_message(&BgpMessage::Notification(Notification::cease()))
                    .unwrap();
            }
            wait_counter(&pool.stats().sessions_closed, 1);
            pool.stop();
            let stats = pool.stats();
            assert_eq!(stats.sessions_opened.load(Ordering::Relaxed), 1);
            assert_eq!(stats.sessions_closed.load(Ordering::Relaxed), 1);
            assert_eq!(stats.hold_expirations.load(Ordering::Relaxed), 0);
        }
    }
}
