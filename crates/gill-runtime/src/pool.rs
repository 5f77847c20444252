//! The evented runtime pool: a small fixed worker set, each running one
//! [`EventLoop`] over its own [`Reactor`], multiplexing thousands of
//! BGP and BMP sessions.
//!
//! Worker 0 additionally owns the listeners. Accepted connections are
//! capacity-checked (a 503-style shed), made non-blocking, and
//! dispatched round-robin to the workers over crossbeam channels; the
//! target worker's [`Waker`] interrupts its readiness wait so admission
//! is immediate. Every session feeds the one shared [`DaemonPool`]
//! pipeline (filters → validate → sink → bounded queue).

use crate::eventloop::{EventLoop, LoopStats, Machine, LISTENER_TOKEN_BASE};
use crate::reactor::{Reactor, Token, Waker};
use crate::sys;
use crossbeam::channel::{unbounded, Receiver, Sender};
use gill_bmp::config::BmpConfig;
use gill_bmp::fsm::{BmpFsm, BmpSessionConfig};
use gill_bmp::listener::BmpStats;
use gill_collector::daemon::UpdateSink;
use gill_collector::daemon::{reject_over_capacity, DaemonConfig, DaemonPool, DaemonStats};
use gill_collector::fsm::{SessionFsm, SessionRole};
use gill_collector::transport::SystemClock;
use parking_lot::Mutex;
use std::collections::HashSet;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How the evented runtime is shaped.
#[derive(Clone, Debug)]
pub struct RuntimeConfig {
    /// Event-loop worker threads (listeners live on worker 0).
    pub workers: usize,
    /// BGP listen address (`host:port`, port 0 for ephemeral); `None`
    /// runs without a BGP listener (e.g. BMP-only deployments).
    pub bgp_addr: Option<String>,
    /// BMP listener/policy configuration, if BMP ingest is wanted.
    pub bmp: Option<BmpConfig>,
}

impl Default for RuntimeConfig {
    fn default() -> RuntimeConfig {
        RuntimeConfig {
            workers: 4,
            bgp_addr: Some("127.0.0.1:0".to_string()),
            bmp: None,
        }
    }
}

/// Work handed to an event-loop worker.
enum Cmd {
    Bgp(TcpStream),
    Bmp(TcpStream, BmpSessionConfig),
    Shutdown,
}

/// Aggregated per-loop counters (sum over workers).
#[derive(Default, Debug, Clone, Copy)]
pub struct RuntimeTotals {
    /// Fds currently registered across all loops.
    pub registered: usize,
    /// Sessions currently multiplexed across all loops.
    pub sessions: usize,
    /// Readiness events processed.
    pub ready_events: usize,
    /// Timer-wheel fires delivered.
    pub timer_fires: usize,
    /// Cross-thread wakes observed.
    pub wakes: usize,
    /// Sessions admitted over all time.
    pub accepted: usize,
    /// Connections shed at accept by the session cap.
    pub accept_shed: usize,
}

/// The evented runtime: listeners + workers around a shared
/// [`DaemonPool`] pipeline.
pub struct EventedPool {
    pool: DaemonPool,
    bmp_stats: Arc<BmpStats>,
    loop_stats: Vec<Arc<LoopStats>>,
    txs: Vec<Sender<Cmd>>,
    wakers: Vec<Waker>,
    workers: Vec<std::thread::JoinHandle<()>>,
    stop: Arc<AtomicBool>,
    active: Arc<AtomicUsize>,
    bgp_addr: Option<SocketAddr>,
    bmp_addrs: Vec<SocketAddr>,
}

/// Listener-side state owned by worker 0.
struct Acceptor {
    bgp: Option<(TcpListener, Token)>,
    bmp: Vec<(TcpListener, Token, BmpSessionConfig)>,
    txs: Vec<Sender<Cmd>>,
    wakers: Vec<Waker>,
    next: usize,
    max_sessions: usize,
    bmp_max_sessions: usize,
    active: Arc<AtomicUsize>,
    bmp_active: Arc<AtomicUsize>,
    stats: Arc<DaemonStats>,
    bmp_stats: Arc<BmpStats>,
    loop_stats: Arc<LoopStats>,
}

impl Acceptor {
    /// Drains one ready listener to `WouldBlock` (mandatory under edge
    /// triggering), shedding over-capacity connections and dispatching
    /// the rest round-robin.
    fn accept_burst(&mut self, token: Token) {
        // split the borrows: listeners are read while dispatch state
        // (round-robin cursor, channels) is written
        let txs = &self.txs;
        let wakers = &self.wakers;
        let next = &mut self.next;
        let mut dispatch = |cmd: Cmd| {
            let i = *next % txs.len();
            *next = next.wrapping_add(1);
            if txs[i].send(cmd).is_ok() {
                wakers[i].wake();
            }
        };
        if let Some((l, t)) = &self.bgp {
            if *t == token {
                loop {
                    match l.accept() {
                        Ok((stream, _)) => {
                            if self.max_sessions > 0
                                && self.active.load(Ordering::Relaxed) >= self.max_sessions
                            {
                                self.loop_stats.accept_shed.fetch_add(1, Ordering::Relaxed);
                                reject_over_capacity(stream, &self.stats);
                                continue;
                            }
                            if stream.set_nonblocking(true).is_err() {
                                continue;
                            }
                            self.active.fetch_add(1, Ordering::Relaxed);
                            dispatch(Cmd::Bgp(stream));
                        }
                        Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(ref e) if e.kind() == io::ErrorKind::Interrupted => {}
                        Err(_) => break,
                    }
                }
                return;
            }
        }
        let Some((listener, _, cfg)) = self.bmp.iter().find(|(_, t, _)| *t == token) else {
            return;
        };
        loop {
            match listener.accept() {
                Ok((mut stream, _)) => {
                    if self.bmp_max_sessions > 0
                        && self.bmp_active.load(Ordering::Relaxed) >= self.bmp_max_sessions
                    {
                        self.loop_stats.accept_shed.fetch_add(1, Ordering::Relaxed);
                        self.bmp_stats
                            .accept_rejected
                            .fetch_add(1, Ordering::Relaxed);
                        gill_collector::transport::Transport::shutdown(&mut stream);
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    self.bmp_active.fetch_add(1, Ordering::Relaxed);
                    dispatch(Cmd::Bmp(stream, cfg.clone()));
                }
                Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(ref e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }
    }
}

impl EventedPool {
    /// Boots the evented runtime: builds the shared pipeline, binds the
    /// configured listeners, and spawns `rt.workers` event-loop
    /// threads. `sink` is the optional live-stream tee every session
    /// offers its post-filter accepted updates to.
    pub fn start(
        cfg: DaemonConfig,
        rt: RuntimeConfig,
        sink: Option<Arc<dyn UpdateSink>>,
    ) -> io::Result<EventedPool> {
        let workers = rt.workers.max(1);
        // thousands of sessions means thousands of fds; ask for headroom
        let _ = sys::raise_nofile(65_536);
        let pool = DaemonPool::pipeline(cfg.clone(), sink);
        let bmp_stats = Arc::new(BmpStats::default());
        let stop = Arc::new(AtomicBool::new(false));
        let active = Arc::new(AtomicUsize::new(0));
        let bmp_active = Arc::new(AtomicUsize::new(0));
        let known_peers = Arc::new(Mutex::new(HashSet::new()));
        let clock = Arc::new(SystemClock::new());

        let bgp_listener = match &rt.bgp_addr {
            Some(addr) => {
                let l = TcpListener::bind(addr)?;
                l.set_nonblocking(true)?;
                Some(l)
            }
            None => None,
        };
        let bgp_addr = bgp_listener.as_ref().map(|l| l.local_addr()).transpose()?;
        let mut bmp_listeners = Vec::new();
        let mut bmp_addrs = Vec::new();
        let mut bmp_max_sessions = 0;
        if let Some(bmp_cfg) = &rt.bmp {
            bmp_max_sessions = bmp_cfg.max_sessions;
            for lst in &bmp_cfg.listeners {
                let l = TcpListener::bind(&lst.bind)?;
                bmp_addrs.push(l.local_addr()?);
                l.set_nonblocking(true)?;
                let session_cfg = BmpSessionConfig {
                    idle_timeout_ms: lst.idle_timeout_ms,
                    policy: bmp_cfg.policy.clone(),
                };
                bmp_listeners.push((l, session_cfg));
            }
        }

        let mut txs = Vec::new();
        let mut rxs = Vec::new();
        for _ in 0..workers {
            let (tx, rx) = unbounded::<Cmd>();
            txs.push(tx);
            rxs.push(rx);
        }
        let mut loops = Vec::new();
        let mut wakers = Vec::new();
        let mut loop_stats = Vec::new();
        for _ in 0..workers {
            let reactor = Reactor::new()?;
            let mut el: EventLoop<TcpStream, Reactor> = EventLoop::new(
                reactor,
                clock.clone(),
                pool.session_ctx(),
                bmp_stats.clone(),
            );
            el.set_active_counter(active.clone());
            el.set_bmp_active_counter(bmp_active.clone());
            el.set_known_peers(known_peers.clone());
            wakers.push(el.source_mut().waker());
            loop_stats.push(el.stats());
            loops.push(el);
        }

        // worker 0 owns the listeners
        let mut acceptor = None;
        {
            let el = &mut loops[0];
            let bgp = match bgp_listener {
                Some(l) => {
                    el.register_external(l.as_raw_fd(), LISTENER_TOKEN_BASE)?;
                    Some((l, LISTENER_TOKEN_BASE))
                }
                None => None,
            };
            let mut bmp = Vec::new();
            for (i, (l, scfg)) in bmp_listeners.into_iter().enumerate() {
                let token = LISTENER_TOKEN_BASE + 1 + i as Token;
                el.register_external(l.as_raw_fd(), token)?;
                bmp.push((l, token, scfg));
            }
            if bgp.is_some() || !bmp.is_empty() {
                acceptor = Some(Acceptor {
                    bgp,
                    bmp,
                    txs: txs.clone(),
                    wakers: wakers.clone(),
                    next: 0,
                    max_sessions: cfg.max_sessions,
                    bmp_max_sessions,
                    active: active.clone(),
                    bmp_active: bmp_active.clone(),
                    stats: pool.session_ctx().stats.clone(),
                    bmp_stats: bmp_stats.clone(),
                    loop_stats: loop_stats[0].clone(),
                });
            }
        }

        let mut handles = Vec::new();
        for (i, el) in loops.into_iter().enumerate() {
            let rx = rxs[i].clone();
            let acceptor = if i == 0 { acceptor.take() } else { None };
            let session_cfg = cfg.session_config();
            let clock = clock.clone();
            let bmp_active = bmp_active.clone();
            handles.push(
                std::thread::Builder::new()
                    .name(format!("gill-evented-{i}"))
                    .spawn(move || worker_loop(el, rx, acceptor, session_cfg, clock, bmp_active))?,
            );
        }

        Ok(EventedPool {
            pool,
            bmp_stats,
            loop_stats,
            txs,
            wakers,
            workers: handles,
            stop,
            active,
            bgp_addr,
            bmp_addrs,
        })
    }

    /// The shared pipeline (filters, counters, storage queue, §14
    /// services). Query layers and storage drains attach here.
    pub fn pool(&self) -> &DaemonPool {
        &self.pool
    }

    /// Mutable pipeline access (e.g. to attach an orchestrator).
    pub fn pool_mut(&mut self) -> &mut DaemonPool {
        &mut self.pool
    }

    /// Address BGP peers should connect to, when a listener is bound.
    pub fn bgp_addr(&self) -> Option<SocketAddr> {
        self.bgp_addr
    }

    /// Addresses BMP routers should connect to, one per listener.
    pub fn bmp_addrs(&self) -> &[SocketAddr] {
        &self.bmp_addrs
    }

    /// BGP pipeline counters (shared with every session).
    pub fn stats(&self) -> &DaemonStats {
        self.pool.stats()
    }

    /// BMP subsystem counters.
    pub fn bmp_stats(&self) -> &Arc<BmpStats> {
        &self.bmp_stats
    }

    /// Per-worker event-loop counters.
    pub fn loop_stats(&self) -> &[Arc<LoopStats>] {
        &self.loop_stats
    }

    /// Live BGP sessions across all loops.
    pub fn active_sessions(&self) -> usize {
        self.active.load(Ordering::Relaxed)
    }

    /// Sums the per-loop counters.
    pub fn totals(&self) -> RuntimeTotals {
        let mut t = RuntimeTotals::default();
        for s in &self.loop_stats {
            t.registered += s.registered.load(Ordering::Relaxed);
            t.sessions += s.sessions.load(Ordering::Relaxed);
            t.ready_events += s.ready_events.load(Ordering::Relaxed);
            t.timer_fires += s.timer_fires.load(Ordering::Relaxed);
            t.wakes += s.wakes.load(Ordering::Relaxed);
            t.accepted += s.accepted.load(Ordering::Relaxed);
            t.accept_shed += s.accept_shed.load(Ordering::Relaxed);
        }
        t
    }

    /// Stops the runtime: listeners close with worker 0, every session
    /// winds down gracefully (BGP sends NOTIFICATION Cease), and the
    /// workers are joined with a bounded deadline. Then the inner
    /// [`DaemonPool`] stops, so a running drain returns once the queue
    /// is dry and a drain started afterwards empties it and returns.
    pub fn stop(&mut self) {
        if !self.stop.swap(true, Ordering::Relaxed) {
            for (tx, waker) in self.txs.iter().zip(&self.wakers) {
                let _ = tx.send(Cmd::Shutdown);
                waker.wake();
            }
            let handles = std::mem::take(&mut self.workers);
            let _stragglers = join_with_deadline(handles, Duration::from_secs(5));
        }
        self.pool.stop();
    }
}

impl Drop for EventedPool {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Joins `handles` with a bounded deadline, polling completion; threads
/// still running when the deadline passes are detached (dropped), and
/// their count is returned.
fn join_with_deadline(mut handles: Vec<std::thread::JoinHandle<()>>, deadline: Duration) -> usize {
    let t0 = Instant::now();
    loop {
        handles = handles
            .into_iter()
            .filter_map(|h| {
                if h.is_finished() {
                    let _ = h.join();
                    None
                } else {
                    Some(h)
                }
            })
            .collect();
        if handles.is_empty() {
            return 0;
        }
        if t0.elapsed() >= deadline {
            return handles.len();
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// One worker thread: readiness turns, inbox admission, accept bursts
/// (worker 0), and the graceful drain on shutdown.
fn worker_loop(
    mut el: EventLoop<TcpStream, Reactor>,
    rx: Receiver<Cmd>,
    mut acceptor: Option<Acceptor>,
    session_cfg: gill_collector::fsm::SessionConfig,
    clock: Arc<SystemClock>,
    bmp_active: Arc<AtomicUsize>,
) {
    use gill_collector::transport::Clock;
    let mut other = Vec::new();
    let mut draining = false;
    let mut drain_deadline = Instant::now();
    loop {
        other.clear();
        if el.run_once(Some(50), &mut other).is_err() {
            break;
        }
        if let Some(acc) = &mut acceptor {
            for ev in &other {
                if ev.token >= LISTENER_TOKEN_BASE && ev.token != crate::reactor::WAKE_TOKEN {
                    acc.accept_burst(ev.token);
                }
            }
        }
        while let Ok(cmd) = rx.try_recv() {
            match cmd {
                Cmd::Bgp(stream) => {
                    if draining {
                        drop(stream);
                        continue;
                    }
                    let fd = stream.as_raw_fd();
                    let fsm = SessionFsm::new(SessionRole::Passive, session_cfg);
                    let _ = el.add_session(stream, Some(fd), Machine::Bgp(fsm));
                }
                Cmd::Bmp(stream, scfg) => {
                    if draining {
                        bmp_active.fetch_sub(1, Ordering::Relaxed);
                        drop(stream);
                        continue;
                    }
                    let fd = stream.as_raw_fd();
                    let fsm = BmpFsm::new(scfg, clock.now_ms());
                    let _ = el.add_session(stream, Some(fd), Machine::Bmp(fsm));
                }
                Cmd::Shutdown => {
                    if !draining {
                        draining = true;
                        drain_deadline = Instant::now() + Duration::from_secs(2);
                        // listeners close with the acceptor
                        acceptor = None;
                        el.graceful_close_all();
                    }
                }
            }
        }
        if draining && (el.session_count() == 0 || Instant::now() >= drain_deadline) {
            break;
        }
    }
}
