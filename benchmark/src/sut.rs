//! The system under test, wired in-process the way
//! `gill-collectord --runtime evented --workers 2 --stream-addr …` wires
//! it: `EventedPool` → `SessionCtx::offer` → bounded queue → MRT archive +
//! `QueryableStorage`, the broker as sink, `serve_streaming` beside it.
//!
//! Every constructor call into `gill::{runtime, collector, bmp, query,
//! stream}` lives in this file — the live wiring above and the per-stage
//! objects the traced replay drives — so an API change in the program
//! costs a one-file follow-up here.

use crate::pace::{probe_id, ProbeClock};
use crossbeam::channel::{bounded, Receiver};
use gill::bmp::{BmpConfig, BmpFsm, BmpSessionConfig};
use gill::collector::daemon::{handshake_client_mp, MessageStream};
use gill::collector::{
    DaemonConfig, DaemonStats, ForwardRule, Forwarder, MrtStorage, Orchestrator,
    OrchestratorConfig, SessionCtx, Storage, StoredUpdate, UpdateValidator,
};
use gill::core::{FilterHandle, FilterSet, FilterView};
use gill::query::{QueryableStorage, RouteStore, ServerConfig, SharedStore, StoreConfig};
use gill::runtime::{EventedPool, RuntimeConfig};
use gill::stream::{
    serve_streaming, BrokerConfig, SlowPolicy, StreamBroker, StreamFilter, StreamPublisher,
    Subscription,
};
use gill::types::{BgpUpdate, FamilySet, Prefix, VpId};
use gill::wire::{BgpMessage, Notification};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::io::BufWriter;
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The collector's own AS (the shipped `--local-asn` default).
pub const LOCAL_ASN: u32 = 65_535;

/// Event-loop workers (`--workers 2`: one per core of the reference box).
pub const WORKERS: usize = 2;

/// How one workload wants the collector configured.
pub struct SutConfig {
    /// Bounded storage queue (`--queue`).
    pub queue_capacity: usize,
    /// §14 validity checks on.
    pub validate: bool,
    /// Accept a BMP router beside the BGP listener (`--bmp-addr`).
    pub bmp: bool,
    /// Broker ring size (`--ring-capacity`).
    pub ring_capacity: usize,
    /// Filters installed before the first session (`--filters`).
    pub filters: FilterSet,
    /// One operator forwarding subscription for this covering prefix.
    pub operator_prefix: Option<Prefix>,
    /// Attach an orchestrator retraining at this interval
    /// (`--retrain-interval`); turns the mirror tee on.
    pub retrain: Option<Duration>,
    /// Where the MRT archive is written (`--archive`).
    pub archive: PathBuf,
}

/// Every counter the collector exposes, read at one instant.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    pub decoded: u64,
    pub retained: u64,
    pub filtered: u64,
    pub lost: u64,
    pub invalid: u64,
    pub forwarded: u64,
    pub mirror_fed: u64,
    pub mirror_dropped: u64,
    pub stream_published: u64,
    pub stream_shed: u64,
    pub filter_epoch: u64,
    pub sessions_opened: u64,
    pub ready_events: u64,
    pub wakes: u64,
    pub timer_fires: u64,
    pub bmp_updates: u64,
    pub bmp_peers: u64,
    pub bmp_unknown_peer: u64,
    pub http_refused: u64,
}

/// The running collector.
pub struct Sut {
    pool: EventedPool,
    broker: StreamBroker,
    store: SharedStore,
    server: gill::query::HttpServer,
    /// Keeps the operator's feed alive so forwarded updates are delivered.
    operator: Option<gill::collector::Subscription>,
    archive: PathBuf,
}

impl Sut {
    /// Boots listeners, workers, broker, store and HTTP server.
    pub fn start(cfg: SutConfig) -> std::io::Result<Sut> {
        let broker = StreamBroker::new(BrokerConfig {
            ring_capacity: cfg.ring_capacity,
            ..BrokerConfig::default()
        });
        let store: SharedStore = QueryableStorage::new(StoreConfig::default()).handle();
        let server = serve_streaming(
            "127.0.0.1:0",
            ServerConfig::default(),
            store.clone(),
            None,
            broker.clone(),
        )?;
        let mut pool = EventedPool::start(
            DaemonConfig {
                local_asn: LOCAL_ASN,
                queue_capacity: cfg.queue_capacity,
                validate: cfg.validate,
                ..DaemonConfig::default()
            },
            RuntimeConfig {
                workers: WORKERS,
                bgp_addr: Some("127.0.0.1:0".into()),
                bmp: cfg.bmp.then(|| BmpConfig::single("127.0.0.1:0")),
            },
            Some(Arc::new(broker.publisher())),
        )?;
        pool.pool().install_filters(cfg.filters);
        let operator = cfg
            .operator_prefix
            .map(|p| pool.pool().subscribe(vec![ForwardRule::for_prefix(p)]).1);
        if let Some(interval) = cfg.retrain {
            let orch = Orchestrator::new(OrchestratorConfig::default(), Vec::new(), HashMap::new());
            pool.pool_mut().attach_orchestrator(orch, interval)?;
        }
        Ok(Sut {
            pool,
            broker,
            store,
            server,
            operator,
            archive: cfg.archive,
        })
    }

    pub fn bgp_addr(&self) -> SocketAddr {
        self.pool.bgp_addr().expect("bgp listener bound")
    }

    pub fn bmp_addr(&self) -> Option<SocketAddr> {
        self.pool.bmp_addrs().first().copied()
    }

    pub fn http_addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// An in-process subscriber to the live stream.
    pub fn subscribe(&self) -> Subscription {
        self.broker
            .subscribe(StreamFilter::any(), SlowPolicy::SkipWithGapMarker)
            .expect("broker accepts a subscriber")
    }

    pub fn stream_subscribers(&self) -> usize {
        self.broker.subscribers()
    }

    /// The storage backend collectord builds: MRT archive plus the
    /// serving store, instrumented to time probes and to signal on `done`
    /// each time the stored count reaches one of the ascending
    /// `milestones`; at the last one the archive is flushed first. Probes
    /// are timed once the first milestone (the warm-up) has passed.
    pub fn storage(
        &self,
        milestones: Vec<usize>,
        probes: Arc<ProbeClock>,
        done: std::sync::mpsc::Sender<Instant>,
    ) -> std::io::Result<TeeStorage> {
        if let Some(dir) = self.archive.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let file = std::fs::File::create(&self.archive)?;
        Ok(TeeStorage {
            archive: Some(MrtStorage::new(BufWriter::new(file), LOCAL_ASN)),
            serving: QueryableStorage::with_store(self.store.clone()),
            stored: 0,
            archived: 0,
            timed_from: if milestones.len() > 1 {
                milestones[0]
            } else {
                0
            },
            milestones,
            probes,
            lags_ms: Vec::new(),
            progress: Arc::new(AtomicUsize::new(0)),
            done,
        })
    }

    /// Runs the storage drain on the calling thread until the pool is
    /// told to stop and the queue is dry, then flushes `storage`.
    pub fn drain_into(&self, storage: &mut TeeStorage) {
        self.pool.pool().drain_into(storage);
    }

    /// Updates waiting in the storage queue right now.
    pub fn queue_depth(&self) -> usize {
        self.pool.pool().injector().len()
    }

    pub fn store(&self) -> &SharedStore {
        &self.store
    }

    pub fn archive_path(&self) -> &Path {
        &self.archive
    }

    pub fn counters(&self) -> Counters {
        let load = |c: &AtomicUsize| c.load(Ordering::Relaxed) as u64;
        let d: &DaemonStats = self.pool.stats();
        let t = self.pool.totals();
        let b = self.pool.bmp_stats();
        let h = self.server.stats();
        Counters {
            decoded: load(&d.received),
            retained: load(&d.retained),
            filtered: load(&d.filtered),
            lost: load(&d.lost),
            invalid: load(&d.invalid),
            forwarded: load(&d.forwarded),
            mirror_fed: load(&d.mirror_fed),
            mirror_dropped: load(&d.mirror_dropped),
            stream_published: load(&d.stream_published),
            stream_shed: load(&d.stream_shed),
            filter_epoch: d.filter_epoch.load(Ordering::Relaxed),
            sessions_opened: load(&d.sessions_opened),
            ready_events: t.ready_events as u64,
            wakes: t.wakes as u64,
            timer_fires: t.timer_fires as u64,
            bmp_updates: load(&b.updates),
            bmp_peers: load(&b.peers_up),
            bmp_unknown_peer: load(&b.unknown_peer),
            http_refused: load(&h.refused),
        }
    }

    /// Updates the pipeline has finished with short of storage: filtered,
    /// rejected as invalid, or lost to a full queue.
    pub fn completed(&self) -> u64 {
        let d: &DaemonStats = self.pool.stats();
        let load = |c: &AtomicUsize| c.load(Ordering::Relaxed) as u64;
        load(&d.filtered) + load(&d.invalid) + load(&d.lost)
    }

    /// Updates the operator subscription received so far.
    pub fn operator_received(&self) -> usize {
        self.operator
            .as_ref()
            .map_or(0, |s| s.feed.try_iter().count())
    }

    /// Ends the live stream: subscribers drain what is left, then close.
    pub fn close_stream(&self) {
        self.broker.close();
    }

    /// Tells the storage drain to finish once the queue is dry.
    pub fn request_stop(&self) {
        self.pool.pool().request_stop();
    }

    /// Ends the stream, then closes sessions, workers and the HTTP server.
    pub fn stop(mut self) {
        self.broker.close();
        self.pool.stop();
        self.server.stop();
        let _ = std::fs::remove_file(&self.archive);
    }
}

/// collectord's `TeeStorage` (archive + serving store) with the
/// benchmark's probes: lag of probe updates on arrival, and a completion
/// signal once everything expected is stored and the archive is flushed.
pub struct TeeStorage {
    archive: Option<MrtStorage<BufWriter<std::fs::File>>>,
    serving: QueryableStorage,
    stored: usize,
    archived: usize,
    milestones: Vec<usize>,
    timed_from: usize,
    probes: Arc<ProbeClock>,
    /// Probe stamp → `Storage::store`, one sample per probe seen.
    pub lags_ms: Vec<f64>,
    /// Updates stored so far, readable while the drain runs.
    pub progress: Arc<AtomicUsize>,
    done: std::sync::mpsc::Sender<Instant>,
}

impl TeeStorage {
    /// Records archived so far (equals `stored()` unless one was rejected).
    pub fn archived(&self) -> usize {
        self.archive.as_ref().map_or(self.archived, |a| a.stored())
    }

    fn finish_archive(&mut self) {
        if let Some(a) = self.archive.take() {
            self.archived = a.stored();
            if let Err(e) = a.into_inner() {
                eprintln!("benchmark: archive flush failed: {e}");
            }
        }
    }
}

impl Storage for TeeStorage {
    fn store(&mut self, rec: StoredUpdate) {
        if self.stored >= self.timed_from {
            if let Some(lag) = probe_id(&rec.update).and_then(|id| self.probes.lag_ms(id)) {
                self.lags_ms.push(lag);
            }
        }
        self.serving.store(StoredUpdate {
            update: rec.update.clone(),
        });
        if let Some(a) = &mut self.archive {
            a.store(rec);
        }
        self.stored += 1;
        self.progress.store(self.stored, Ordering::Release);
        if self.milestones.contains(&self.stored) {
            if self.milestones.last() == Some(&self.stored) {
                self.finish_archive();
            }
            let _ = self.done.send(Instant::now());
        }
    }

    fn stored(&self) -> usize {
        self.stored
    }

    fn flush(&mut self) {
        self.finish_archive();
        self.serving.flush();
    }
}

/// Dials the collector and completes the BGP handshake as AS `asn`,
/// advertising both unicast families. Returns the established socket.
pub fn bgp_connect(addr: SocketAddr, asn: u32) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut ms = MessageStream::new(stream.try_clone()?);
    handshake_client_mp(&mut ms, asn, FamilySet::ALL, FamilySet::EMPTY)?;
    Ok(stream)
}

/// The NOTIFICATION Cease a peer sends to end its session gracefully.
pub fn cease_bytes() -> Vec<u8> {
    BgpMessage::Notification(Notification::cease())
        .encode_to_vec()
        .expect("cease encodes")
}

/// Trains filters on one window the way the attached orchestrator does:
/// mirror it, run GILL's analysis, take the generated drop rules.
pub fn train_filters(window: &[BgpUpdate], vps: Vec<VpId>) -> FilterSet {
    let mut orch = Orchestrator::new(OrchestratorConfig::default(), vps, HashMap::new());
    orch.observe(window.iter().cloned());
    orch.force_refresh(gill::types::Timestamp::ZERO, true);
    orch.filters().clone()
}

/// A serving store restored from sealed segments, as `gill-queryd
/// --data-dir` does at boot. Returns the store and the updates loaded.
pub fn restore_store(dir: &Path) -> std::io::Result<(SharedStore, usize)> {
    let store = QueryableStorage::new(StoreConfig::default()).handle();
    let loaded = store.write().load_dir(dir)?;
    Ok((store, loaded))
}

/// Ingests `updates` into a fresh persistent store and seals it under
/// `dir`. Returns the seconds spent sealing.
pub fn seal_day(updates: &[BgpUpdate], dir: &Path) -> std::io::Result<f64> {
    std::fs::create_dir_all(dir)?;
    let mut st = QueryableStorage::new(StoreConfig::default()).persist_to(dir.to_path_buf());
    for u in updates {
        st.store(StoredUpdate { update: u.clone() });
    }
    let t = Instant::now();
    st.flush();
    Ok(t.elapsed().as_secs_f64())
}

/// The looking-glass server over a pre-loaded store (no ingest side).
pub fn serve_store(store: SharedStore) -> std::io::Result<gill::query::HttpServer> {
    let broker = StreamBroker::new(BrokerConfig::default());
    serve_streaming("127.0.0.1:0", ServerConfig::default(), store, None, broker)
}

/// The per-stage objects the traced replay drives, one of each the live
/// pipeline holds.
pub struct StageKit {
    pub validator: UpdateValidator,
    pub forwarder: Forwarder,
    /// Keeps the forwarder's subscription deliverable.
    pub operator: Option<gill::collector::Subscription>,
    pub view: FilterView,
    pub publisher: StreamPublisher,
    /// Attached so the broker publishes instead of shedding.
    pub subscriber: Subscription,
    pub queue_tx: crossbeam::channel::Sender<StoredUpdate>,
    pub queue_rx: Receiver<StoredUpdate>,
    pub archive: MrtStorage<std::io::Sink>,
    pub store: RouteStore,
    /// A whole `SessionCtx` over its own queue, for timing `offer` whole.
    pub ctx: SessionCtx,
    pub ctx_rx: Receiver<StoredUpdate>,
    /// Held so the ctx's forwarder and broker keep delivering.
    _ctx_operator: Option<gill::collector::Subscription>,
    _ctx_subscriber: Subscription,
    /// Seconds `FilterHandle::compile_next` took for the installed set.
    pub filter_compile_s: f64,
}

impl StageKit {
    pub fn new(
        filters: &FilterSet,
        validate: bool,
        operator_prefix: Option<Prefix>,
        queue_capacity: usize,
    ) -> StageKit {
        let handle = FilterHandle::empty();
        let t = Instant::now();
        let compiled = handle.compile_next(filters);
        let filter_compile_s = t.elapsed().as_secs_f64();
        handle.publish(compiled);

        let mut forwarder = Forwarder::new();
        let operator =
            operator_prefix.map(|p| forwarder.subscribe(vec![ForwardRule::for_prefix(p)]).1);
        let broker = StreamBroker::new(BrokerConfig::default());
        let subscriber = broker
            .subscribe(StreamFilter::any(), SlowPolicy::SkipWithGapMarker)
            .expect("fresh broker accepts a subscriber");
        let (queue_tx, queue_rx) = bounded(queue_capacity);

        // the same pipeline again behind one SessionCtx, sharing nothing
        // with the per-stage objects above so neither run warms the other
        let (ctx_tx, ctx_rx) = bounded(queue_capacity);
        let mut ctx = SessionCtx::new(handle.view(), ctx_tx, Arc::new(DaemonStats::default()));
        if validate {
            ctx.validator = Some(Arc::new(RwLock::new(UpdateValidator::new())));
        }
        let mut ctx_forwarder = Forwarder::new();
        let ctx_operator =
            operator_prefix.map(|p| ctx_forwarder.subscribe(vec![ForwardRule::for_prefix(p)]).1);
        ctx.forwarder = Some(Arc::new(RwLock::new(ctx_forwarder)));
        let ctx_broker = StreamBroker::new(BrokerConfig::default());
        let ctx_subscriber = ctx_broker
            .subscribe(StreamFilter::any(), SlowPolicy::SkipWithGapMarker)
            .expect("fresh broker accepts a subscriber");
        let ctx = ctx.with_sink(Arc::new(ctx_broker.publisher()));

        StageKit {
            validator: UpdateValidator::new(),
            forwarder,
            operator,
            view: handle.view(),
            publisher: broker.publisher(),
            subscriber,
            queue_tx,
            queue_rx,
            archive: MrtStorage::new(std::io::sink(), LOCAL_ASN),
            store: RouteStore::new(StoreConfig::default()),
            ctx,
            ctx_rx,
            _ctx_operator: ctx_operator,
            _ctx_subscriber: ctx_subscriber,
            filter_compile_s,
        }
    }
}

/// A BMP session machine as the runtime creates one per router.
pub fn bmp_fsm() -> BmpFsm {
    BmpFsm::new(BmpSessionConfig::default(), 0)
}
