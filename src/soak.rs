//! Full-pipeline soak harness: scenario → BGP sessions → FSM → compiled
//! filters (with live retraining) → arena store (+ sealing and a capped
//! shadow) → stream broker → HTTP query layer — all single-threaded,
//! deterministic, and continuously asserted.
//!
//! [`run_soak`] drives a seeded [`ScenarioEngine`] day through real
//! per-VP BGP sessions (wire codec and all), the orchestrator's mirror /
//! retrain loop, epoch-published compiled filters, the time-sharded route
//! store (with a mid-campaign crash-restart fork), and the broadcast
//! broker with one fast and one deliberately lazy subscriber. Along the
//! way it accumulates an FNV-1a transcript digest — two runs of the same
//! [`SoakConfig`] must produce bit-identical digests — and checks the
//! pipeline invariants:
//!
//! 1. **sessions-stable** — every session establishes and none closes or
//!    sends a NOTIFICATION before the orderly shutdown.
//! 2. **wire-delivery-complete** — every update sent by a client FSM is
//!    decoded by its server FSM (no session-layer loss).
//! 3. **compiled-matches-reference** — the epoch-published compiled
//!    filters agree with the reference [`FilterSet`] on every update.
//! 4. **epoch-convergence** — after each regime-shift retrain, the very
//!    next judged update already carries the new epoch (no stale reads).
//! 5. **mirror-accounting-exact** — observed = trained + resident +
//!    shed on the orchestrator mirror; shedding is counted, never silent.
//! 6. **primary-store-exact** — the uncapped store retains every kept
//!    update.
//! 7. **capped-store-shed-exact** — under `mem_cap_bytes`, retained +
//!    shed equals exactly the kept-update count.
//! 8. **broker-gap-exact** — fast subscriber sees every frame; the lazy
//!    subscriber's delivered + gap-marker `missed` sums to published.
//! 9. **crash-restart-equivalent** — a store reloaded from sealed
//!    segments mid-campaign answers the full query matrix byte-identically
//!    to the survivor, at the fork and again at end-of-day.
//! 10. **background-burstiness-in-band** — the generated background shows
//!     the configured overdispersion and autocorrelation.

use crate::bmp::{BmpCloseReason, BmpEvent, BmpFsm, BmpSessionConfig};
use crate::collector::harness::Endpoint;
use crate::collector::transport::{
    sim_pair, Clock, FaultSchedule, SimTransport, Transport, VirtualClock,
};
use crate::collector::{
    Orchestrator, OrchestratorConfig, SessionConfig, SessionEvent, SessionFsm, SessionRole,
    SessionState, Storage, StoredUpdate,
};
use crate::core::{FilterHandle, FilterSet, FilterView};
use crate::query::server::route;
use crate::query::{QueryableStorage, Request, RouteStore, SharedStore, StoreConfig};
use crate::scenario::{
    update_line, BackgroundConfig, BmpFeed, BurstBand, CampaignConfig, CampaignKind, Fnv64,
    ScenarioConfig, ScenarioEngine, World,
};
use crate::stream::{
    BrokerConfig, Delivery, FramePayload, SlowPolicy, StreamBroker, StreamFilter, Subscription,
};
use crate::types::{BgpUpdate, Timestamp, VpId};
use crate::wire::UpdateMessage;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::net::Ipv4Addr;
use std::path::PathBuf;

/// Everything [`run_soak`] needs; the digest is a pure function of this.
#[derive(Clone, Debug)]
pub struct SoakConfig {
    /// Master seed; all generator seeds derive from it.
    pub seed: u64,
    /// Vantage points (one live BGP session pair each).
    pub n_vps: u32,
    /// Prefix universe size.
    pub n_prefixes: u32,
    /// Approximate background update volume; the scenario duration is
    /// derived so the background process emits about this many.
    pub background_updates: usize,
    /// Campaigns, launched in order at evenly spaced regime boundaries.
    pub campaigns: Vec<CampaignKind>,
    /// Orchestrator mirror cap (small values force counted shedding).
    pub mirror_cap: usize,
    /// `mem_cap_bytes` for the capped shadow store (0 disables).
    pub capped_store_bytes: u64,
    /// Broker ring size (small values force lazy-subscriber gaps).
    pub ring_capacity: usize,
    /// Segment directory for the crash-restart fork. `None` skips the
    /// restart invariant (it reports as skipped, not failed).
    pub data_dir: Option<PathBuf>,
    /// How many of the day's VPs enter through one BMP (RFC 7854) session
    /// instead of their own BGP sessions — the *last* `bmp_vps` of
    /// `n_vps`, demuxed from per-peer headers on the collector side. 0
    /// keeps the classic all-BGP day (and its digests) unchanged.
    pub bmp_vps: u32,
    /// Run a mixed-family day: odd world prefixes are IPv6 and flow
    /// through MP_REACH/MP_UNREACH on the live sessions. `false` keeps
    /// the classic v4-only day (and its digests) unchanged.
    pub dual_stack: bool,
}

impl Default for SoakConfig {
    fn default() -> Self {
        SoakConfig {
            seed: 1,
            n_vps: 6,
            n_prefixes: 96,
            background_updates: 20_000,
            campaigns: vec![
                CampaignKind::RouteLeak,
                CampaignKind::HijackWave,
                CampaignKind::WithdrawalAvalanche,
            ],
            mirror_cap: 4_096,
            capped_store_bytes: 1 << 20,
            ring_capacity: 512,
            data_dir: None,
            bmp_vps: 0,
            dual_stack: false,
        }
    }
}

impl SoakConfig {
    /// The derived scenario: campaign `i` of `n` opens its window at
    /// `(i+1)/(n+1)` of the day and runs for half a slot.
    pub fn scenario(&self) -> ScenarioConfig {
        let world = World {
            n_vps: self.n_vps,
            n_prefixes: self.n_prefixes,
            seed: self.seed ^ 0x5eed_0fda_0dd5,
            dual_stack: self.dual_stack,
        };
        let background = BackgroundConfig::default();
        let duration_ms = background.duration_for(self.background_updates);
        let slots = self.campaigns.len() as u64 + 1;
        let slot = duration_ms / slots;
        let campaigns = self
            .campaigns
            .iter()
            .enumerate()
            .map(|(i, &kind)| CampaignConfig {
                kind,
                start_ms: slot * (i as u64 + 1),
                duration_ms: (slot / 2).max(1),
                n_targets: (self.n_prefixes / 6).max(4),
                repeats: 3,
                actor: 64_000 + i as u32,
                seed: self.seed ^ (0xca40_0000 + i as u64),
            })
            .collect();
        ScenarioConfig {
            world,
            background,
            duration_ms,
            campaigns,
            seed: self.seed,
        }
    }
}

/// One checked pipeline property.
#[derive(Clone, Debug)]
pub struct Invariant {
    /// Stable machine-readable name.
    pub name: &'static str,
    /// Whether it held.
    pub pass: bool,
    /// Human-readable evidence (counters on pass, diagnosis on fail).
    pub detail: String,
}

/// End-of-day counters, exposed for regression assertions.
#[derive(Clone, Copy, Debug, Default)]
pub struct SoakCounters {
    /// Updates handed to client FSMs.
    pub sent: u64,
    /// Updates decoded by server FSMs.
    pub received: u64,
    /// Updates the compiled filters kept.
    pub kept: u64,
    /// Updates the compiled filters dropped.
    pub dropped: u64,
    /// Frames published to the broker.
    pub published: u64,
    /// Regime-shift retrains executed.
    pub regimes: u64,
    /// Updates shed (counted) from the orchestrator mirror.
    pub mirror_shed: u64,
    /// Updates shed (counted) by the capped shadow store.
    pub capped_shed: u64,
    /// Frames the lazy subscriber lost to gap markers.
    pub lazy_missed: u64,
    /// Keepalives observed across all sessions.
    pub keepalives: u64,
}

/// The outcome of one soak run.
#[derive(Clone, Debug)]
pub struct SoakReport {
    /// FNV-1a transcript digest (hex). Bit-identical across reruns of the
    /// same [`SoakConfig`].
    pub digest: String,
    /// End-of-day counters.
    pub counters: SoakCounters,
    /// Every invariant, in the order listed in the module docs.
    pub invariants: Vec<Invariant>,
}

impl SoakReport {
    /// True iff every invariant held.
    pub fn all_pass(&self) -> bool {
        self.invariants.iter().all(|i| i.pass)
    }

    /// Renders the report as a small JSON document.
    pub fn to_json(&self) -> String {
        let c = &self.counters;
        let mut s = String::with_capacity(1024);
        s.push_str("{\n");
        s.push_str(&format!("  \"digest\": \"{}\",\n", self.digest));
        s.push_str(&format!("  \"all_pass\": {},\n", self.all_pass()));
        s.push_str(&format!(
            "  \"counters\": {{\"sent\": {}, \"received\": {}, \"kept\": {}, \"dropped\": {}, \
             \"published\": {}, \"regimes\": {}, \"mirror_shed\": {}, \"capped_shed\": {}, \
             \"lazy_missed\": {}, \"keepalives\": {}}},\n",
            c.sent,
            c.received,
            c.kept,
            c.dropped,
            c.published,
            c.regimes,
            c.mirror_shed,
            c.capped_shed,
            c.lazy_missed,
            c.keepalives
        ));
        s.push_str("  \"invariants\": [\n");
        for (i, inv) in self.invariants.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"name\": \"{}\", \"pass\": {}, \"detail\": \"{}\"}}{}\n",
                inv.name,
                inv.pass,
                inv.detail.replace('\\', "\\\\").replace('"', "\\\""),
                if i + 1 < self.invariants.len() {
                    ","
                } else {
                    ""
                }
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }
}

/// A client/server FSM pair for one VP, plus the out-of-band schedule of
/// update timestamps (the wire carries no per-update time; the collector
/// stamps arrival, which here must be the scenario time for determinism).
struct SessionPair {
    vp: VpId,
    client: Endpoint<SimTransport>,
    server: Endpoint<SimTransport>,
    times: VecDeque<Timestamp>,
}

/// Everything the per-update pipeline stage mutates.
struct Pipeline {
    orch: Orchestrator,
    handle: std::sync::Arc<FilterHandle>,
    view: FilterView,
    reference: FilterSet,
    expected_epoch: u64,
    epoch_ledger: BTreeMap<u64, (u64, u64)>,
    primary: QueryableStorage,
    capped: RouteStore,
    restarted: Option<QueryableStorage>,
    broker: StreamBroker,
    fast: Subscription,
    lazy: Subscription,
    digest: Fnv64,
    counters: SoakCounters,
    mismatches: u64,
    stale_epochs: u64,
    trained: u64,
    mirror_residue: bool,
    fast_frames: u64,
    fast_missed: u64,
    lazy_frames: u64,
    restart_probes: usize,
    restart_diffs: Vec<String>,
}

impl Pipeline {
    fn drain_fast(&mut self) {
        drain_sub(&mut self.fast, &mut self.fast_frames, &mut self.fast_missed);
    }

    fn drain_lazy(&mut self) {
        drain_sub(
            &mut self.lazy,
            &mut self.lazy_frames,
            &mut self.counters.lazy_missed,
        );
    }

    /// Stage one decoded update through filters, stores, and broker.
    fn process(&mut self, u: BgpUpdate) {
        self.counters.received += 1;
        self.orch.observe(std::iter::once(u.clone()));
        let (keep, epoch) = self.view.judge(&u);
        if keep != self.reference.accepts(&u) {
            self.mismatches += 1;
        }
        if epoch != self.expected_epoch {
            self.stale_epochs += 1;
        }
        let slot = self.epoch_ledger.entry(epoch).or_insert((0, 0));
        if keep {
            slot.0 += 1;
        } else {
            slot.1 += 1;
        }
        self.digest.write_line(&format!(
            "{} keep={} epoch={epoch}",
            update_line(&u),
            keep as u8
        ));
        if !keep {
            self.counters.dropped += 1;
            return;
        }
        self.counters.kept += 1;
        self.capped.ingest(u.clone());
        if let Some(r) = &self.restarted {
            r.handle().write().ingest(u.clone());
        }
        self.broker.publish_always(&u);
        self.counters.published += 1;
        self.primary.store(StoredUpdate { update: u });
        self.drain_fast();
    }

    /// Regime shift: drain the lazy subscriber, retrain on the mirror,
    /// publish a new filter epoch, and roll the reference forward.
    fn regime_shift(&mut self, at_ms: u64, first: bool) {
        self.drain_lazy();
        let mirror = self.orch.mirror_len() as u64;
        let refresh = self
            .orch
            .force_refresh(Timestamp::from_millis(at_ms), first);
        self.trained += mirror;
        if self.orch.mirror_len() != 0 {
            self.mirror_residue = true;
        }
        self.reference = self.orch.filters().clone();
        let compiled = self.handle.compile_next(&self.reference);
        self.expected_epoch = compiled.epoch();
        self.handle.publish(compiled);
        self.counters.regimes += 1;
        self.digest.write_line(&format!(
            "regime at={at_ms} refresh={refresh:?} epoch={} anchors={} rules={}",
            self.expected_epoch,
            self.orch.anchors().len(),
            self.reference.num_rules(),
        ));
    }

    /// Crash-restart fork: seal the primary's tail, reload a fresh store
    /// from the segment directory, and diff the full query matrix.
    fn fork_restart(&mut self, dir: &std::path::Path, world: &World, store_cfg: StoreConfig) {
        self.primary.flush();
        let fresh = QueryableStorage::new(store_cfg);
        let loaded = match fresh.handle().write().load_dir(dir) {
            Ok(n) => n,
            Err(e) => {
                self.restart_diffs.push(format!("load_dir failed: {e}"));
                return;
            }
        };
        self.digest.write_line(&format!("restart loaded={loaded}"));
        let (probes, diffs) = compare_stores(&self.primary.handle(), &fresh.handle(), world);
        self.restart_probes += probes;
        self.restart_diffs.extend(diffs);
        self.restarted = Some(fresh);
    }
}

/// The day's BMP entrance: one session carrying the last `bmp_vps` VPs
/// as monitored peers, over the same virtual clock as the BGP pairs.
struct BmpSide {
    feed: BmpFeed,
    client: SimTransport,
    server: SimTransport,
    fsm: BmpFsm,
    frames_sent: u64,
    close: Option<BmpCloseReason>,
}

impl BmpSide {
    /// Reads everything pending off the server half, ticks the FSM, and
    /// stages demuxed updates through the shared pipeline — timestamps
    /// come from the per-peer headers, not the harness clock.
    fn drain(&mut self, now: u64, pl: &mut Pipeline) {
        let mut buf = [0u8; 4096];
        loop {
            match self.server.read(&mut buf) {
                Ok(0) => {
                    self.fsm.handle_eof(now);
                    break;
                }
                Ok(n) => self.fsm.handle_bytes(&buf[..n], now),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }
        self.fsm.tick(now);
        while let Some(ev) = self.fsm.poll_event() {
            match ev {
                BmpEvent::Update { vp, update, ts_ms } => {
                    for u in update.to_domain(vp, Timestamp::from_millis(ts_ms)) {
                        pl.process(u);
                    }
                }
                BmpEvent::Closed(r) => self.close = Some(r),
                _ => {}
            }
        }
    }
}

fn drain_sub(sub: &mut Subscription, frames: &mut u64, missed: &mut u64) {
    loop {
        match sub.poll_next() {
            Delivery::Frame(f) => match &f.payload {
                FramePayload::Update(_) => *frames += 1,
                FramePayload::Gap { missed: m } => *missed += m,
                FramePayload::Eos { .. } => {}
            },
            Delivery::Gap(f) => {
                if let FramePayload::Gap { missed: m } = &f.payload {
                    *missed += m;
                }
            }
            Delivery::Overrun { missed: m } => *missed += m,
            Delivery::Pending | Delivery::Closed => return,
        }
    }
}

/// The query matrix a restarted store must answer identically. Mirrors
/// the store-equivalence suite: `/store/stats` is deliberately absent
/// (sealed/resident counters reflect process history, not route data).
fn request_matrix(world: &World, latest_ms: u64) -> Vec<String> {
    let mid = latest_ms / 2;
    let mut targets = vec![
        "/vps".to_string(),
        format!("/updates?from=0&to={latest_ms}&limit=10000000"),
        format!(
            "/updates?prefix={}&join=covered&to={latest_ms}",
            world.prefix(1)
        ),
        format!("/mrt/rib?at={mid}"),
        format!("/origin?asn={}", world.origin(0)),
    ];
    for q in [0, world.n_prefixes / 3, world.n_prefixes - 1] {
        let p = world.prefix(q);
        targets.push(format!("/routes?prefix={p}&match=lpm"));
        targets.push(format!("/routes?prefix={p}&match=exact&at={mid}"));
    }
    for vp in world.vps() {
        let asn = vp.asn.0;
        targets.push(format!("/rib?vp={asn}&at={mid}"));
        targets.push(format!("/rib?vp={asn}"));
        targets.push(format!("/mrt/updates?vp={asn}"));
    }
    targets
}

fn get(store: &SharedStore, target: &str) -> crate::query::Response {
    let (path, query) = target.split_once('?').unwrap_or((target, ""));
    let params = query
        .split('&')
        .filter(|s| !s.is_empty())
        .map(|p| {
            let (k, v) = p.split_once('=').unwrap_or((p, ""));
            (k.to_string(), v.to_string())
        })
        .collect();
    let req = Request {
        method: "GET".to_string(),
        path: path.to_string(),
        params,
        headers: Vec::new(),
    };
    route(&req, store)
}

/// Probes both stores with the full matrix; returns (probes, diffs).
fn compare_stores(a: &SharedStore, b: &SharedStore, world: &World) -> (usize, Vec<String>) {
    let latest = a.read().latest_time().as_millis();
    let targets = request_matrix(world, latest);
    let probes = targets.len();
    let mut diffs = Vec::new();
    for target in targets {
        let ra = get(a, &target);
        let rb = get(b, &target);
        if ra.status != 200 {
            diffs.push(format!("{target}: status {}", ra.status));
        } else if ra.status != rb.status || ra.body != rb.body {
            diffs.push(format!("{target}: responses diverge"));
        }
    }
    (probes, diffs)
}

fn store_cfg(mem_cap_bytes: u64) -> StoreConfig {
    StoreConfig {
        shard_width_ms: 60_000,
        snapshot_every_shards: 4,
        mem_cap_bytes,
    }
}

/// Ticks and pumps both sides of every pair until no output is pending,
/// then drains session events, counting failures and keepalives.
fn settle(
    pairs: &mut [SessionPair],
    now: u64,
    shutting_down: bool,
    failures: &mut u64,
    keepalives: &mut u64,
    decoded: &mut Vec<(usize, UpdateMessage)>,
) {
    for (i, pair) in pairs.iter_mut().enumerate() {
        pair.client.fsm.tick(now);
        pair.server.fsm.tick(now);
        loop {
            pair.client.pump(now);
            pair.server.pump(now);
            if !pair.client.fsm.has_output() && !pair.server.fsm.has_output() {
                break;
            }
        }
        for side in [&mut pair.client, &mut pair.server] {
            while let Some(ev) = side.fsm.poll_event() {
                match ev {
                    SessionEvent::Update(msg) => decoded.push((i, msg)),
                    SessionEvent::KeepaliveReceived => *keepalives += 1,
                    SessionEvent::KeepaliveSent | SessionEvent::Established { .. } => {}
                    SessionEvent::NotificationSent { .. } | SessionEvent::Closed(_) => {
                        if !shutting_down {
                            *failures += 1;
                        }
                    }
                }
            }
        }
    }
}

/// Runs one deterministic soak day and reports digest + invariants.
pub fn run_soak(cfg: &SoakConfig) -> SoakReport {
    let scenario = cfg.scenario();
    let world = scenario.world;
    let mut boundaries: Vec<u64> = scenario.campaigns.iter().map(|c| c.start_ms).collect();
    boundaries.sort_unstable();
    boundaries.dedup();
    // fork the restarted store mid-window of the middle campaign
    let fork_ms = scenario
        .campaigns
        .get(scenario.campaigns.len() / 2)
        .map(|c| c.start_ms + c.duration_ms / 2);

    // the last `bmp_vps` VPs enter via one BMP session; the rest get
    // their own live BGP session pair
    let bmp_vps = cfg.bmp_vps.min(cfg.n_vps);
    let bgp_vps = cfg.n_vps - bmp_vps;

    // live sessions over the simulated transport
    let clock = VirtualClock::new();
    let mut pairs: Vec<SessionPair> = (0..bgp_vps)
        .map(|i| {
            let (a, b) = sim_pair(&clock, FaultSchedule::none(), FaultSchedule::none());
            let vp = world.vp(i);
            // dual-stack days need Multiprotocol negotiated on the live
            // sessions; classic days keep the legacy capability-free OPEN
            // so their session bytes (and digests) are unchanged
            let families = if cfg.dual_stack {
                crate::types::FamilySet::ALL
            } else {
                crate::types::FamilySet::EMPTY
            };
            let client_cfg = SessionConfig {
                local_asn: vp.asn.0,
                hold_time: 240,
                router_id: Ipv4Addr::new(10, 254, (i >> 8) as u8, (i & 0xff) as u8),
                families,
                add_paths: crate::types::FamilySet::EMPTY,
            };
            let server_cfg = SessionConfig {
                local_asn: 64_512,
                hold_time: 240,
                router_id: Ipv4Addr::new(10, 255, 0, 254),
                families,
                add_paths: crate::types::FamilySet::EMPTY,
            };
            SessionPair {
                vp,
                client: Endpoint::new(SessionFsm::new(SessionRole::Active, client_cfg), a),
                server: Endpoint::new(SessionFsm::new(SessionRole::Passive, server_cfg), b),
                times: VecDeque::new(),
            }
        })
        .collect();

    let mut failures = 0u64;
    let mut keepalives = 0u64;
    let mut decoded: Vec<(usize, UpdateMessage)> = Vec::new();

    let now = clock.now_ms();
    for pair in &mut pairs {
        pair.client.fsm.start(now);
        pair.server.fsm.start(now);
    }
    for _ in 0..64 {
        let now = clock.now_ms();
        settle(
            &mut pairs,
            now,
            false,
            &mut failures,
            &mut keepalives,
            &mut decoded,
        );
        if pairs
            .iter()
            .all(|p| p.client.fsm.state() == SessionState::Established)
        {
            break;
        }
        clock.advance_ms(10);
    }
    let established = pairs
        .iter()
        .filter(|p| {
            p.client.fsm.state() == SessionState::Established
                && p.server.fsm.state() == SessionState::Established
        })
        .count();

    // the pipeline behind the sessions
    let handle = FilterHandle::empty();
    let broker = StreamBroker::new(BrokerConfig {
        ring_capacity: cfg.ring_capacity,
        max_subscribers: 8,
    });
    let fast = broker
        .subscribe(StreamFilter::any(), SlowPolicy::SkipWithGapMarker)
        .expect("fast subscriber");
    let lazy = broker
        .subscribe(StreamFilter::any(), SlowPolicy::SkipWithGapMarker)
        .expect("lazy subscriber");
    let mut primary = QueryableStorage::new(store_cfg(0));
    if let Some(dir) = &cfg.data_dir {
        primary = primary.persist_to(dir.clone());
    }
    let mut pl = Pipeline {
        orch: Orchestrator::new(
            OrchestratorConfig {
                mirror_cap: cfg.mirror_cap,
                ..OrchestratorConfig::default()
            },
            world.vps(),
            HashMap::new(),
        ),
        view: handle.view(),
        handle,
        reference: FilterSet::default(),
        expected_epoch: 0,
        epoch_ledger: BTreeMap::new(),
        primary,
        capped: RouteStore::new(store_cfg(cfg.capped_store_bytes)),
        restarted: None,
        broker,
        fast,
        lazy,
        digest: Fnv64::new(),
        counters: SoakCounters::default(),
        mismatches: 0,
        stale_epochs: 0,
        trained: 0,
        mirror_residue: false,
        fast_frames: 0,
        fast_missed: 0,
        lazy_frames: 0,
        restart_probes: 0,
        restart_diffs: Vec::new(),
    };
    pl.counters.keepalives = keepalives;
    pl.digest.write_line(&format!(
        "soak seed={} vps={} prefixes={} campaigns={}",
        cfg.seed,
        cfg.n_vps,
        cfg.n_prefixes,
        cfg.campaigns.len()
    ));

    // bring up the BMP session: Initiation, then one Peer Up per BMP VP
    // (registration order = demux order). All of this — including the
    // extra digest lines — only exists when bmp_vps > 0, so the classic
    // all-BGP digests are untouched.
    let mut bmp = (bmp_vps > 0).then(|| {
        let (client, server) = sim_pair(&clock, FaultSchedule::none(), FaultSchedule::none());
        let vps: Vec<VpId> = (bgp_vps..cfg.n_vps).map(|i| world.vp(i)).collect();
        BmpSide {
            feed: BmpFeed::new(&vps),
            client,
            server,
            fsm: BmpFsm::new(BmpSessionConfig::default(), clock.now_ms()),
            frames_sent: 0,
            close: None,
        }
    });
    if let Some(side) = &mut bmp {
        let now = clock.now_ms();
        let _ = side
            .client
            .write_all(&BmpFeed::initiation_frame("soak-bmp"));
        for f in side.feed.peer_up_frames(now) {
            let _ = side.client.write_all(&f);
        }
        side.drain(now, &mut pl);
        pl.digest.write_line(&format!(
            "bmp peers={} registered={}",
            bmp_vps,
            side.fsm.peer_count()
        ));
    }

    // the day itself
    let mut engine = ScenarioEngine::new(&scenario);
    let mut next_boundary = 0usize;
    let mut forked = false;
    for item in engine.by_ref() {
        let t = item.update.time.as_millis();
        while next_boundary < boundaries.len() && t >= boundaries[next_boundary] {
            pl.regime_shift(boundaries[next_boundary], next_boundary == 0);
            next_boundary += 1;
        }
        if !forked && fork_ms.is_some_and(|f| t >= f) {
            if let Some(dir) = cfg.data_dir.clone() {
                pl.fork_restart(&dir, &world, store_cfg(0));
            }
            forked = true;
        }
        let Some(i) = world.vp_index(item.update.vp) else {
            continue;
        };
        if i >= bgp_vps {
            // a BMP-fed VP: the update rides a Route Monitoring frame,
            // its timestamp in the per-peer header
            let side = bmp.as_mut().expect("BMP side exists for BMP-fed VPs");
            let Some(frame) = side.feed.route_monitoring_frame(&item) else {
                continue;
            };
            let _ = side.client.write_all(&frame);
            side.frames_sent += 1;
            pl.counters.sent += 1;
            clock.advance_ms(2);
            side.drain(clock.now_ms(), &mut pl);
            continue;
        }
        let msg = match UpdateMessage::from_domain(&item.update) {
            Ok(m) => m,
            Err(_) => continue,
        };
        let pair = &mut pairs[i as usize];
        pair.times.push_back(item.update.time);
        pair.client.fsm.send_update(&msg);
        pl.counters.sent += 1;
        clock.advance_ms(2);
        let now = clock.now_ms();
        settle(
            &mut pairs,
            now,
            false,
            &mut failures,
            &mut keepalives,
            &mut decoded,
        );
        for (pi, msg) in decoded.drain(..) {
            let pair = &mut pairs[pi];
            let t = pair.times.pop_front().unwrap_or(Timestamp::ZERO);
            for u in msg.to_domain(pair.vp, t) {
                pl.process(u);
            }
        }
    }

    // orderly shutdown: Termination on the BMP session, graceful close on
    // every BGP session, then the broker
    if let Some(side) = &mut bmp {
        let _ = side.client.write_all(&BmpFeed::termination_frame());
        side.client.shutdown();
        for _ in 0..16 {
            clock.advance_ms(10);
            side.drain(clock.now_ms(), &mut pl);
            if side.close.is_some() {
                break;
            }
        }
        pl.digest.write_line(&format!(
            "bmp closed={:?} frames={} monitored={}",
            side.close,
            side.frames_sent,
            side.fsm.ledger().route_monitoring
        ));
    }
    for pair in &mut pairs {
        pair.client.fsm.close_gracefully();
    }
    for _ in 0..256 {
        clock.advance_ms(10);
        let now = clock.now_ms();
        settle(
            &mut pairs,
            now,
            true,
            &mut failures,
            &mut keepalives,
            &mut decoded,
        );
        if pairs
            .iter()
            .all(|p| p.client.fsm.is_closed() && p.server.fsm.is_closed())
        {
            break;
        }
    }
    let all_closed = pairs
        .iter()
        .all(|p| p.client.fsm.is_closed() && p.server.fsm.is_closed());
    pl.broker.close();
    pl.drain_fast();
    pl.drain_lazy();
    pl.primary.flush();
    pl.counters.keepalives = keepalives;
    pl.counters.mirror_shed = pl.orch.mirror_shed();
    pl.counters.capped_shed = pl.capped.mem_stats().shed_updates as u64;

    // end-of-day restart equivalence re-check
    if let (Some(r), true) = (&pl.restarted, forked) {
        let (probes, diffs) = compare_stores(&pl.primary.handle(), &r.handle(), &world);
        pl.restart_probes += probes;
        pl.restart_diffs.extend(diffs);
    }

    let ledger: Vec<String> = pl
        .epoch_ledger
        .iter()
        .map(|(e, (k, d))| format!("{e}:{k}/{d}"))
        .collect();
    pl.digest.write_line(&format!(
        "final sent={} received={} kept={} dropped={} published={} regimes={} \
         mirror_shed={} capped_shed={} lazy_missed={} ledger=[{}]",
        pl.counters.sent,
        pl.counters.received,
        pl.counters.kept,
        pl.counters.dropped,
        pl.counters.published,
        pl.counters.regimes,
        pl.counters.mirror_shed,
        pl.counters.capped_shed,
        pl.counters.lazy_missed,
        ledger.join(",")
    ));

    let c = pl.counters;
    let primary_stats = pl.primary.handle().read().stats().updates as u64;
    let primary_shed = pl.primary.handle().read().mem_stats().shed_updates;
    let capped_kept = pl.capped.stats().updates as u64;
    let mirror_left = pl.orch.mirror_len() as u64;
    let burst = engine.check_burstiness(1_000, &BurstBand::default());
    let mut invariants = vec![
        Invariant {
            name: "sessions-stable",
            pass: established as u32 == bgp_vps && failures == 0 && all_closed,
            detail: format!(
                "established={established}/{bgp_vps} failures={failures} all_closed={all_closed}"
            ),
        },
        Invariant {
            name: "wire-delivery-complete",
            pass: c.received == c.sent,
            detail: format!("sent={} received={}", c.sent, c.received),
        },
        Invariant {
            name: "compiled-matches-reference",
            pass: pl.mismatches == 0,
            detail: format!("judged={} mismatches={}", c.received, pl.mismatches),
        },
        Invariant {
            name: "epoch-convergence",
            pass: pl.stale_epochs == 0 && c.regimes == boundaries.len() as u64,
            detail: format!(
                "regimes={} stale_epoch_judgements={} final_epoch={}",
                c.regimes, pl.stale_epochs, pl.expected_epoch
            ),
        },
        Invariant {
            name: "mirror-accounting-exact",
            pass: !pl.mirror_residue && c.received == pl.trained + mirror_left + c.mirror_shed,
            detail: format!(
                "received={} trained={} resident={} shed={}",
                c.received, pl.trained, mirror_left, c.mirror_shed
            ),
        },
        Invariant {
            name: "primary-store-exact",
            pass: pl.primary.stored() as u64 == c.kept
                && primary_stats == c.kept
                && primary_shed == 0,
            detail: format!(
                "kept={} stored={} store_stats={} shed={}",
                c.kept,
                pl.primary.stored(),
                primary_stats,
                primary_shed
            ),
        },
        Invariant {
            name: "capped-store-shed-exact",
            pass: capped_kept + c.capped_shed == c.kept,
            detail: format!(
                "kept={} retained={} shed={}",
                c.kept, capped_kept, c.capped_shed
            ),
        },
        Invariant {
            name: "broker-gap-exact",
            pass: pl.fast_frames == c.published
                && pl.fast_missed == 0
                && pl.lazy_frames + c.lazy_missed == c.published,
            detail: format!(
                "published={} fast={} fast_missed={} lazy={} lazy_missed={}",
                c.published, pl.fast_frames, pl.fast_missed, pl.lazy_frames, c.lazy_missed
            ),
        },
        Invariant {
            name: "crash-restart-equivalent",
            pass: if cfg.data_dir.is_some() {
                forked && pl.restart_probes > 0 && pl.restart_diffs.is_empty()
            } else {
                true
            },
            detail: if cfg.data_dir.is_some() {
                format!(
                    "probes={} diffs={}{}",
                    pl.restart_probes,
                    pl.restart_diffs.len(),
                    pl.restart_diffs
                        .first()
                        .map(|d| format!(" first: {d}"))
                        .unwrap_or_default()
                )
            } else {
                "skipped (no data dir)".to_string()
            },
        },
        Invariant {
            name: "background-burstiness-in-band",
            pass: burst.is_ok(),
            detail: match &burst {
                Ok(()) => {
                    let r = engine.burst_report(1_000, 8);
                    format!("iod={:.2} acf1={:.3} in band", r.iod, r.acf1())
                }
                Err(e) => e.clone(),
            },
        },
    ];
    // BMP-side exactness: clean Termination, every frame demuxed to a
    // registered peer, nothing dropped as unknown or denied
    invariants.push(match &bmp {
        None => Invariant {
            name: "bmp-ingest-exact",
            pass: true,
            detail: "skipped (no bmp vps)".to_string(),
        },
        Some(side) => {
            let ledger = side.fsm.ledger();
            Invariant {
                name: "bmp-ingest-exact",
                pass: side.close == Some(BmpCloseReason::Terminated)
                    && ledger.route_monitoring == side.frames_sent
                    && ledger.unknown_peer == 0
                    && ledger.denied_peers == 0
                    && side.fsm.peer_count() == bmp_vps as usize,
                detail: format!(
                    "close={:?} frames_sent={} monitored={} peers={} unknown={} denied={}",
                    side.close,
                    side.frames_sent,
                    ledger.route_monitoring,
                    side.fsm.peer_count(),
                    ledger.unknown_peer,
                    ledger.denied_peers
                ),
            }
        }
    });
    // ground-truth sanity rides along: every campaign must have fired
    let truths = engine.truths();
    invariants.push(Invariant {
        name: "campaigns-fired",
        pass: truths.len() == scenario.campaigns.len() && truths.iter().all(|t| t.emitted > 0),
        detail: format!(
            "campaigns={} emitted=[{}]",
            truths.len(),
            truths
                .iter()
                .map(|t| t.emitted.to_string())
                .collect::<Vec<_>>()
                .join(",")
        ),
    });

    SoakReport {
        digest: format!("{:016x}", pl.digest.finish()),
        counters: c,
        invariants,
    }
}
