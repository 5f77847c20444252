//! The time-sharded route store (arena-interned, copy-on-write core).
//!
//! GILL's serving half must answer "what routes did VP `v` hold for prefix
//! `p` at time `t`?" without replaying the whole archive (PAPER §9: users
//! query bgproutes.io rather than grep MRT dumps). The store keeps three
//! coordinated indexes over one append-only update log:
//!
//! * **per-VP lanes** — each VP's updates in arrival order, with a live
//!   RIB maintained incrementally and periodic RIB *snapshots* taken at
//!   a configurable shard cadence, so [`RouteStore::rib_at`] is
//!   snapshot-clone + bounded replay instead of full-stream replay;
//! * **time shards** — fixed-width buckets over the time axis, each holding
//!   a per-prefix index of update references, so time-ranged
//!   "what happened to p between t₁ and t₂" queries touch only the shards
//!   that overlap the range;
//! * **live looking-glass table** — a cross-VP [`PrefixTrie`] of current
//!   best routes plus an origin-AS refcount index, serving the
//!   fernglas-style exact/LPM/more-specifics lookups in O(prefix length).
//!
//! This implementation differs from the behavioural oracle in
//! [`crate::refstore`] in three memory-focused ways, none visible through
//! the query API (the equivalence suite asserts byte-identical answers):
//!
//! 1. **Attribute interning** — AS paths, community sets, `Lw`/`Cw` sets
//!    and prefixes live once in refcounted [`Interner`] arenas; a stored
//!    record is a handful of `u32` ids ([`Rec`]) instead of an owned
//!    [`BgpUpdate`]. Queries borrow the arena slices ([`RouteRef`],
//!    [`UpdateRef`]) and full updates are rebuilt on demand, exactly.
//! 2. **Copy-on-write RIBs** — the per-lane live table and its cadence
//!    snapshots are [`CowRib`]s: a snapshot is an O(1) root clone sharing
//!    unchanged subtrees, not a full `Rib` copy.
//! 3. **Sealed segments** — aged-out records can be sealed into
//!    checksummed append-only files ([`crate::segment`]) and replayed on
//!    boot ([`RouteStore::load_dir`]), reproducing the store exactly.

use crate::arena::{diff_sorted, Interner};
use crate::cow::{CompactEntry, CowRib, RouteKey};
use crate::segment::{self, Segment, SegmentBuilder};
use crate::{JoinMode, MatchMode};
use bgp_types::{
    AsPath, Asn, BgpUpdate, CommSetId, Community, Link, LinkSetId, PathId, Prefix, PrefixId,
    PrefixTrie, Rib, RibEntry, Timestamp, UpdateKind, VpId,
};
use std::collections::{BTreeMap, HashMap};
use std::io;
use std::path::{Path, PathBuf};

/// Store tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct StoreConfig {
    /// Width of one time shard in milliseconds.
    pub shard_width_ms: u64,
    /// Take a per-VP RIB snapshot every `snapshot_every_shards` shards.
    pub snapshot_every_shards: u64,
    /// Soft cap on resident bytes (estimated); `0` disables. Once the
    /// estimate reaches the cap, further updates are *shed* (dropped and
    /// counted) rather than ingested.
    pub mem_cap_bytes: u64,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            // One-minute shards, snapshot every 4 shards: rib_at replays at
            // most ~4 minutes of one VP's updates.
            shard_width_ms: 60_000,
            snapshot_every_shards: 4,
            mem_cap_bytes: 0,
        }
    }
}

impl StoreConfig {
    /// Milliseconds between two snapshots of one VP.
    pub fn snapshot_cadence_ms(&self) -> u64 {
        self.shard_width_ms * self.snapshot_every_shards.max(1)
    }

    /// The config with degenerate zero widths clamped to 1.
    pub fn clamped(self) -> Self {
        StoreConfig {
            shard_width_ms: self.shard_width_ms.max(1),
            snapshot_every_shards: self.snapshot_every_shards.max(1),
            mem_cap_bytes: self.mem_cap_bytes,
        }
    }
}

/// Reference to one update in a VP lane (shard indexes point here).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct LaneRef {
    vp: VpId,
    idx: u32,
}

/// One stored update in interned form: ~24 bytes of ids instead of an
/// owned [`BgpUpdate`] (~200+ bytes). `Lw`/`Cw` are stored (as set ids) so
/// rebuilt updates are annotated exactly like the originals.
#[derive(Clone, Copy, Debug)]
struct Rec {
    prefix: PrefixId,
    /// RFC 7911 ADD-PATH identifier (`None` on classic sessions). Distinct
    /// from `path`, which is the *interned AS-path* arena id.
    path_id: Option<u32>,
    path: PathId,
    comms: CommSetId,
    wlinks: LinkSetId,
    wcomms: CommSetId,
    kind: UpdateKind,
}

impl Rec {
    /// The route identity this record addresses in a RIB.
    fn route_key(&self) -> RouteKey {
        RouteKey {
            prefix: self.prefix,
            path: self.path_id,
        }
    }
}

/// A per-VP RIB snapshot: `rib` reflects exactly `lane.recs[..idx]`.
struct Snapshot {
    idx: usize,
    rib: CowRib,
}

/// One VP's slice of the log.
struct VpLane {
    /// Interned records in arrival order.
    recs: Vec<Rec>,
    /// Effective (monotone non-decreasing) timestamp per record: the
    /// running max of arrival timestamps, which keeps binary search sound
    /// even if a peer's clock steps backwards briefly.
    times: Vec<u64>,
    /// Raw arrival timestamps (what rebuilt updates carry).
    raw_times: Vec<u64>,
    /// RIB after every record in `recs`.
    rib: CowRib,
    /// Cadence snapshots, ascending by `idx`; O(1) clones of `rib`.
    snapshots: Vec<Snapshot>,
    /// Snapshot window (`shard_id / snapshot_every_shards`) of the last
    /// ingested update.
    last_window: Option<u64>,
    /// Records `recs[..sealed_upto]` are already persisted in a segment.
    sealed_upto: usize,
}

impl VpLane {
    fn new() -> Self {
        VpLane {
            recs: Vec::new(),
            times: Vec::new(),
            raw_times: Vec::new(),
            rib: CowRib::new(),
            snapshots: Vec::new(),
            last_window: None,
            sealed_upto: 0,
        }
    }

    /// Number of records with effective time <= `t_ms`.
    fn count_until(&self, t_ms: u64) -> usize {
        self.times.partition_point(|&t| t <= t_ms)
    }

    /// Latest snapshot covering at most the first `k` records.
    fn snapshot_before(&self, k: usize) -> Option<&Snapshot> {
        let i = self.snapshots.partition_point(|s| s.idx <= k);
        i.checked_sub(1).map(|i| &self.snapshots[i])
    }

    /// The table this lane held at `t`: the latest snapshot at or before
    /// `t` (an O(1) clone) plus replay of the bounded tail.
    fn table_at(&self, t: Timestamp) -> CowRib {
        let k = self.count_until(t.as_millis());
        let (mut rib, start) = match self.snapshot_before(k) {
            Some(s) => (s.rib.clone(), s.idx),
            None => (CowRib::new(), 0),
        };
        for i in start..k {
            RouteStore::apply_rec(&mut rib, &self.recs[i], self.raw_times[i]);
        }
        rib
    }
}

/// One fixed-width time bucket: prefix id → references to the updates whose
/// (effective) timestamps fall inside it. A plain map keyed by interned
/// prefix id — covered joins go through the single shared trie in the
/// prefix arena instead of one trie per shard.
struct Shard {
    index: HashMap<u32, Vec<LaneRef>>,
    count: usize,
}

impl Shard {
    fn new() -> Self {
        Shard {
            index: HashMap::new(),
            count: 0,
        }
    }
}

/// A route in the live looking-glass table.
#[derive(Clone, Debug)]
pub struct RouteView {
    /// The vantage point holding the route.
    pub vp: VpId,
    /// The matched prefix (the stored one, which for LPM queries may be
    /// less specific than the query).
    pub prefix: Prefix,
    /// The best-route attributes.
    pub entry: RibEntry,
}

/// One stored route, borrowed from the arenas: what `/rib` and `/routes`
/// render without copying a path or a community set.
#[derive(Clone, Copy, Debug)]
pub struct RouteRef<'a> {
    /// The route's prefix.
    pub prefix: Prefix,
    /// RFC 7911 ADD-PATH identifier (`None` on classic sessions).
    pub path_id: Option<u32>,
    /// The AS path.
    pub path: &'a AsPath,
    /// The communities, sorted.
    pub communities: &'a [Community],
    /// When the route was announced.
    pub time: Timestamp,
}

impl RouteRef<'_> {
    /// The owned form.
    pub fn to_entry(&self) -> RibEntry {
        RibEntry {
            path: self.path.clone(),
            communities: self.communities.iter().copied().collect(),
            time: self.time,
        }
    }
}

/// One stored update, borrowed from its lane and the arenas: what
/// `/updates` renders without rebuilding a [`BgpUpdate`].
#[derive(Clone, Copy, Debug)]
pub struct UpdateRef<'a> {
    /// The vantage point that sent it.
    pub vp: VpId,
    /// Raw arrival time.
    pub time: Timestamp,
    /// The announced or withdrawn prefix.
    pub prefix: Prefix,
    /// RFC 7911 ADD-PATH identifier (`None` on classic sessions).
    pub path_id: Option<u32>,
    /// Announce or withdraw.
    pub kind: UpdateKind,
    /// The AS path.
    pub path: &'a AsPath,
    /// The communities, sorted.
    pub communities: &'a [Community],
    /// Links the replaced route had and this one lacks (`Lw`), sorted.
    pub withdrawn_links: &'a [Link],
    /// Communities the replaced route had and this one lacks (`Cw`), sorted.
    pub withdrawn_communities: &'a [Community],
}

impl UpdateRef<'_> {
    /// The owned form — the exact value the reference store keeps.
    pub fn to_update(&self) -> BgpUpdate {
        BgpUpdate {
            vp: self.vp,
            time: self.time,
            prefix: self.prefix,
            path_id: self.path_id,
            kind: self.kind,
            path: self.path.clone(),
            communities: self.communities.iter().copied().collect(),
            withdrawn_links: self.withdrawn_links.iter().copied().collect(),
            withdrawn_communities: self.withdrawn_communities.iter().copied().collect(),
        }
    }
}

/// Counters the `/health` endpoint and tests read.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Total updates ingested.
    pub updates: usize,
    /// Number of distinct VPs seen.
    pub vps: usize,
    /// Number of non-empty time shards.
    pub shards: usize,
    /// Total RIB snapshots currently held.
    pub snapshots: usize,
    /// Prefixes with at least one live route.
    pub live_prefixes: usize,
}

/// Memory/persistence counters (`/store/stats` endpoint).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StoreMemStats {
    /// Estimated resident bytes (arenas + per-record overhead).
    pub bytes_resident: u64,
    /// Distinct AS paths interned.
    pub arena_paths: usize,
    /// Distinct community sets interned (`C` and `Cw` share the arena).
    pub arena_comm_sets: usize,
    /// Distinct withdrawn-link sets interned.
    pub arena_link_sets: usize,
    /// Distinct prefixes interned.
    pub arena_prefixes: usize,
    /// Attribute references handed out across all arenas.
    pub attr_refs: u64,
    /// `attr_refs / distinct entries` — how many times the average
    /// attribute value is reused.
    pub dedup_ratio: f64,
    /// Segments written (or loaded) so far.
    pub sealed_segments: usize,
    /// Updates covered by sealed segments.
    pub sealed_updates: usize,
    /// Updates dropped by the memory cap.
    pub shed_updates: usize,
}

/// Fixed per-record overhead charged to the resident-bytes estimate: the
/// `Rec` itself, the two timestamp lanes, the shard reference, and an
/// amortized share of COW node copies and live-table entries.
const REC_OVERHEAD_BYTES: u64 = 128;

/// The time-indexed route store.
pub struct RouteStore {
    cfg: StoreConfig,
    interner: Interner,
    lanes: HashMap<VpId, VpLane>,
    /// VPs in first-seen order (stable output for `/vps`).
    vp_order: Vec<VpId>,
    shards: BTreeMap<u64, Shard>,
    /// prefix → ((vp, ADD-PATH id) → live route), in interned form. The
    /// path-id key keeps concurrent RFC 7911 routes from one VP distinct;
    /// classic sessions collapse to a single `None` slot per VP.
    live: PrefixTrie<BTreeMap<(VpId, Option<u32>), CompactEntry>>,
    /// origin AS → (prefix → number of VPs currently routing it via that
    /// origin). Refcounted so withdrawals retract cleanly.
    origins: HashMap<Asn, BTreeMap<Prefix, usize>>,
    total: usize,
    /// Updates dropped by the memory cap.
    shed: usize,
    /// Per-record byte overhead accumulated so far.
    rec_bytes: u64,
    /// Sequence number for the next sealed segment.
    next_seq: u64,
    sealed_segments: usize,
    sealed_updates: usize,
}

impl Default for RouteStore {
    fn default() -> Self {
        Self::new(StoreConfig::default())
    }
}

impl RouteStore {
    /// An empty store.
    pub fn new(cfg: StoreConfig) -> Self {
        RouteStore {
            cfg: cfg.clamped(),
            interner: Interner::new(),
            lanes: HashMap::new(),
            vp_order: Vec::new(),
            shards: BTreeMap::new(),
            live: PrefixTrie::new(),
            origins: HashMap::new(),
            total: 0,
            shed: 0,
            rec_bytes: 0,
            next_seq: 0,
            sealed_segments: 0,
            sealed_updates: 0,
        }
    }

    /// The configuration the store runs with.
    pub fn config(&self) -> StoreConfig {
        self.cfg
    }

    /// Ingests one update (arrival order per VP is replay order). When a
    /// memory cap is configured and the resident estimate has reached it,
    /// the update is shed (dropped and counted) instead.
    pub fn ingest(&mut self, update: BgpUpdate) {
        if self.cfg.mem_cap_bytes > 0 && self.approx_bytes() >= self.cfg.mem_cap_bytes {
            self.shed += 1;
            return;
        }
        self.ingest_unchecked(update);
    }

    /// The ingest path proper (no cap check — also used by segment replay,
    /// which must reload everything the original process held).
    fn ingest_unchecked(&mut self, update: BgpUpdate) {
        let BgpUpdate {
            vp,
            time,
            prefix,
            path_id,
            kind,
            path,
            communities,
            ..
        } = update;

        let lane = match self.lanes.entry(vp) {
            std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::hash_map::Entry::Vacant(e) => {
                self.vp_order.push(vp);
                e.insert(VpLane::new())
            }
        };

        let raw_ms = time.as_millis();
        let eff_ms = raw_ms.max(lane.times.last().copied().unwrap_or(0));
        let shard_id = eff_ms / self.cfg.shard_width_ms;
        let window = shard_id / self.cfg.snapshot_every_shards;

        // Snapshot *before* applying the first update of a new cadence
        // window: the snapshot then covers exactly the updates of earlier
        // windows, so rib_at(t) for t inside this window replays only the
        // window's own updates. With CowRib this is an O(1) root clone.
        if let Some(last) = lane.last_window {
            if window > last {
                lane.snapshots.push(Snapshot {
                    idx: lane.recs.len(),
                    rib: lane.rib.clone(),
                });
            }
        }
        lane.last_window = Some(window);

        // Intern the update's attributes and derive Lw/Cw from the previous
        // best route, matching `Rib::apply` on owned sets exactly: the
        // arenas hand back sorted slices and `diff_sorted` is the slice
        // analogue of `BTreeSet::difference`.
        let interner = &mut self.interner;
        let pid = interner.prefixes.intern(prefix);
        let rkey = RouteKey {
            prefix: pid,
            path: path_id,
        };
        let aspath_id = interner.paths.intern(&path);
        let comms_id = CommSetId(
            interner
                .comm_sets
                .intern_sorted(&communities.iter().copied().collect::<Vec<_>>()),
        );
        let prev = lane.rib.get(rkey).copied();
        let prev_origin = prev.map(|pe| interner.paths.get(pe.path).origin());
        let new_origin = interner.paths.get(aspath_id).origin();

        let (wlinks, wcomms, new_entry) = match kind {
            UpdateKind::Announce => {
                let (wl, wc) = match prev {
                    Some(pe) => {
                        let lw = diff_sorted(
                            interner.paths.links(pe.path),
                            interner.paths.links(aspath_id),
                        );
                        let cw = diff_sorted(
                            interner.comm_sets.get(pe.comms.0),
                            interner.comm_sets.get(comms_id.0),
                        );
                        (
                            LinkSetId(interner.link_sets.intern_sorted(&lw)),
                            CommSetId(interner.comm_sets.intern_sorted(&cw)),
                        )
                    }
                    None => {
                        interner.link_sets.bump(LinkSetId::EMPTY.0);
                        interner.comm_sets.bump(CommSetId::EMPTY.0);
                        (LinkSetId::EMPTY, CommSetId::EMPTY)
                    }
                };
                let e = CompactEntry {
                    path: aspath_id,
                    comms: comms_id,
                    time_ms: raw_ms,
                };
                lane.rib.insert(rkey, e);
                (wl, wc, Some(e))
            }
            UpdateKind::Withdraw => {
                let removed = lane.rib.remove(rkey);
                match removed {
                    Some(pe) => {
                        // Lw carries everything the withdrawn route had.
                        let links = interner.paths.links(pe.path).to_vec();
                        let wl = LinkSetId(interner.link_sets.intern_sorted(&links));
                        interner.comm_sets.bump(pe.comms.0);
                        (wl, pe.comms, None)
                    }
                    None => {
                        interner.link_sets.bump(LinkSetId::EMPTY.0);
                        interner.comm_sets.bump(CommSetId::EMPTY.0);
                        (LinkSetId::EMPTY, CommSetId::EMPTY, None)
                    }
                }
            }
        };

        let idx = lane.recs.len() as u32;
        lane.times.push(eff_ms);
        lane.raw_times.push(raw_ms);
        lane.recs.push(Rec {
            prefix: pid,
            path_id,
            path: aspath_id,
            comms: comms_id,
            wlinks,
            wcomms,
            kind,
        });

        // Looking-glass + origin indexes (lane borrow released above).
        match kind {
            UpdateKind::Announce => {
                let entry = new_entry.expect("announce installs a route");
                if let Some(po) = prev_origin {
                    retract_origin(&mut self.origins, po, prefix);
                }
                add_origin(&mut self.origins, new_origin, prefix);
                match self.live.get_mut(&prefix) {
                    Some(routes) => {
                        routes.insert((vp, path_id), entry);
                    }
                    None => {
                        self.live
                            .insert(prefix, BTreeMap::from([((vp, path_id), entry)]));
                    }
                }
            }
            UpdateKind::Withdraw => {
                if let Some(po) = prev_origin {
                    retract_origin(&mut self.origins, po, prefix);
                    if let Some(routes) = self.live.get_mut(&prefix) {
                        routes.remove(&(vp, path_id));
                        if routes.is_empty() {
                            self.live.remove(&prefix);
                        }
                    }
                }
            }
        }

        // Shard index.
        let shard = self.shards.entry(shard_id).or_insert_with(Shard::new);
        shard.count += 1;
        shard
            .index
            .entry(pid.0)
            .or_default()
            .push(LaneRef { vp, idx });
        self.total += 1;
        self.rec_bytes += REC_OVERHEAD_BYTES;
    }

    /// VPs in first-seen order with their update counts.
    pub fn vps(&self) -> Vec<(VpId, usize)> {
        self.vp_order
            .iter()
            .map(|vp| (*vp, self.lanes[vp].recs.len()))
            .collect()
    }

    /// Aggregate counters.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            updates: self.total,
            vps: self.lanes.len(),
            shards: self.shards.len(),
            snapshots: self.lanes.values().map(|l| l.snapshots.len()).sum(),
            live_prefixes: self.live.len(),
        }
    }

    /// Estimated resident bytes: arena heap (tracked incrementally by the
    /// arenas) plus a fixed per-record overhead. Deterministic for a given
    /// stream, so memory-cap shedding is reproducible.
    pub fn approx_bytes(&self) -> u64 {
        self.interner.bytes() + self.rec_bytes
    }

    /// Memory and persistence counters.
    pub fn mem_stats(&self) -> StoreMemStats {
        let entries = self.interner.entries();
        let refs = self.interner.refs();
        StoreMemStats {
            bytes_resident: self.approx_bytes(),
            arena_paths: self.interner.paths.len(),
            arena_comm_sets: self.interner.comm_sets.len(),
            arena_link_sets: self.interner.link_sets.len(),
            arena_prefixes: self.interner.prefixes.len(),
            attr_refs: refs,
            dedup_ratio: if entries > 0 {
                refs as f64 / entries as f64
            } else {
                0.0
            },
            sealed_segments: self.sealed_segments,
            sealed_updates: self.sealed_updates,
            shed_updates: self.shed,
        }
    }

    /// One lane record, resolved through the arenas (Lw/Cw included).
    fn update_ref(&self, vp: VpId, lane: &VpLane, idx: usize) -> UpdateRef<'_> {
        let rec = &lane.recs[idx];
        let i = &self.interner;
        UpdateRef {
            vp,
            time: Timestamp::from_millis(lane.raw_times[idx]),
            prefix: i.prefixes.get(rec.prefix),
            path_id: rec.path_id,
            kind: rec.kind,
            path: i.paths.get(rec.path),
            communities: i.comm_sets.get(rec.comms.0),
            withdrawn_links: i.link_sets.get(rec.wlinks.0),
            withdrawn_communities: i.comm_sets.get(rec.wcomms.0),
        }
    }

    /// One table entry, resolved through the arenas.
    fn route_ref(&self, prefix: Prefix, path_id: Option<u32>, e: &CompactEntry) -> RouteRef<'_> {
        RouteRef {
            prefix,
            path_id,
            path: self.interner.paths.get(e.path),
            communities: self.interner.comm_sets.get(e.comms.0),
            time: Timestamp::from_millis(e.time_ms),
        }
    }

    /// Materializes a COW table into an owned [`Rib`].
    fn materialize(&self, rib: &CowRib) -> Rib {
        let mut entries = Vec::with_capacity(rib.len());
        rib.for_each(|key, e| {
            let p = self.interner.prefixes.get(key.prefix);
            entries.push((p, key.path, self.route_ref(p, key.path, e).to_entry()))
        });
        Rib::from_path_entries(entries)
    }

    /// Replays one record into a COW table (the compact analogue of
    /// `Rib::apply`; Lw/Cw derivation already happened at ingest).
    fn apply_rec(rib: &mut CowRib, rec: &Rec, raw_ms: u64) {
        match rec.kind {
            UpdateKind::Announce => {
                rib.insert(
                    rec.route_key(),
                    CompactEntry {
                        path: rec.path,
                        comms: rec.comms,
                        time_ms: raw_ms,
                    },
                );
            }
            UpdateKind::Withdraw => {
                rib.remove(rec.route_key());
            }
        }
    }

    /// The RIB VP `vp` held at time `t`: latest snapshot at or before `t`,
    /// plus replay of the (bounded) tail. Returns `None` for an unknown VP.
    pub fn rib_at(&self, vp: VpId, t: Timestamp) -> Option<Rib> {
        let lane = self.lanes.get(&vp)?;
        Some(self.materialize(&lane.table_at(t)))
    }

    /// Number of routes `vp` held at `t` — the reconstruction of [`rib_at`]
    /// without the final materialization into a [`Rib`], so its cost is the
    /// snapshot lookup plus the bounded replay alone.
    pub fn rib_len_at(&self, vp: VpId, t: Timestamp) -> Option<usize> {
        Some(self.lanes.get(&vp)?.table_at(t).len())
    }

    /// The routes of `vp` — live, or at `at` — sorted by `(prefix, ADD-PATH
    /// id)`, borrowed straight from the lane's table (`/rib`). Returns
    /// `None` for an unknown VP.
    pub fn rib_walk(&self, vp: VpId, at: Option<Timestamp>) -> Option<Vec<RouteRef<'_>>> {
        let lane = self.lanes.get(&vp)?;
        let past;
        let table = match at {
            None => &lane.rib,
            Some(t) => {
                past = lane.table_at(t);
                &past
            }
        };
        let mut keyed = Vec::with_capacity(table.len());
        table.for_each(|key, e| keyed.push((self.interner.prefixes.get(key.prefix), key.path, *e)));
        keyed.sort_unstable_by_key(|(p, path_id, _)| (*p, *path_id));
        Some(
            keyed
                .iter()
                .map(|(p, path_id, e)| self.route_ref(*p, *path_id, e))
                .collect(),
        )
    }

    /// Number of updates `rib_at` would replay after the snapshot (used by
    /// the benchmark to report bounded-replay depth).
    pub fn replay_depth(&self, vp: VpId, t: Timestamp) -> Option<usize> {
        let lane = self.lanes.get(&vp)?;
        let k = lane.count_until(t.as_millis());
        let start = lane.snapshot_before(k).map(|s| s.idx).unwrap_or(0);
        Some(k - start)
    }

    /// The latest RIB of `vp`, materialized.
    pub fn rib_now(&self, vp: VpId) -> Option<Rib> {
        self.lanes.get(&vp).map(|l| self.materialize(&l.rib))
    }

    /// Looking-glass lookup against the *live* table.
    ///
    /// `vp = None` queries across all VPs. LPM returns the most specific
    /// covering prefix that still has a route from the selected view;
    /// more-specifics enumerates the covered subtree.
    pub fn lookup(&self, prefix: &Prefix, mode: MatchMode, vp: Option<VpId>) -> Vec<RouteView> {
        owned_views(self.lookup_walk(prefix, mode, vp, None))
    }

    /// Historical lookup: like [`RouteStore::lookup`] but against the RIBs
    /// at time `t`, reconstructed per VP via snapshot + bounded replay.
    pub fn lookup_at(
        &self,
        prefix: &Prefix,
        mode: MatchMode,
        vp: Option<VpId>,
        t: Timestamp,
    ) -> Vec<RouteView> {
        owned_views(self.lookup_walk(prefix, mode, vp, Some(t)))
    }

    /// The routes a looking-glass query matches (`/routes`), borrowed from
    /// the arenas and sorted by `(prefix, vp, ADD-PATH id)`.
    ///
    /// `at = None` reads the live cross-VP table, where LPM answers with
    /// the most specific covering prefix the selected VPs route. A past
    /// `at` reads each selected VP's table at that time (snapshot +
    /// bounded replay), and LPM answers per VP.
    pub fn lookup_walk(
        &self,
        prefix: &Prefix,
        mode: MatchMode,
        vp: Option<VpId>,
        at: Option<Timestamp>,
    ) -> Vec<(VpId, RouteRef<'_>)> {
        let mut out = Vec::new();
        match at {
            None => self.live_matches(prefix, mode, vp, &mut out),
            Some(t) => {
                let vps = match vp {
                    Some(v) => vec![v],
                    None => self.vp_order.clone(),
                };
                for v in vps {
                    if let Some(lane) = self.lanes.get(&v) {
                        self.table_matches(v, &lane.table_at(t), prefix, mode, &mut out);
                    }
                }
            }
        }
        out.sort_unstable_by_key(|(v, r)| (r.prefix, *v, r.path_id));
        out
    }

    /// [`RouteStore::lookup_walk`] over the live cross-VP table.
    fn live_matches<'a>(
        &'a self,
        prefix: &Prefix,
        mode: MatchMode,
        vp: Option<VpId>,
        out: &mut Vec<(VpId, RouteRef<'a>)>,
    ) {
        let keep = |routes: &BTreeMap<(VpId, Option<u32>), CompactEntry>,
                    pfx: &Prefix,
                    out: &mut Vec<(VpId, RouteRef<'a>)>| {
            for (&(v, path_id), entry) in routes {
                if vp.is_none_or(|want| v == want) {
                    out.push((v, self.route_ref(*pfx, path_id, entry)));
                }
            }
        };
        match mode {
            MatchMode::Exact => {
                if let Some(routes) = self.live.get(prefix) {
                    keep(routes, prefix, out);
                }
            }
            MatchMode::Longest => {
                // walk up from the exact node: longest_match only sees the
                // best covering node, but that node may have no route from
                // the requested VP — so widen until one matches.
                let mut probe = *prefix;
                while let Some((pfx, routes)) = self.live.longest_match(&probe) {
                    keep(routes, pfx, out);
                    if !out.is_empty() || pfx.is_empty() {
                        break;
                    }
                    // retry strictly above the rejected match
                    probe = truncate(pfx, pfx.len() - 1);
                }
            }
            MatchMode::MoreSpecific => {
                for (pfx, routes) in self.live.more_specifics(prefix) {
                    keep(routes, pfx, out);
                }
            }
        }
    }

    /// [`RouteStore::lookup_walk`] over one VP's table, in one pass over
    /// its routes.
    fn table_matches<'a>(
        &'a self,
        vp: VpId,
        table: &CowRib,
        prefix: &Prefix,
        mode: MatchMode,
        out: &mut Vec<(VpId, RouteRef<'a>)>,
    ) {
        let mut hits = Vec::new();
        table.for_each(|key, e| {
            let p = self.interner.prefixes.get(key.prefix);
            let keep = match mode {
                MatchMode::Exact => p == *prefix,
                MatchMode::Longest => p.covers(prefix),
                MatchMode::MoreSpecific => prefix.covers(&p),
            };
            if keep {
                hits.push((vp, self.route_ref(p, key.path, e)));
            }
        });
        if mode == MatchMode::Longest {
            // of the covering prefixes, only the most specific answers
            let longest = hits.iter().map(|(_, r)| r.prefix.len()).max();
            hits.retain(|(_, r)| Some(r.prefix.len()) == longest);
        }
        out.append(&mut hits);
    }

    /// Updates touching `prefix` in `[from, to]`, at most the first `cap`
    /// of them (`usize::MAX` for all), rebuilt into owned updates.
    pub fn updates_in_range(
        &self,
        prefix: Option<&Prefix>,
        join: JoinMode,
        vp: Option<VpId>,
        from: Timestamp,
        to: Timestamp,
        cap: usize,
    ) -> Vec<BgpUpdate> {
        self.updates_walk(prefix, join, vp, from, to, cap)
            .iter()
            .map(UpdateRef::to_update)
            .collect()
    }

    /// The updates an update-log query matches (`/updates`), at most the
    /// first `cap`, borrowed from the lanes and the arenas.
    ///
    /// `join` controls prefix matching: exact, or any stored prefix covered
    /// by the query (more-specifics, resolved through the shared prefix
    /// trie). Results come in (time, vp, prefix, lane order); only the ones
    /// returned are resolved. A VP without a prefix reads that lane's
    /// contiguous index range; everything else goes through the shard
    /// indexes.
    pub fn updates_walk(
        &self,
        prefix: Option<&Prefix>,
        join: JoinMode,
        vp: Option<VpId>,
        from: Timestamp,
        to: Timestamp,
        cap: usize,
    ) -> Vec<UpdateRef<'_>> {
        let (from_ms, to_ms) = (from.as_millis(), to.as_millis());
        if from_ms > to_ms {
            return Vec::new();
        }
        let mut keyed = match (prefix, vp) {
            (None, Some(v)) => {
                let Some(lane) = self.lanes.get(&v) else {
                    return Vec::new();
                };
                // effective times ascend, so the range is one index span
                let (lo, hi) = (
                    lane.times.partition_point(|&t| t < from_ms),
                    lane.count_until(to_ms),
                );
                (lo..hi)
                    .map(|i| {
                        let p = self.interner.prefixes.get(lane.recs[i].prefix);
                        (lane.raw_times[i], v, p, i as u32)
                    })
                    .collect()
            }
            _ => self.shard_keys(prefix, join, vp, from_ms, to_ms),
        };
        // Total sort key (time, vp, prefix, lane idx): within a tie group
        // the lane index ascends exactly like the reference store's stable
        // sort over shard-ordered refs, so output order is identical.
        if keyed.len() > cap {
            keyed.select_nth_unstable(cap);
            keyed.truncate(cap);
        }
        keyed.sort_unstable();
        keyed
            .into_iter()
            .map(|(_, v, _, idx)| self.update_ref(v, &self.lanes[&v], idx as usize))
            .collect()
    }

    /// Sort keys `(raw time, vp, prefix, lane idx)` of the updates in
    /// `[from_ms, to_ms]` the shard indexes hold for the prefix filter.
    fn shard_keys(
        &self,
        prefix: Option<&Prefix>,
        join: JoinMode,
        vp: Option<VpId>,
        from_ms: u64,
        to_ms: u64,
    ) -> Vec<(u64, VpId, Prefix, u32)> {
        // Resolve the prefix filter to interned ids once, up front.
        let pids: Option<Vec<u32>> = prefix.map(|p| match join {
            JoinMode::Exact => self
                .interner
                .prefixes
                .lookup(p)
                .map(|id| vec![id.0])
                .unwrap_or_default(),
            JoinMode::Covered => self
                .interner
                .prefixes
                .trie()
                .more_specifics(p)
                .into_iter()
                .map(|(_, id)| *id)
                .collect(),
        });
        let first = from_ms / self.cfg.shard_width_ms;
        let last = to_ms / self.cfg.shard_width_ms;
        let mut refs: Vec<LaneRef> = Vec::new();
        for (_, shard) in self.shards.range(first..=last) {
            match &pids {
                Some(ids) => {
                    for id in ids {
                        if let Some(rs) = shard.index.get(id) {
                            refs.extend(rs.iter().copied());
                        }
                    }
                }
                None => {
                    for rs in shard.index.values() {
                        refs.extend(rs.iter().copied());
                    }
                }
            }
        }
        refs.into_iter()
            .filter(|r| vp.is_none_or(|want| r.vp == want))
            .filter_map(|r| {
                let lane = self.lanes.get(&r.vp)?;
                let t = *lane.times.get(r.idx as usize)?;
                (t >= from_ms && t <= to_ms).then(|| {
                    let raw = lane.raw_times[r.idx as usize];
                    let p = self.interner.prefixes.get(lane.recs[r.idx as usize].prefix);
                    (raw, r.vp, p, r.idx)
                })
            })
            .collect()
    }

    /// Prefixes currently originated by `asn`, with the number of VPs
    /// routing each via that origin.
    pub fn originated(&self, asn: Asn) -> Vec<(Prefix, usize)> {
        self.origins
            .get(&asn)
            .map(|m| m.iter().map(|(p, n)| (*p, *n)).collect())
            .unwrap_or_default()
    }

    /// All updates of one VP in arrival order (MRT export), rebuilt.
    pub fn lane_updates(&self, vp: VpId) -> Option<Vec<BgpUpdate>> {
        let lane = self.lanes.get(&vp)?;
        Some(
            (0..lane.recs.len())
                .map(|i| self.update_ref(vp, lane, i).to_update())
                .collect(),
        )
    }

    /// Per-VP RIBs at time `t` for every VP (TABLE_DUMP export).
    pub fn ribs_at(&self, t: Timestamp) -> HashMap<VpId, Rib> {
        self.vp_order
            .iter()
            .filter_map(|vp| self.rib_at(*vp, t).map(|r| (*vp, r)))
            .collect()
    }

    /// Occupancy per non-empty shard, ascending by shard id (diagnostics
    /// and the benchmark's shard-balance report).
    pub fn shard_counts(&self) -> Vec<(u64, usize)> {
        self.shards.iter().map(|(id, s)| (*id, s.count)).collect()
    }

    /// The latest effective timestamp ingested (ZERO when empty).
    pub fn latest_time(&self) -> Timestamp {
        Timestamp::from_millis(
            self.lanes
                .values()
                .filter_map(|l| l.times.last().copied())
                .max()
                .unwrap_or(0),
        )
    }

    // ---- sealed segments -------------------------------------------------

    /// Seals every record of every *complete* shard (strictly before the
    /// latest shard seen) that is not yet on disk into one new segment file
    /// under `dir`. Returns the file path, or `None` when nothing new aged
    /// out. Records stay resident for serving; sealing is durability.
    pub fn seal_complete_into(&mut self, dir: &Path) -> io::Result<Option<PathBuf>> {
        let Some((&latest, _)) = self.shards.last_key_value() else {
            return Ok(None);
        };
        let cutoff_ms = latest.saturating_mul(self.cfg.shard_width_ms);
        self.seal_until(dir, Some(cutoff_ms))
    }

    /// Seals *all* unsealed records into one new segment file under `dir`
    /// (shutdown flush). Returns the file path, or `None` if nothing new.
    pub fn seal_all_into(&mut self, dir: &Path) -> io::Result<Option<PathBuf>> {
        self.seal_until(dir, None)
    }

    /// Seals per-lane records with effective time `< cutoff_ms` (or all when
    /// `None`). Effective times are monotone per lane, so the sealed range
    /// is always a lane prefix and `sealed_upto` is a plain watermark.
    fn seal_until(&mut self, dir: &Path, cutoff_ms: Option<u64>) -> io::Result<Option<PathBuf>> {
        let mut builder = SegmentBuilder::new(self.next_seq, self.vp_order.clone());
        let mut new_upto: Vec<usize> = Vec::with_capacity(self.vp_order.len());
        for (vi, vp) in self.vp_order.iter().enumerate() {
            let lane = &self.lanes[vp];
            let upto = match cutoff_ms {
                Some(ms) => lane.times.partition_point(|&t| t < ms),
                None => lane.recs.len(),
            };
            new_upto.push(upto);
            let handle = builder.add_lane(vi as u32, lane.sealed_upto as u64);
            for i in lane.sealed_upto..upto {
                let rec = &lane.recs[i];
                builder.push_rec(
                    handle,
                    lane.raw_times[i],
                    self.interner.prefixes.get(rec.prefix),
                    self.interner.paths.get(rec.path),
                    self.interner.comm_sets.get(rec.comms.0),
                    rec.kind,
                    rec.path_id,
                );
            }
        }
        let count = builder.rec_count();
        if count == 0 {
            return Ok(None);
        }
        let seg = builder.finish();
        std::fs::create_dir_all(dir)?;
        let path = dir.join(segment::segment_file_name(seg.seq));
        let tmp = dir.join(format!("{}.tmp", segment::segment_file_name(seg.seq)));
        {
            let mut f = io::BufWriter::new(std::fs::File::create(&tmp)?);
            seg.write_to(&mut f)?;
            use io::Write as _;
            f.flush()?;
        }
        std::fs::rename(&tmp, &path)?;
        for (vi, vp) in self.vp_order.iter().enumerate() {
            self.lanes.get_mut(vp).expect("lane exists").sealed_upto = new_upto[vi];
        }
        self.next_seq += 1;
        self.sealed_segments += 1;
        self.sealed_updates += count;
        Ok(Some(path))
    }

    /// Cold-start replay: loads every segment under `dir` in sequence order
    /// and re-ingests its lanes, reproducing the sealed portion of the
    /// store exactly (per-lane order is all that matters: Lw/Cw, shards,
    /// snapshots and the live table are re-derived deterministically).
    ///
    /// Returns the number of updates replayed. Replay bypasses the memory
    /// cap — what the original process held must come back.
    pub fn load_dir(&mut self, dir: &Path) -> io::Result<usize> {
        let mut replayed = 0;
        for (seq, path) in segment::list_segments(dir)? {
            let mut f = io::BufReader::new(std::fs::File::open(&path)?);
            let seg = Segment::read_from(&mut f)
                .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", path.display())))?;
            // Reproduce VP registration order even for lanes that were
            // empty when this segment was written.
            for vp in &seg.vp_order {
                self.register_vp(*vp);
            }
            for lane in &seg.lanes {
                let vp = seg.vp_order[lane.vp as usize];
                let cur = self.lanes[&vp].recs.len() as u64;
                if lane.start != cur {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!(
                            "{}: lane {vp} starts at {} but store holds {cur}",
                            path.display(),
                            lane.start
                        ),
                    ));
                }
            }
            for u in seg.updates() {
                self.ingest_unchecked(u);
                replayed += 1;
            }
            for lane in &seg.lanes {
                let vp = seg.vp_order[lane.vp as usize];
                let l = self.lanes.get_mut(&vp).expect("registered above");
                l.sealed_upto = l.recs.len();
            }
            self.next_seq = self.next_seq.max(seq + 1);
            self.sealed_segments += 1;
            self.sealed_updates += seg.lanes.iter().map(|l| l.recs.len()).sum::<usize>();
        }
        Ok(replayed)
    }

    /// Registers a VP with an empty lane (used by segment replay to pin the
    /// first-seen order recorded at seal time).
    fn register_vp(&mut self, vp: VpId) {
        if let std::collections::hash_map::Entry::Vacant(e) = self.lanes.entry(vp) {
            self.vp_order.push(vp);
            e.insert(VpLane::new());
        }
    }
}

fn owned_views(routes: Vec<(VpId, RouteRef<'_>)>) -> Vec<RouteView> {
    routes
        .into_iter()
        .map(|(vp, r)| RouteView {
            vp,
            prefix: r.prefix,
            entry: r.to_entry(),
        })
        .collect()
}

fn add_origin(
    origins: &mut HashMap<Asn, BTreeMap<Prefix, usize>>,
    origin: Option<Asn>,
    prefix: Prefix,
) {
    if let Some(o) = origin {
        *origins.entry(o).or_default().entry(prefix).or_insert(0) += 1;
    }
}

fn retract_origin(
    origins: &mut HashMap<Asn, BTreeMap<Prefix, usize>>,
    origin: Option<Asn>,
    prefix: Prefix,
) {
    if let Some(o) = origin {
        if let Some(prefixes) = origins.get_mut(&o) {
            if let Some(n) = prefixes.get_mut(&prefix) {
                *n -= 1;
                if *n == 0 {
                    prefixes.remove(&prefix);
                }
            }
            if prefixes.is_empty() {
                origins.remove(&o);
            }
        }
    }
}

/// `prefix` truncated to `len` bits (host bits re-masked).
fn truncate(p: &Prefix, len: u8) -> Prefix {
    match p.addr() {
        std::net::IpAddr::V4(a) => Prefix::v4(a, len.min(32)),
        std::net::IpAddr::V6(a) => Prefix::v6(a, len.min(128)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_types::UpdateBuilder;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn vp(n: u32) -> VpId {
        VpId::from_asn(Asn(n))
    }

    fn ann(v: u32, t_ms: u64, pfx: &str, path: &[u32]) -> BgpUpdate {
        UpdateBuilder::announce(vp(v), pfx.parse().unwrap())
            .at(Timestamp::from_millis(t_ms))
            .path(path.iter().copied())
            .build()
    }

    fn wd(v: u32, t_ms: u64, pfx: &str) -> BgpUpdate {
        UpdateBuilder::withdraw(vp(v), pfx.parse().unwrap())
            .at(Timestamp::from_millis(t_ms))
            .build()
    }

    fn small_cfg() -> StoreConfig {
        StoreConfig {
            shard_width_ms: 1_000,
            snapshot_every_shards: 2,
            ..StoreConfig::default()
        }
    }

    /// Unique scratch dir per test invocation (no tempfile dep).
    fn scratch(tag: &str) -> std::path::PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let d = std::env::temp_dir().join(format!(
            "gill-store-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn live_lookup_exact_lpm_more_specific() {
        let mut s = RouteStore::new(small_cfg());
        s.ingest(ann(1, 10, "10.0.0.0/8", &[1, 2, 3]));
        s.ingest(ann(1, 20, "10.1.0.0/16", &[1, 2, 4]));
        s.ingest(ann(2, 30, "10.1.0.0/16", &[2, 9, 4]));

        let exact = s.lookup(&"10.1.0.0/16".parse().unwrap(), MatchMode::Exact, None);
        assert_eq!(exact.len(), 2);

        let lpm = s.lookup(&"10.1.2.0/24".parse().unwrap(), MatchMode::Longest, None);
        assert_eq!(lpm.len(), 2, "both VPs hold 10.1.0.0/16");
        assert!(lpm
            .iter()
            .all(|r| r.prefix == "10.1.0.0/16".parse().unwrap()));

        // VP 2 has no /16-covering route for 10.9.0.0 — LPM must fall back
        // to nothing (it never announced 10.0.0.0/8).
        let lpm2 = s.lookup(
            &"10.9.0.0/24".parse().unwrap(),
            MatchMode::Longest,
            Some(vp(2)),
        );
        assert!(lpm2.is_empty());
        let lpm1 = s.lookup(
            &"10.9.0.0/24".parse().unwrap(),
            MatchMode::Longest,
            Some(vp(1)),
        );
        assert_eq!(lpm1.len(), 1);
        assert_eq!(lpm1[0].prefix, "10.0.0.0/8".parse().unwrap());

        let ms = s.lookup(
            &"10.0.0.0/8".parse().unwrap(),
            MatchMode::MoreSpecific,
            None,
        );
        assert_eq!(ms.len(), 3);
    }

    #[test]
    fn withdraw_retracts_live_route_and_origin() {
        let mut s = RouteStore::new(small_cfg());
        s.ingest(ann(1, 10, "10.0.0.0/8", &[1, 2, 3]));
        s.ingest(ann(2, 11, "10.0.0.0/8", &[2, 3]));
        assert_eq!(
            s.originated(Asn(3)),
            vec![("10.0.0.0/8".parse().unwrap(), 2)]
        );

        s.ingest(wd(1, 20, "10.0.0.0/8"));
        let left = s.lookup(&"10.0.0.0/8".parse().unwrap(), MatchMode::Exact, None);
        assert_eq!(left.len(), 1);
        assert_eq!(left[0].vp, vp(2));
        assert_eq!(
            s.originated(Asn(3)),
            vec![("10.0.0.0/8".parse().unwrap(), 1)]
        );

        s.ingest(wd(2, 21, "10.0.0.0/8"));
        assert!(s
            .lookup(&"10.0.0.0/8".parse().unwrap(), MatchMode::Exact, None)
            .is_empty());
        assert!(s.originated(Asn(3)).is_empty());
        assert_eq!(s.stats().live_prefixes, 0);
    }

    #[test]
    fn origin_change_moves_the_index() {
        let mut s = RouteStore::new(small_cfg());
        s.ingest(ann(1, 10, "10.0.0.0/8", &[1, 2, 3]));
        s.ingest(ann(1, 20, "10.0.0.0/8", &[1, 9, 7])); // origin 3 → 7
        assert!(s.originated(Asn(3)).is_empty());
        assert_eq!(s.originated(Asn(7)).len(), 1);
    }

    #[test]
    fn add_path_routes_are_distinct() {
        let mut s = RouteStore::new(small_cfg());
        let p: Prefix = "2001:db8::/32".parse().unwrap();
        let mk = |id: u32, path: &[u32], t: u64| {
            UpdateBuilder::announce(vp(1), p)
                .at(Timestamp::from_millis(t))
                .path(path.iter().copied())
                .path_id(id)
                .build()
        };
        s.ingest(mk(1, &[1, 2, 3], 10));
        s.ingest(mk(2, &[1, 9, 3], 20));
        // both RFC 7911 routes are live simultaneously
        assert_eq!(s.lookup(&p, MatchMode::Exact, None).len(), 2);
        let rib = s.rib_at(vp(1), Timestamp::from_millis(100)).unwrap();
        assert_eq!(rib.len(), 2);
        assert!(rib.get_path(&p, Some(1)).is_some());
        assert!(rib.get_path(&p, Some(2)).is_some());
        // withdrawing one path id retracts only that route
        s.ingest(
            UpdateBuilder::withdraw(vp(1), p)
                .at(Timestamp::from_millis(30))
                .path_id(1)
                .build(),
        );
        assert_eq!(s.lookup(&p, MatchMode::Exact, None).len(), 1);
        let rib = s.rib_at(vp(1), Timestamp::from_millis(100)).unwrap();
        assert!(rib.get_path(&p, Some(1)).is_none());
        assert!(rib.get_path(&p, Some(2)).is_some());
        // historical lookup before the withdrawal still sees both
        assert_eq!(
            s.lookup_at(&p, MatchMode::Exact, None, Timestamp::from_millis(25))
                .len(),
            2
        );
    }

    #[test]
    fn seal_and_reload_keeps_v6_and_path_ids() {
        let dir = scratch("reload-v6");
        let p6: Prefix = "2001:db8:1::/48".parse().unwrap();
        let mut a = RouteStore::new(small_cfg());
        a.ingest(ann(1, 10, "10.0.0.0/8", &[1, 2, 3]));
        a.ingest(
            UpdateBuilder::announce(vp(1), p6)
                .at(Timestamp::from_millis(20))
                .path([1, 5, 6])
                .path_id(9)
                .build(),
        );
        a.seal_all_into(&dir).unwrap().unwrap();

        let mut b = RouteStore::new(small_cfg());
        assert_eq!(b.load_dir(&dir).unwrap(), 2);
        assert_eq!(a.lane_updates(vp(1)), b.lane_updates(vp(1)));
        let rib = b.rib_at(vp(1), Timestamp::from_millis(100)).unwrap();
        assert!(rib.get_path(&p6, Some(9)).is_some());
        assert_eq!(
            b.lookup(&p6, MatchMode::Exact, None).len(),
            1,
            "v6 route survives the reload into the live table"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rib_at_equals_sequential_replay() {
        let mut s = RouteStore::new(small_cfg());
        let mut log = Vec::new();
        // 40 updates spanning 20 s → ~10 snapshot windows per VP
        for i in 0..40u64 {
            let u = if i % 7 == 3 {
                wd(
                    1,
                    i * 500,
                    if i % 2 == 0 {
                        "10.0.0.0/8"
                    } else {
                        "10.1.0.0/16"
                    },
                )
            } else {
                ann(
                    1,
                    i * 500,
                    if i % 2 == 0 {
                        "10.0.0.0/8"
                    } else {
                        "10.1.0.0/16"
                    },
                    &[1, (i % 5 + 2) as u32, 9],
                )
            };
            log.push(u.clone());
            s.ingest(u);
        }
        for probe_ms in [0, 499, 500, 3_200, 9_999, 20_000] {
            let got = s.rib_at(vp(1), Timestamp::from_millis(probe_ms)).unwrap();
            let mut want = Rib::new();
            for u in &log {
                if u.time.as_millis() <= probe_ms {
                    let mut u = u.clone();
                    want.apply(&mut u);
                }
            }
            assert_eq!(got.len(), want.len(), "at t={probe_ms}");
            for (p, e) in want.iter() {
                assert_eq!(got.get(p), Some(e), "at t={probe_ms} prefix {p}");
            }
        }
        // snapshots actually exist and bound the replay
        assert!(s.stats().snapshots >= 4);
        let depth = s
            .replay_depth(vp(1), Timestamp::from_millis(20_000))
            .unwrap();
        assert!(depth < 40, "replay depth {depth} must be bounded");
    }

    #[test]
    fn lookup_at_reads_history() {
        let mut s = RouteStore::new(small_cfg());
        s.ingest(ann(1, 1_000, "10.0.0.0/8", &[1, 2, 3]));
        s.ingest(wd(1, 5_000, "10.0.0.0/8"));
        let p: Prefix = "10.0.0.0/8".parse().unwrap();
        assert_eq!(
            s.lookup_at(&p, MatchMode::Exact, None, Timestamp::from_millis(2_000))
                .len(),
            1
        );
        assert!(s
            .lookup_at(&p, MatchMode::Exact, None, Timestamp::from_millis(6_000))
            .is_empty());
        assert!(s.lookup(&p, MatchMode::Exact, None).is_empty());
    }

    #[test]
    fn updates_in_range_uses_shards() {
        let mut s = RouteStore::new(small_cfg());
        for i in 0..10u64 {
            s.ingest(ann(1, i * 1_000, "10.0.0.0/8", &[1, 2, 3]));
            s.ingest(ann(2, i * 1_000 + 1, "10.1.0.0/16", &[2, 3, 4]));
        }
        let p8: Prefix = "10.0.0.0/8".parse().unwrap();
        let all = s.updates_in_range(
            Some(&p8),
            JoinMode::Exact,
            None,
            Timestamp::ZERO,
            Timestamp::from_millis(u64::MAX / 2),
            usize::MAX,
        );
        assert_eq!(all.len(), 10);
        let mid = s.updates_in_range(
            Some(&p8),
            JoinMode::Exact,
            None,
            Timestamp::from_millis(3_000),
            Timestamp::from_millis(5_000),
            usize::MAX,
        );
        assert_eq!(mid.len(), 3);
        // covered join from the /8 catches the /16 updates too: the /8s at
        // 3000/4000/5000 plus the /16s at 3001/4001 (5001 is out of range)
        let cov = s.updates_in_range(
            Some(&p8),
            JoinMode::Covered,
            None,
            Timestamp::from_millis(3_000),
            Timestamp::from_millis(5_000),
            usize::MAX,
        );
        assert_eq!(cov.len(), 5);
        // vp filter
        let v2 = s.updates_in_range(
            None,
            JoinMode::Exact,
            Some(vp(2)),
            Timestamp::ZERO,
            Timestamp::from_millis(u64::MAX / 2),
            usize::MAX,
        );
        assert_eq!(v2.len(), 10);
        // times are ordered
        assert!(v2.windows(2).all(|w| w[0].time <= w[1].time));
        // a cap keeps the head of the same order, on both paths
        for pfx in [None, Some(&p8)] {
            let all = s.updates_in_range(
                pfx,
                JoinMode::Covered,
                None,
                Timestamp::ZERO,
                Timestamp::from_millis(u64::MAX / 2),
                usize::MAX,
            );
            let head = s.updates_in_range(
                pfx,
                JoinMode::Covered,
                None,
                Timestamp::ZERO,
                Timestamp::from_millis(u64::MAX / 2),
                3,
            );
            assert_eq!(head[..], all[..3]);
        }
        let head = s.updates_in_range(
            None,
            JoinMode::Exact,
            Some(vp(2)),
            Timestamp::ZERO,
            Timestamp::from_millis(u64::MAX / 2),
            4,
        );
        assert_eq!(head[..], v2[..4]);
    }

    #[test]
    fn out_of_order_timestamps_stay_queryable() {
        let mut s = RouteStore::new(small_cfg());
        s.ingest(ann(1, 5_000, "10.0.0.0/8", &[1, 2, 3]));
        // clock steps backwards; effective time clamps to 5 000
        s.ingest(ann(1, 4_000, "10.0.0.0/8", &[1, 9, 3]));
        let rib = s.rib_at(vp(1), Timestamp::from_millis(5_000)).unwrap();
        // replay order is arrival order: the second announce wins
        assert_eq!(
            rib.get(&"10.0.0.0/8".parse().unwrap()).unwrap().path,
            bgp_types::AsPath::from_u32s([1, 9, 3])
        );
    }

    #[test]
    fn stats_count_everything() {
        let mut s = RouteStore::new(small_cfg());
        s.ingest(ann(1, 0, "10.0.0.0/8", &[1, 2, 3]));
        s.ingest(ann(2, 2_500, "10.1.0.0/16", &[2, 3]));
        let st = s.stats();
        assert_eq!(st.updates, 2);
        assert_eq!(st.vps, 2);
        assert_eq!(st.shards, 2);
        assert_eq!(st.live_prefixes, 2);
        assert_eq!(s.vps().len(), 2);
    }

    #[test]
    fn interning_dedups_repeated_attributes() {
        let mut s = RouteStore::new(small_cfg());
        for i in 0..100u64 {
            s.ingest(ann(1, i * 10, "10.0.0.0/8", &[1, 2, 3]));
        }
        let m = s.mem_stats();
        // one distinct path (+ empty), one prefix, heavy reuse
        assert_eq!(m.arena_paths, 2);
        assert_eq!(m.arena_prefixes, 1);
        assert!(m.dedup_ratio > 10.0, "dedup ratio {}", m.dedup_ratio);
        assert!(m.bytes_resident > 0);
    }

    #[test]
    fn mem_cap_sheds_deterministically() {
        let cap = {
            // measure bytes after 10 updates, cap there, re-ingest longer
            let mut probe = RouteStore::new(small_cfg());
            for i in 0..10u64 {
                probe.ingest(ann(1, i * 10, "10.0.0.0/8", &[1, (i % 4) as u32 + 2, 9]));
            }
            probe.approx_bytes()
        };
        let mut s = RouteStore::new(StoreConfig {
            mem_cap_bytes: cap,
            ..small_cfg()
        });
        for i in 0..50u64 {
            s.ingest(ann(1, i * 10, "10.0.0.0/8", &[1, (i % 4) as u32 + 2, 9]));
        }
        let m = s.mem_stats();
        assert!(m.shed_updates > 0, "cap must shed");
        assert_eq!(s.stats().updates + m.shed_updates, 50);
        // the store still answers queries with what it kept
        assert_eq!(
            s.lookup(&"10.0.0.0/8".parse().unwrap(), MatchMode::Exact, None)
                .len(),
            1
        );
    }

    #[test]
    fn seal_and_reload_reproduces_store() {
        let dir = scratch("reload");
        let mk_stream = || {
            let mut v = Vec::new();
            for i in 0..60u64 {
                if i % 9 == 4 {
                    v.push(wd(1 + (i % 3) as u32, i * 400, "10.0.0.0/8"));
                } else {
                    v.push(ann(
                        1 + (i % 3) as u32,
                        i * 400,
                        if i % 2 == 0 {
                            "10.0.0.0/8"
                        } else {
                            "10.1.0.0/16"
                        },
                        &[1, (i % 5) as u32 + 2, 9],
                    ));
                }
            }
            v
        };
        let mut a = RouteStore::new(small_cfg());
        for u in mk_stream() {
            a.ingest(u);
        }
        // two seals: complete shards first, remainder on "shutdown"
        let p1 = a.seal_complete_into(&dir).unwrap();
        assert!(p1.is_some(), "aged-out shards must seal");
        let p2 = a.seal_all_into(&dir).unwrap();
        assert!(p2.is_some(), "tail must seal");
        assert!(a.seal_all_into(&dir).unwrap().is_none(), "nothing left");

        let mut b = RouteStore::new(small_cfg());
        let n = b.load_dir(&dir).unwrap();
        assert_eq!(n, 60);
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.vps(), b.vps());
        assert_eq!(a.shard_counts(), b.shard_counts());
        for v in [vp(1), vp(2), vp(3)] {
            assert_eq!(a.lane_updates(v), b.lane_updates(v), "lane {v}");
            for t in [0, 5_000, 12_345, 24_000] {
                let (ra, rb) = (
                    a.rib_at(v, Timestamp::from_millis(t)).unwrap(),
                    b.rib_at(v, Timestamp::from_millis(t)).unwrap(),
                );
                assert_eq!(ra.len(), rb.len());
                for (p, e) in ra.iter() {
                    assert_eq!(rb.get(p), Some(e), "vp {v} t {t} prefix {p}");
                }
            }
        }
        let range = |s: &RouteStore| {
            s.updates_in_range(
                None,
                JoinMode::Exact,
                None,
                Timestamp::ZERO,
                Timestamp::from_millis(u64::MAX / 2),
                usize::MAX,
            )
        };
        assert_eq!(range(&a), range(&b));
        // further ingest + seal continues the sequence
        b.ingest(ann(1, 30_000, "10.2.0.0/16", &[1, 7]));
        let p3 = b.seal_all_into(&dir).unwrap().unwrap();
        assert!(
            p3.file_name().unwrap().to_str().unwrap()
                > p2.unwrap().file_name().unwrap().to_str().unwrap()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_segment_fails_load() {
        let dir = scratch("corrupt");
        let mut s = RouteStore::new(small_cfg());
        s.ingest(ann(1, 10, "10.0.0.0/8", &[1, 2, 3]));
        let path = s.seal_all_into(&dir).unwrap().unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        let err = RouteStore::new(small_cfg()).load_dir(&dir).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
