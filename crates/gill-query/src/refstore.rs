//! The reference route store: the original, straightforward implementation
//! kept as the behavioural oracle for the interned store.
//!
//! [`ReferenceStore`] stores every update as an owned [`BgpUpdate`], clones
//! full [`Rib`]s for snapshots, and indexes each time shard with its own
//! [`PrefixTrie`]. It is simple to audit but memory-hungry — the baseline
//! the arena-interned [`RouteStore`](crate::RouteStore) was built to beat.
//! The equivalence tests in `tests/store_equivalence.rs` assert that both
//! stores answer every query identically on the same stream; the interned
//! store's footprint is measured by the `ingest.table` workload of
//! `BENCHMARK.json` (`store_dedup_ratio`, `peak_rss_mb`).

use crate::store::{RouteView, StoreConfig, StoreStats};
use crate::{JoinMode, MatchMode};
use bgp_types::{Asn, BgpUpdate, Prefix, PrefixTrie, Rib, RibEntry, Timestamp, UpdateKind, VpId};
use std::collections::{BTreeMap, HashMap};

/// Reference to one update in a VP lane (shard indexes point here).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct UpdateRef {
    vp: VpId,
    idx: u32,
}

/// A per-VP RIB snapshot: `rib` reflects exactly `lane.updates[..idx]`.
struct Snapshot {
    idx: usize,
    rib: Rib,
}

/// One VP's slice of the log.
struct VpLane {
    /// Updates in arrival order; `Rib::apply` has annotated each one's
    /// implicit-withdrawal sets, so the log doubles as analysis input.
    updates: Vec<BgpUpdate>,
    /// Effective (monotone non-decreasing) timestamp per update: the
    /// running max of arrival timestamps, which keeps binary search sound
    /// even if a peer's clock steps backwards briefly.
    times: Vec<u64>,
    /// RIB after every update in `updates`.
    rib: Rib,
    /// Cadence snapshots, ascending by `idx`.
    snapshots: Vec<Snapshot>,
    /// Snapshot window (`shard_id / snapshot_every_shards`) of the last
    /// ingested update.
    last_window: Option<u64>,
}

impl VpLane {
    fn new() -> Self {
        VpLane {
            updates: Vec::new(),
            times: Vec::new(),
            rib: Rib::new(),
            snapshots: Vec::new(),
            last_window: None,
        }
    }

    /// Number of updates with effective time <= `t_ms`.
    fn count_until(&self, t_ms: u64) -> usize {
        self.times.partition_point(|&t| t <= t_ms)
    }

    /// Latest snapshot covering at most the first `k` updates.
    fn snapshot_before(&self, k: usize) -> Option<&Snapshot> {
        let i = self.snapshots.partition_point(|s| s.idx <= k);
        i.checked_sub(1).map(|i| &self.snapshots[i])
    }
}

/// One fixed-width time bucket: a per-prefix index of the updates whose
/// (effective) timestamps fall inside it.
struct Shard {
    index: PrefixTrie<Vec<UpdateRef>>,
    count: usize,
}

impl Shard {
    fn new() -> Self {
        Shard {
            index: PrefixTrie::new(),
            count: 0,
        }
    }
}

/// The original owned-value route store, preserved as the oracle the
/// interned [`RouteStore`](crate::RouteStore) must stay bit-identical to.
pub struct ReferenceStore {
    cfg: StoreConfig,
    lanes: HashMap<VpId, VpLane>,
    /// VPs in first-seen order (stable output for `/vps`).
    vp_order: Vec<VpId>,
    shards: BTreeMap<u64, Shard>,
    /// prefix → (vp → live best route).
    live: PrefixTrie<BTreeMap<VpId, RibEntry>>,
    /// origin AS → (prefix → number of VPs currently routing it via that
    /// origin). Refcounted so withdrawals retract cleanly.
    origins: HashMap<Asn, BTreeMap<Prefix, usize>>,
    total: usize,
}

impl Default for ReferenceStore {
    fn default() -> Self {
        Self::new(StoreConfig::default())
    }
}

impl ReferenceStore {
    /// An empty store.
    pub fn new(cfg: StoreConfig) -> Self {
        ReferenceStore {
            cfg: cfg.clamped(),
            lanes: HashMap::new(),
            vp_order: Vec::new(),
            shards: BTreeMap::new(),
            live: PrefixTrie::new(),
            origins: HashMap::new(),
            total: 0,
        }
    }

    /// The configuration the store runs with.
    pub fn config(&self) -> StoreConfig {
        self.cfg
    }

    /// Ingests one update (arrival order per VP is replay order).
    pub fn ingest(&mut self, update: BgpUpdate) {
        let vp = update.vp;
        let lane = match self.lanes.entry(vp) {
            std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::hash_map::Entry::Vacant(e) => {
                self.vp_order.push(vp);
                e.insert(VpLane::new())
            }
        };

        let eff_ms = update
            .time
            .as_millis()
            .max(lane.times.last().copied().unwrap_or(0));
        let shard_id = eff_ms / self.cfg.shard_width_ms;
        let window = shard_id / self.cfg.snapshot_every_shards;

        // Snapshot *before* applying the first update of a new cadence
        // window: the snapshot then covers exactly the updates of earlier
        // windows, so rib_at(t) for t inside this window replays only the
        // window's own updates.
        if let Some(last) = lane.last_window {
            if window > last {
                lane.snapshots.push(Snapshot {
                    idx: lane.updates.len(),
                    rib: lane.rib.clone(),
                });
            }
        }
        lane.last_window = Some(window);

        // Live RIB maintenance; `apply` also fills the update's
        // implicit-withdrawal sets, so the stored log is analysis-ready.
        let prev_entry = lane.rib.get(&update.prefix).cloned();
        let mut update = update;
        lane.rib.apply(&mut update);
        let new_entry = match update.kind {
            UpdateKind::Announce => lane.rib.get(&update.prefix).cloned(),
            UpdateKind::Withdraw => None,
        };
        let (prefix, kind) = (update.prefix, update.kind);
        let idx = lane.updates.len() as u32;
        lane.times.push(eff_ms);
        lane.updates.push(update);

        // Looking-glass + origin indexes (lane borrow released above).
        match kind {
            UpdateKind::Announce => {
                let entry = new_entry.expect("announce installs a route");
                if let Some(prev) = &prev_entry {
                    self.retract_origin(prev.path.origin(), prefix);
                }
                self.add_origin(entry.path.origin(), prefix);
                match self.live.get_mut(&prefix) {
                    Some(routes) => {
                        routes.insert(vp, entry);
                    }
                    None => {
                        self.live.insert(prefix, BTreeMap::from([(vp, entry)]));
                    }
                }
            }
            UpdateKind::Withdraw => {
                if let Some(prev) = &prev_entry {
                    self.retract_origin(prev.path.origin(), prefix);
                    if let Some(routes) = self.live.get_mut(&prefix) {
                        routes.remove(&vp);
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
        match shard.index.get_mut(&prefix) {
            Some(refs) => refs.push(UpdateRef { vp, idx }),
            None => {
                shard.index.insert(prefix, vec![UpdateRef { vp, idx }]);
            }
        }
        self.total += 1;
    }

    fn add_origin(&mut self, origin: Option<Asn>, prefix: Prefix) {
        if let Some(o) = origin {
            *self
                .origins
                .entry(o)
                .or_default()
                .entry(prefix)
                .or_insert(0) += 1;
        }
    }

    fn retract_origin(&mut self, origin: Option<Asn>, prefix: Prefix) {
        if let Some(o) = origin {
            if let Some(prefixes) = self.origins.get_mut(&o) {
                if let Some(n) = prefixes.get_mut(&prefix) {
                    *n -= 1;
                    if *n == 0 {
                        prefixes.remove(&prefix);
                    }
                }
                if prefixes.is_empty() {
                    self.origins.remove(&o);
                }
            }
        }
    }

    /// VPs in first-seen order with their update counts.
    pub fn vps(&self) -> Vec<(VpId, usize)> {
        self.vp_order
            .iter()
            .map(|vp| (*vp, self.lanes[vp].updates.len()))
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

    /// The RIB VP `vp` held at time `t`: latest snapshot at or before `t`,
    /// plus replay of the (bounded) tail. Returns `None` for an unknown VP.
    pub fn rib_at(&self, vp: VpId, t: Timestamp) -> Option<Rib> {
        let lane = self.lanes.get(&vp)?;
        let k = lane.count_until(t.as_millis());
        let (mut rib, start) = match lane.snapshot_before(k) {
            Some(s) => (s.rib.clone(), s.idx),
            None => (Rib::new(), 0),
        };
        for u in &lane.updates[start..k] {
            let mut u = u.clone();
            rib.apply(&mut u);
        }
        Some(rib)
    }

    /// Number of routes `vp` held at `t` (see `RouteStore::rib_len_at`).
    pub fn rib_len_at(&self, vp: VpId, t: Timestamp) -> Option<usize> {
        self.rib_at(vp, t).map(|r| r.len())
    }

    /// Number of updates `rib_at` would replay after the snapshot (used by
    /// the benchmark to report bounded-replay depth).
    pub fn replay_depth(&self, vp: VpId, t: Timestamp) -> Option<usize> {
        let lane = self.lanes.get(&vp)?;
        let k = lane.count_until(t.as_millis());
        let start = lane.snapshot_before(k).map(|s| s.idx).unwrap_or(0);
        Some(k - start)
    }

    /// The latest RIB of `vp`.
    pub fn rib_now(&self, vp: VpId) -> Option<&Rib> {
        self.lanes.get(&vp).map(|l| &l.rib)
    }

    /// Looking-glass lookup against the *live* table.
    ///
    /// `vp = None` queries across all VPs. LPM returns the most specific
    /// covering prefix that still has a route from the selected view;
    /// more-specifics enumerates the covered subtree.
    pub fn lookup(&self, prefix: &Prefix, mode: MatchMode, vp: Option<VpId>) -> Vec<RouteView> {
        let keep = |routes: &BTreeMap<VpId, RibEntry>, pfx: &Prefix, out: &mut Vec<RouteView>| {
            for (v, entry) in routes {
                if vp.is_none_or(|want| *v == want) {
                    out.push(RouteView {
                        vp: *v,
                        prefix: *pfx,
                        entry: entry.clone(),
                    });
                }
            }
        };
        let mut out = Vec::new();
        match mode {
            MatchMode::Exact => {
                if let Some(routes) = self.live.get(prefix) {
                    keep(routes, prefix, &mut out);
                }
            }
            MatchMode::Longest => {
                // walk up from the exact node: longest_match only sees the
                // best covering node, but that node may have no route from
                // the requested VP — so widen until one matches.
                let mut probe = *prefix;
                while let Some((pfx, routes)) = self.live.longest_match(&probe) {
                    keep(routes, pfx, &mut out);
                    if !out.is_empty() || pfx.is_empty() {
                        break;
                    }
                    // retry strictly above the rejected match
                    probe = truncate(pfx, pfx.len() - 1);
                }
            }
            MatchMode::MoreSpecific => {
                for (pfx, routes) in self.live.more_specifics(prefix) {
                    keep(routes, pfx, &mut out);
                }
            }
        }
        out.sort_by_key(|a| (a.prefix, a.vp));
        out
    }

    /// Historical lookup: like [`ReferenceStore::lookup`] but against the
    /// RIBs at time `t`, reconstructed per VP via snapshot + bounded replay.
    pub fn lookup_at(
        &self,
        prefix: &Prefix,
        mode: MatchMode,
        vp: Option<VpId>,
        t: Timestamp,
    ) -> Vec<RouteView> {
        let vps: Vec<VpId> = match vp {
            Some(v) => vec![v],
            None => self.vp_order.clone(),
        };
        let mut out = Vec::new();
        for v in vps {
            let Some(rib) = self.rib_at(v, t) else {
                continue;
            };
            let trie: PrefixTrie<RibEntry> = rib.iter().map(|(p, e)| (*p, e.clone())).collect();
            match mode {
                MatchMode::Exact => {
                    if let Some(e) = trie.get(prefix) {
                        out.push(RouteView {
                            vp: v,
                            prefix: *prefix,
                            entry: e.clone(),
                        });
                    }
                }
                MatchMode::Longest => {
                    if let Some((pfx, e)) = trie.longest_match(prefix) {
                        out.push(RouteView {
                            vp: v,
                            prefix: *pfx,
                            entry: e.clone(),
                        });
                    }
                }
                MatchMode::MoreSpecific => {
                    for (pfx, e) in trie.more_specifics(prefix) {
                        out.push(RouteView {
                            vp: v,
                            prefix: *pfx,
                            entry: e.clone(),
                        });
                    }
                }
            }
        }
        out.sort_by_key(|a| (a.prefix, a.vp));
        out
    }

    /// Updates touching `prefix` in `[from, to]`, via the shard indexes.
    ///
    /// `join` controls prefix matching: exact, or any stored prefix covered
    /// by the query (more-specifics). Results are in (time, vp, lane order).
    pub fn updates_in_range(
        &self,
        prefix: Option<&Prefix>,
        join: JoinMode,
        vp: Option<VpId>,
        from: Timestamp,
        to: Timestamp,
    ) -> Vec<&BgpUpdate> {
        let (from_ms, to_ms) = (from.as_millis(), to.as_millis());
        if from_ms > to_ms {
            return Vec::new();
        }
        let first = from_ms / self.cfg.shard_width_ms;
        let last = to_ms / self.cfg.shard_width_ms;
        let mut refs: Vec<UpdateRef> = Vec::new();
        for (_, shard) in self.shards.range(first..=last) {
            match prefix {
                Some(p) => match join {
                    JoinMode::Exact => {
                        if let Some(rs) = shard.index.get(p) {
                            refs.extend(rs.iter().copied());
                        }
                    }
                    JoinMode::Covered => {
                        for (_, rs) in shard.index.more_specifics(p) {
                            refs.extend(rs.iter().copied());
                        }
                    }
                },
                None => {
                    for (_, rs) in shard.index.iter() {
                        refs.extend(rs.iter().copied());
                    }
                }
            }
        }
        let mut out: Vec<&BgpUpdate> = refs
            .into_iter()
            .filter(|r| vp.is_none_or(|want| r.vp == want))
            .filter_map(|r| {
                let lane = self.lanes.get(&r.vp)?;
                let t = *lane.times.get(r.idx as usize)?;
                (t >= from_ms && t <= to_ms).then(|| &lane.updates[r.idx as usize])
            })
            .collect();
        out.sort_by_key(|u| (u.time, u.vp, u.prefix));
        out
    }

    /// Prefixes currently originated by `asn`, with the number of VPs
    /// routing each via that origin.
    pub fn originated(&self, asn: Asn) -> Vec<(Prefix, usize)> {
        self.origins
            .get(&asn)
            .map(|m| m.iter().map(|(p, n)| (*p, *n)).collect())
            .unwrap_or_default()
    }

    /// All updates of one VP in arrival order (MRT export).
    pub fn lane_updates(&self, vp: VpId) -> Option<&[BgpUpdate]> {
        self.lanes.get(&vp).map(|l| l.updates.as_slice())
    }

    /// Per-VP RIBs at time `t` for every VP (TABLE_DUMP export).
    pub fn ribs_at(&self, t: Timestamp) -> HashMap<VpId, Rib> {
        self.vp_order
            .iter()
            .filter_map(|vp| self.rib_at(*vp, t).map(|r| (*vp, r)))
            .collect()
    }

    /// Occupancy per non-empty shard, ascending by shard id.
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

    #[test]
    fn live_lookup_exact_lpm_more_specific() {
        let mut s = ReferenceStore::new(small_cfg());
        s.ingest(ann(1, 10, "10.0.0.0/8", &[1, 2, 3]));
        s.ingest(ann(1, 20, "10.1.0.0/16", &[1, 2, 4]));
        s.ingest(ann(2, 30, "10.1.0.0/16", &[2, 9, 4]));

        let exact = s.lookup(&"10.1.0.0/16".parse().unwrap(), MatchMode::Exact, None);
        assert_eq!(exact.len(), 2);

        let lpm = s.lookup(&"10.1.2.0/24".parse().unwrap(), MatchMode::Longest, None);
        assert_eq!(lpm.len(), 2, "both VPs hold 10.1.0.0/16");

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
        let mut s = ReferenceStore::new(small_cfg());
        s.ingest(ann(1, 10, "10.0.0.0/8", &[1, 2, 3]));
        s.ingest(ann(2, 11, "10.0.0.0/8", &[2, 3]));
        s.ingest(wd(1, 20, "10.0.0.0/8"));
        let left = s.lookup(&"10.0.0.0/8".parse().unwrap(), MatchMode::Exact, None);
        assert_eq!(left.len(), 1);
        assert_eq!(left[0].vp, vp(2));

        s.ingest(wd(2, 21, "10.0.0.0/8"));
        assert!(s.originated(Asn(3)).is_empty());
        assert_eq!(s.stats().live_prefixes, 0);
    }

    #[test]
    fn rib_at_equals_sequential_replay() {
        let mut s = ReferenceStore::new(small_cfg());
        let mut log = Vec::new();
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
        assert!(s.stats().snapshots >= 4);
        let depth = s
            .replay_depth(vp(1), Timestamp::from_millis(20_000))
            .unwrap();
        assert!(depth < 40, "replay depth {depth} must be bounded");
    }

    #[test]
    fn updates_in_range_uses_shards() {
        let mut s = ReferenceStore::new(small_cfg());
        for i in 0..10u64 {
            s.ingest(ann(1, i * 1_000, "10.0.0.0/8", &[1, 2, 3]));
            s.ingest(ann(2, i * 1_000 + 1, "10.1.0.0/16", &[2, 3, 4]));
        }
        let p8: Prefix = "10.0.0.0/8".parse().unwrap();
        let mid = s.updates_in_range(
            Some(&p8),
            JoinMode::Exact,
            None,
            Timestamp::from_millis(3_000),
            Timestamp::from_millis(5_000),
        );
        assert_eq!(mid.len(), 3);
        let cov = s.updates_in_range(
            Some(&p8),
            JoinMode::Covered,
            None,
            Timestamp::from_millis(3_000),
            Timestamp::from_millis(5_000),
        );
        assert_eq!(cov.len(), 5);
    }
}
