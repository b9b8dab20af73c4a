//! The routing tier over N scheduling shards (federated sharding).
//!
//! A thin front-end hashes each submission's **function-context digest**
//! ([`LibrarySpec::routing_digest`]) onto a consistent ring of shards, so
//! every invocation of a hot function lands on the shard where that
//! function's libraries — and the context they retain — already live.
//! Workers are assigned to shards by the same ring, so shard join/leave
//! moves only ~W/N workers and ~K/N keys; everything a departing shard
//! had in flight is requeued through the shards' existing `worker_left`
//! path and re-routed.
//!
//! This type is the pure state machine both substrates share: the
//! simulator drives it directly (`vine_sim::sharded`), and the live
//! `vine_runtime::Router` wraps it in TCP framing (`vine-proto`'s
//! `Route`/`ShardJoin`/`UnitDone`/`ShardStats` messages).

use std::collections::BTreeMap;

use crate::ring::HashRing;
use vine_core::context::LibrarySpec;
use vine_core::ids::{ContentHash, ShardId, WorkerId};
use vine_core::task::{UnitId, WorkUnit};

/// Virtual nodes per shard on the routing ring. Shard counts are small
/// (single digits), so without vnodes one arc of the ring could easily
/// own half the key space; 64 points per shard keeps the split even
/// (satellite: "the shard router uses ≥64 vnodes").
pub const SHARD_VNODES: u32 = 64;

/// The routing front-end's state: shard membership ring, per-library
/// routing digests, and the in-flight ledger used to re-route work when a
/// shard dies.
pub struct ShardRouter {
    /// Ring members are shards; the member id namespace is private to
    /// each ring, so reusing the worker-keyed [`HashRing`] (and its vnode
    /// support) for shard ids is safe — the point-string prefix is just a
    /// salt.
    ring: HashRing,
    shards: Vec<ShardId>,
    /// Library name → function-context digest, recorded at registration.
    digests: BTreeMap<String, ContentHash>,
    /// Units routed but not yet completed, per shard — what must be
    /// re-routed if that shard leaves.
    outstanding: BTreeMap<ShardId, BTreeMap<UnitId, WorkUnit>>,
    routed: u64,
    rerouted: u64,
}

impl Default for ShardRouter {
    fn default() -> ShardRouter {
        ShardRouter::new()
    }
}

impl ShardRouter {
    pub fn new() -> ShardRouter {
        ShardRouter {
            ring: HashRing::with_replicas(SHARD_VNODES),
            shards: Vec::new(),
            digests: BTreeMap::new(),
            outstanding: BTreeMap::new(),
            routed: 0,
            rerouted: 0,
        }
    }

    pub fn shard_joined(&mut self, s: ShardId) {
        if !self.shards.contains(&s) {
            self.shards.push(s);
            self.shards.sort_unstable();
            self.ring.add(WorkerId(s.0));
            self.outstanding.entry(s).or_default();
        }
    }

    /// Remove a shard and surrender its in-flight units (in unit-id
    /// order) for re-routing onto the survivors.
    pub fn shard_left(&mut self, s: ShardId) -> Vec<WorkUnit> {
        self.shards.retain(|x| *x != s);
        self.ring.remove(WorkerId(s.0));
        let orphans = self.outstanding.remove(&s).unwrap_or_default();
        self.rerouted += orphans.len() as u64;
        orphans.into_values().collect()
    }

    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    pub fn shards(&self) -> impl Iterator<Item = ShardId> + '_ {
        self.shards.iter().copied()
    }

    /// Record a library registration; its routing digest decides which
    /// shard every future invocation of the library lands on.
    pub fn register_library(&mut self, spec: &LibrarySpec) {
        self.digests
            .insert(spec.name.clone(), spec.routing_digest());
    }

    /// The registered libraries' names, in name order.
    pub fn libraries(&self) -> impl Iterator<Item = &str> + '_ {
        self.digests.keys().map(String::as_str)
    }

    /// The ring position a unit routes from: the registered
    /// function-context digest for calls, the task name for stateless
    /// tasks (same-named tasks share cacheable inputs, so they co-locate).
    fn routing_point(&self, unit: &WorkUnit) -> u64 {
        let digest = match unit {
            WorkUnit::Call(c) => self
                .digests
                .get(&c.library)
                .copied()
                .unwrap_or_else(|| ContentHash::of_str(&c.library)),
            WorkUnit::Task(t) => ContentHash::of_str(&t.name),
        };
        (digest.0 >> 64) as u64
    }

    /// Which shard a unit routes to (None with no shards joined).
    pub fn shard_for_unit(&self, unit: &WorkUnit) -> Option<ShardId> {
        self.ring
            .walk_from(self.routing_point(unit))
            .next()
            .map(|w| ShardId(w.0))
    }

    /// Which shard owns a worker. Workers ride the same consistent ring
    /// (hashed by id), so shard membership changes move only ~W/N of
    /// them.
    pub fn shard_for_worker(&self, w: WorkerId) -> Option<ShardId> {
        let point = crate::ring::member_point(b"route-worker-", w.0 as u64, 0);
        self.ring.walk_from(point).next().map(|s| ShardId(s.0))
    }

    /// Assign every worker to its shard. Every joined shard appears in
    /// the result, even with an empty partition.
    pub fn partition(&self, workers: &[WorkerId]) -> BTreeMap<ShardId, Vec<WorkerId>> {
        let mut parts: BTreeMap<ShardId, Vec<WorkerId>> =
            self.shards.iter().map(|s| (*s, Vec::new())).collect();
        for &w in workers {
            if let Some(s) = self.shard_for_worker(w) {
                parts.entry(s).or_default().push(w);
            }
        }
        parts
    }

    /// Route a unit: pick its shard, remember it as in-flight there.
    pub fn route(&mut self, unit: WorkUnit) -> Option<ShardId> {
        let shard = self.shard_for_unit(&unit)?;
        self.routed += 1;
        self.outstanding
            .entry(shard)
            .or_default()
            .insert(unit.id(), unit);
        Some(shard)
    }

    /// A routed unit completed; clear it from the in-flight ledger.
    pub fn unit_done(&mut self, shard: ShardId, unit: UnitId) -> Option<WorkUnit> {
        self.outstanding.get_mut(&shard)?.remove(&unit)
    }

    pub fn outstanding(&self, shard: ShardId) -> usize {
        self.outstanding.get(&shard).map_or(0, |m| m.len())
    }

    /// Units routed since construction (re-routes count again).
    pub fn routed(&self) -> u64 {
        self.routed
    }

    /// Units orphaned by shard departures and surrendered for re-routing.
    pub fn rerouted(&self) -> u64 {
        self.rerouted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vine_core::ids::InvocationId;
    use vine_core::task::FunctionCall;

    fn call(i: u64, lib: &str) -> WorkUnit {
        WorkUnit::Call(FunctionCall::new(InvocationId(i), lib, "f", vec![]))
    }

    fn router(n: u32) -> ShardRouter {
        let mut r = ShardRouter::new();
        for s in 0..n {
            r.shard_joined(ShardId(s));
        }
        r
    }

    #[test]
    fn same_library_routes_to_same_shard() {
        let r = router(4);
        let s0 = r.shard_for_unit(&call(0, "lnni")).unwrap();
        for i in 1..50 {
            assert_eq!(r.shard_for_unit(&call(i, "lnni")).unwrap(), s0);
        }
    }

    #[test]
    fn libraries_spread_across_shards() {
        let r = router(4);
        let mut seen: Vec<ShardId> = (0..64)
            .map(|i| r.shard_for_unit(&call(0, &format!("lib-{i}"))).unwrap())
            .collect();
        seen.sort_unstable();
        seen.dedup();
        assert!(seen.len() >= 3, "64 libraries hit only {:?}", seen);
    }

    #[test]
    fn registered_digest_overrides_name_hash() {
        let mut r = router(4);
        let mut spec = LibrarySpec::new("lnni");
        spec.functions = vec!["f".into()];
        r.register_library(&spec);
        // registered or not, routing is still deterministic per library
        let s = r.shard_for_unit(&call(0, "lnni")).unwrap();
        assert_eq!(r.shard_for_unit(&call(1, "lnni")).unwrap(), s);
    }

    #[test]
    fn single_shard_takes_everything() {
        let r = router(1);
        for i in 0..20 {
            assert_eq!(
                r.shard_for_unit(&call(i, &format!("lib-{i}"))).unwrap(),
                ShardId(0)
            );
        }
        let workers: Vec<WorkerId> = (0..10).map(WorkerId).collect();
        let parts = r.partition(&workers);
        assert_eq!(parts[&ShardId(0)].len(), 10);
    }

    #[test]
    fn shard_left_surrenders_outstanding_in_unit_order() {
        let mut r = router(2);
        let mut routed_to: BTreeMap<ShardId, Vec<u64>> = BTreeMap::new();
        for i in 0..40 {
            let u = call(i, &format!("lib-{}", i % 8));
            let s = r.route(u).unwrap();
            routed_to.entry(s).or_default().push(i);
        }
        let victim = ShardId(0);
        let orphans = r.shard_left(victim);
        assert_eq!(orphans.len(), routed_to.get(&victim).map_or(0, |v| v.len()));
        assert_eq!(r.rerouted(), orphans.len() as u64);
        // all orphans re-route onto the survivor
        for u in orphans {
            assert_eq!(r.route(u), Some(ShardId(1)));
        }
    }

    #[test]
    fn unit_done_clears_ledger() {
        let mut r = router(1);
        let u = call(7, "lnni");
        let id = u.id();
        let s = r.route(u).unwrap();
        assert_eq!(r.outstanding(s), 1);
        let back = r.unit_done(s, id).unwrap();
        assert_eq!(back.id(), id);
        assert_eq!(r.outstanding(s), 0);
    }

    #[test]
    fn worker_partition_covers_all_workers_disjointly() {
        let r = router(4);
        let workers: Vec<WorkerId> = (0..100).map(WorkerId).collect();
        let parts = r.partition(&workers);
        assert_eq!(parts.len(), 4);
        let mut all: Vec<WorkerId> = parts.values().flatten().copied().collect();
        assert_eq!(all.len(), 100);
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 100, "partitions are disjoint");
    }
}
