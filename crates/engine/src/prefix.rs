//! Engine-level prefix/KV reuse. The engine tracks KV as opaque
//! per-request byte reservations, so its reuse model is a *session
//! cache* keyed by session rather than by token ids: when turn `t` of a
//! multi-turn session finishes, its final context is remembered as a
//! reusable prefix for turn `t + 1`, whose prompt replays that context
//! verbatim (see `hetis_workload::sessions`).
//!
//! # Memory model
//!
//! Cached prefixes live in **free** memory. A finished request's KV is
//! freed from the ledger as always; the cache only remembers how many
//! bytes per device the prefix *would* re-occupy, and admission of the
//! follow-up turn reserves warm + cold tokens exactly like a cold
//! request of the same length. Real residents therefore always win over
//! cached prefixes, and the invariant "a device's cached bytes never
//! exceed its free bytes" is enforced lazily at probe time by evicting
//! the oldest entries touching the pressured device — registration
//! order `(SimTime, RequestId)` is a deterministic total order.
//!
//! A hit pins the follow-up turn to the cached placement: the warm KV
//! blocks sit on specific devices, so the head groups that attend to
//! them are pinned there (the engine bypasses `place_batch` for hits).
//!
//! Supersession is instance-local: a turn's registration retires its
//! session's previous entry only when both were served by the same
//! instance (see [`PrefixCache::insert`]).

use crate::topology::HeadPlacement;
use hetis_cluster::DeviceId;
use hetis_sim::SimTime;
use hetis_workload::RequestId;
use std::collections::HashMap;

/// One reusable prefix: the final context of a finished session turn.
#[derive(Debug, Clone)]
pub struct PrefixEntry {
    /// Context length of the finished turn (prompt + generated) — the
    /// token span a follow-up turn can adopt without recompute.
    pub tokens: u32,
    /// Instance that served the turn (warm KV only exists there).
    pub instance: usize,
    /// The turn's head placement. A hit reuses it verbatim — the warm
    /// blocks pin their head groups to these devices.
    pub placement: HeadPlacement,
    /// Bytes the prefix occupied per device at finish time (ledger
    /// `request_bytes`, summed over stages).
    pub bytes: Vec<(DeviceId, u64)>,
    /// `(finish time, request id)` — a deterministic total order used
    /// as the eviction clock (oldest first).
    pub registered: (SimTime, RequestId),
}

impl PrefixEntry {
    /// Devices the cached prefix touches.
    pub fn devices(&self) -> impl Iterator<Item = DeviceId> + '_ {
        self.bytes.iter().map(|&(d, _)| d)
    }

    /// Total cached bytes across devices.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().map(|&(_, b)| b).sum()
    }
}

/// Session-keyed prefix cache: `(session, turn) → PrefixEntry`, with
/// per-device cached-byte totals for pressure eviction.
#[derive(Debug, Default)]
pub struct PrefixCache {
    entries: HashMap<(u64, u32), PrefixEntry>,
    /// Cached bytes per device index (length = cluster device count).
    cached: Vec<u64>,
}

impl PrefixCache {
    /// An empty cache over `devices` cluster devices.
    pub fn new(devices: usize) -> Self {
        PrefixCache {
            entries: HashMap::new(),
            cached: vec![0; devices],
        }
    }

    /// Number of cached prefixes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Cached bytes currently attributed to `d`.
    pub fn cached_bytes(&self, d: DeviceId) -> u64 {
        self.cached[d.index()]
    }

    /// The cached prefix of `(session, turn)`, if any.
    pub fn get(&self, session: u64, turn: u32) -> Option<&PrefixEntry> {
        self.entries.get(&(session, turn))
    }

    /// Registers the finished turn's context, superseding the session's
    /// previous turn (a strict prefix of this one — keeping both would
    /// double-count bytes the new entry already covers) **only when the
    /// predecessor lives on the same instance**. A predecessor served by
    /// another instance is left to pressure eviction. This rule is pinned:
    /// the `prefix_reuse` reuse-on digests and the `chat_storm` benchmark
    /// workload's serving metrics were recorded with it, so superseding
    /// across instances would move them.
    pub fn insert(&mut self, session: u64, turn: u32, entry: PrefixEntry) {
        if turn > 0
            && self
                .get(session, turn - 1)
                .is_some_and(|prev| prev.instance == entry.instance)
        {
            self.take(session, turn - 1);
        }
        self.take(session, turn); // re-registration replaces
        for &(d, b) in &entry.bytes {
            self.cached[d.index()] += b;
        }
        self.entries.insert((session, turn), entry);
    }

    /// Removes and returns `(session, turn)` — consume-on-hit, and the
    /// internal eviction primitive.
    pub fn take(&mut self, session: u64, turn: u32) -> Option<PrefixEntry> {
        let e = self.entries.remove(&(session, turn))?;
        for &(d, b) in &e.bytes {
            self.cached[d.index()] -= b;
        }
        Some(e)
    }

    /// Evicts oldest-first (by `registered`) among entries touching `d`
    /// until `d`'s cached bytes fit within `free` — the lazy pressure
    /// sweep run before a probe answers. Returns entries evicted.
    pub fn enforce_pressure(&mut self, d: DeviceId, free: u64) -> usize {
        let mut evicted = 0;
        while self.cached[d.index()] > free {
            let Some(&key) = self
                .entries
                .iter()
                .filter(|(_, e)| e.bytes.iter().any(|&(dev, _)| dev == d))
                .min_by_key(|(_, e)| e.registered)
                .map(|(k, _)| k)
            else {
                break;
            };
            self.take(key.0, key.1);
            evicted += 1;
        }
        evicted
    }

    /// Drops every entry (topology changed: worker pools reshaped or a
    /// device died, so cached placements may no longer be valid).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.cached.iter_mut().for_each(|b| *b = 0);
    }

    /// Iterates all entries (arbitrary order — callers must not depend
    /// on it; used for invariant checks).
    pub fn iter(&self) -> impl Iterator<Item = (&(u64, u32), &PrefixEntry)> {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn placement() -> HeadPlacement {
        HeadPlacement {
            per_stage: vec![vec![(DeviceId(0), 40)]],
        }
    }

    fn entry(tokens: u32, bytes: &[(u32, u64)], at: f64, rid: u64) -> PrefixEntry {
        PrefixEntry {
            tokens,
            instance: 0,
            placement: placement(),
            bytes: bytes.iter().map(|&(d, b)| (DeviceId(d), b)).collect(),
            registered: (SimTime::from_secs(at), RequestId(rid)),
        }
    }

    #[test]
    fn insert_supersedes_previous_turn() {
        let mut c = PrefixCache::new(2);
        c.insert(7, 0, entry(100, &[(0, 1000)], 1.0, 1));
        assert_eq!(c.cached_bytes(DeviceId(0)), 1000);
        c.insert(7, 1, entry(250, &[(0, 2500)], 2.0, 2));
        assert!(c.get(7, 0).is_none(), "turn 0 is a strict prefix of turn 1");
        assert_eq!(c.get(7, 1).unwrap().tokens, 250);
        assert_eq!(c.cached_bytes(DeviceId(0)), 2500);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn cross_instance_predecessor_is_left_to_eviction() {
        // A session that hopped instances between turns: the new turn's
        // registration must NOT supersede the other instance's entry
        // (the pinned reuse-on runs depend on this), only pressure
        // eviction may.
        let mut c = PrefixCache::new(2);
        c.insert(7, 0, entry(100, &[(0, 1000)], 1.0, 1)); // instance 0
        let mut hopped = entry(250, &[(1, 2500)], 2.0, 2);
        hopped.instance = 1;
        c.insert(7, 1, hopped);
        assert!(c.get(7, 0).is_some(), "cross-instance predecessor stays");
        assert_eq!(c.len(), 2);
        assert_eq!(c.cached_bytes(DeviceId(0)), 1000);
        assert_eq!(c.cached_bytes(DeviceId(1)), 2500);
        assert_eq!(c.enforce_pressure(DeviceId(0), 0), 1);
        assert!(c.get(7, 0).is_none());
    }

    #[test]
    fn take_is_consume_once() {
        let mut c = PrefixCache::new(1);
        c.insert(3, 2, entry(64, &[(0, 640)], 5.0, 9));
        assert_eq!(c.take(3, 2).unwrap().tokens, 64);
        assert!(c.take(3, 2).is_none());
        assert_eq!(c.cached_bytes(DeviceId(0)), 0);
    }

    #[test]
    fn pressure_evicts_oldest_first_per_device() {
        let mut c = PrefixCache::new(2);
        c.insert(1, 0, entry(10, &[(0, 100)], 1.0, 1)); // oldest on dev 0
        c.insert(2, 0, entry(10, &[(0, 100), (1, 50)], 2.0, 2));
        c.insert(3, 0, entry(10, &[(1, 50)], 3.0, 3)); // dev 1 only
                                                       // Device 0 holds 200 cached bytes; free = 150 forces out the
                                                       // oldest dev-0 entry only.
        assert_eq!(c.enforce_pressure(DeviceId(0), 150), 1);
        assert!(c.get(1, 0).is_none());
        assert!(c.get(2, 0).is_some() && c.get(3, 0).is_some());
        assert_eq!(c.cached_bytes(DeviceId(0)), 100);
        // Device 1 pressure never touches dev-0-only entries.
        assert_eq!(c.enforce_pressure(DeviceId(1), 0), 2);
        assert!(c.is_empty());
    }

    #[test]
    fn pressure_is_a_noop_when_within_free() {
        let mut c = PrefixCache::new(1);
        c.insert(1, 0, entry(10, &[(0, 100)], 1.0, 1));
        assert_eq!(c.enforce_pressure(DeviceId(0), 100), 0);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn clear_resets_accounting() {
        let mut c = PrefixCache::new(1);
        c.insert(1, 0, entry(10, &[(0, 100)], 1.0, 1));
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.cached_bytes(DeviceId(0)), 0);
    }
}
