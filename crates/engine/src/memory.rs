//! Byte-accurate per-device KV accounting with block-granularity rounding.
//!
//! The engine tracks, for every device, which *(request, stage)* pairs hold
//! KV there, with how many head groups and tokens. Bytes are rounded up to
//! whole blocks (`block_size` tokens × one head group × one layer is the
//! unit), so capacity behaves exactly like the block allocators in
//! `hetis-kvcache`. The engine keeps only this ledger: block tables,
//! fetch indices and their storage cost live in that crate, for Fig. 15b.

use hetis_cluster::{Cluster, DeviceId, MemoryLedger};
use hetis_model::ModelSpec;
use hetis_sim::FxHashMap;
use hetis_workload::RequestId;
use std::collections::HashMap;

/// KV allocation failure on one device: the byte pool cannot hold the
/// operation. Carries requested vs. available bytes so admission and
/// growth failure logs are actionable (the block allocators'
/// `hetis_kvcache::AllocError` carries the block-count analogue; the
/// engine is deliberately independent of the block-cache crate).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KvAllocError {
    /// Bytes the failing operation needed.
    pub requested: u64,
    /// Bytes that were free.
    pub available: u64,
}

impl std::fmt::Display for KvAllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "KV pool exhausted: requested {} bytes, {} available",
            self.requested, self.available
        )
    }
}

impl std::error::Error for KvAllocError {}

/// KV held by one (request, stage) on one device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KvEntry {
    /// KV head groups resident.
    pub groups: u32,
    /// Tokens cached.
    pub tokens: u32,
    /// Layers of the owning stage.
    pub layers: u32,
}

/// Resident totals of one pipeline stage on one device.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct StageLoad {
    /// KV head groups, summed over the stage's entries.
    groups: u64,
    /// Block units per layer (`blocks × groups`), summed over the stage's
    /// entries.
    units: u64,
}

/// KV accounting for one device.
///
/// Entries are keyed by `(request, stage)`. Per-request operations look
/// up `(req, s)` for every stage index `s` this device has seen, so they
/// cost O(stages) rather than O(resident entries); per-stage totals are
/// counters kept in step with every mutation.
#[derive(Debug, Clone)]
pub struct DeviceKv {
    ledger: MemoryLedger,
    entries: FxHashMap<(RequestId, u16), KvEntry>,
    /// Per-stage totals, indexed by stage. Its length is the number of
    /// stage indices this device has seen; it never shrinks.
    stages: Vec<StageLoad>,
    /// Bytes of one block unit: block_size tokens × one group × one layer.
    block_unit: u64,
    block_size: u32,
}

impl DeviceKv {
    fn blocks_for(&self, tokens: u32) -> u64 {
        tokens.div_ceil(self.block_size) as u64
    }

    fn entry_bytes(&self, e: &KvEntry) -> u64 {
        self.blocks_for(e.tokens) * e.groups as u64 * e.layers as u64 * self.block_unit
    }

    /// `req`'s entries on this device: one lookup per stage index seen.
    fn request_entries(&self, req: RequestId) -> impl Iterator<Item = &KvEntry> {
        (0..self.stages.len()).filter_map(move |s| self.entries.get(&(req, s as u16)))
    }

    /// The totals of `stage` (zero for a stage never seen).
    fn stage_load(&self, stage: u16) -> StageLoad {
        self.stages.get(stage as usize).copied().unwrap_or_default()
    }

    /// Bytes needed to hold `groups` groups × `tokens` tokens × `layers`.
    pub fn bytes_needed(&self, groups: u32, tokens: u32, layers: u32) -> u64 {
        self.blocks_for(tokens) * groups as u64 * layers as u64 * self.block_unit
    }

    /// KV bytes free.
    pub fn free_bytes(&self) -> u64 {
        self.ledger.kv_free()
    }

    /// KV bytes in use.
    pub fn used_bytes(&self) -> u64 {
        self.ledger.kv_used()
    }

    /// Total KV pool bytes.
    pub fn pool_bytes(&self) -> u64 {
        self.ledger.kv_pool()
    }

    /// Pool utilization in [0, 1].
    pub fn utilization(&self) -> f64 {
        self.ledger.kv_utilization()
    }

    /// The resident entry for (request, stage).
    pub fn entry(&self, req: RequestId, stage: u16) -> Option<KvEntry> {
        self.entries.get(&(req, stage)).copied()
    }

    /// Requests with any residency here.
    pub fn resident_requests(&self) -> Vec<RequestId> {
        let mut v: Vec<RequestId> = self.entries.keys().map(|&(r, _)| r).collect();
        v.sort();
        v.dedup();
        v
    }

    /// Registers an entry, allocating its bytes. Fails without side
    /// effects when the pool is short.
    pub fn allocate(
        &mut self,
        req: RequestId,
        stage: u16,
        groups: u32,
        tokens: u32,
        layers: u32,
    ) -> Result<(), KvAllocError> {
        assert!(groups > 0 && layers > 0);
        assert!(
            !self.entries.contains_key(&(req, stage)),
            "{req} stage {stage} already resident"
        );
        let e = KvEntry {
            groups,
            tokens,
            layers,
        };
        let bytes = self.entry_bytes(&e);
        self.ledger.alloc_kv(bytes).map_err(|err| KvAllocError {
            requested: bytes,
            available: err.available,
        })?;
        let units = self.blocks_for(tokens) * groups as u64;
        if stage as usize >= self.stages.len() {
            self.stages.resize(stage as usize + 1, StageLoad::default());
        }
        let load = &mut self.stages[stage as usize];
        load.groups += groups as u64;
        load.units += units;
        self.entries.insert((req, stage), e);
        Ok(())
    }

    /// Bytes that raising every entry of `req` from `tokens` to
    /// `to(tokens)` tokens would newly consume (0 when no block boundary is
    /// crossed). `to` never lowers a count.
    fn raise_cost(&self, req: RequestId, to: impl Fn(u32) -> u32) -> u64 {
        self.request_entries(req)
            .map(|e| {
                let added = self.blocks_for(to(e.tokens)) - self.blocks_for(e.tokens);
                added * e.groups as u64 * e.layers as u64 * self.block_unit
            })
            .sum()
    }

    /// Raises every entry of `req` from `tokens` to `to(tokens)` tokens.
    /// Fails without side effects when the pool is short.
    fn raise_tokens(
        &mut self,
        req: RequestId,
        to: impl Fn(u32) -> u32,
    ) -> Result<(), KvAllocError> {
        let cost = self.raise_cost(req, &to);
        if cost > 0 {
            self.ledger.alloc_kv(cost).map_err(|e| KvAllocError {
                requested: cost,
                available: e.available,
            })?;
        }
        let block_size = self.block_size;
        for (s, load) in self.stages.iter_mut().enumerate() {
            if let Some(e) = self.entries.get_mut(&(req, s as u16)) {
                let new_tokens = to(e.tokens);
                let added =
                    new_tokens.div_ceil(block_size) as u64 - e.tokens.div_ceil(block_size) as u64;
                load.units += added * e.groups as u64;
                e.tokens = new_tokens;
            }
        }
        Ok(())
    }

    /// Bytes that appending one token to every entry of `req` would newly
    /// consume (0 when no block boundary is crossed).
    pub fn append_cost(&self, req: RequestId) -> u64 {
        self.raise_cost(req, |t| t + 1)
    }

    /// Appends one token to every entry of `req`. Fails without side
    /// effects when the pool is short.
    pub fn append_token(&mut self, req: RequestId) -> Result<(), KvAllocError> {
        self.raise_tokens(req, |t| t + 1)
    }

    /// Bytes that growing every entry of `req` to `new_tokens` tokens
    /// would newly consume (0 when no entry gains a block).
    pub fn grow_cost(&self, req: RequestId, new_tokens: u32) -> u64 {
        self.raise_cost(req, |t| t.max(new_tokens))
    }

    /// Grows every entry of `req` on this device to `new_tokens` tokens —
    /// the chunked-prefill reservation path: admission reserves the first
    /// chunk, each completed chunk grows to cover the next. Entries
    /// already at or past `new_tokens` are left alone. Fails without side
    /// effects when the pool is short.
    pub fn grow_tokens(&mut self, req: RequestId, new_tokens: u32) -> Result<(), KvAllocError> {
        self.raise_tokens(req, |t| t.max(new_tokens))
    }

    /// Frees every entry of `req`; returns bytes released.
    pub fn free_request(&mut self, req: RequestId) -> u64 {
        let mut released = 0;
        for s in 0..self.stages.len() {
            if let Some(e) = self.entries.remove(&(req, s as u16)) {
                released += self.entry_bytes(&e);
                self.stages[s].groups -= e.groups as u64;
                self.stages[s].units -= self.blocks_for(e.tokens) * e.groups as u64;
            }
        }
        self.ledger.free_kv(released);
        released
    }

    /// Frees `groups` groups from (req, stage) — partial migration away.
    /// Returns bytes released. Panics if more groups than resident.
    pub fn shrink_groups(&mut self, req: RequestId, stage: u16, groups: u32) -> u64 {
        let e = *self.entries.get(&(req, stage)).expect("entry must exist");
        assert!(groups <= e.groups, "shrinking {groups} of {}", e.groups);
        let per_group = self.blocks_for(e.tokens) * e.layers as u64 * self.block_unit;
        let released = per_group * groups as u64;
        if e.groups == groups {
            self.entries.remove(&(req, stage));
        } else {
            self.entries.get_mut(&(req, stage)).expect("present").groups -= groups;
        }
        let units = self.blocks_for(e.tokens) * groups as u64;
        let load = &mut self.stages[stage as usize];
        load.groups -= groups as u64;
        load.units -= units;
        self.ledger.free_kv(released);
        released
    }

    /// Adds `groups` groups to (req, stage), creating the entry if absent
    /// (migration in). Fails without side effects when short.
    pub fn grow_groups(
        &mut self,
        req: RequestId,
        stage: u16,
        groups: u32,
        tokens: u32,
        layers: u32,
    ) -> Result<(), KvAllocError> {
        if let Some(e) = self.entries.get(&(req, stage)).copied() {
            assert_eq!(e.tokens, tokens, "token mismatch on grow");
            let per_group = self.blocks_for(tokens) * layers as u64 * self.block_unit;
            let bytes = per_group * groups as u64;
            self.ledger.alloc_kv(bytes).map_err(|err| KvAllocError {
                requested: bytes,
                available: err.available,
            })?;
            self.entries.get_mut(&(req, stage)).expect("present").groups += groups;
            let units = self.blocks_for(tokens) * groups as u64;
            let load = &mut self.stages[stage as usize];
            load.groups += groups as u64;
            load.units += units;
            Ok(())
        } else {
            self.allocate(req, stage, groups, tokens, layers)
        }
    }

    /// Total KV bytes attributable to `req` on this device.
    pub fn request_bytes(&self, req: RequestId) -> u64 {
        self.request_entries(req).map(|e| self.entry_bytes(e)).sum()
    }

    /// Sum over entries of `groups × r` — the device's resident query-head
    /// count `h_i` (per layer), given the model's group ratio.
    pub fn resident_query_heads(&self, r: u32) -> u64 {
        let heads = self.stages.iter().map(|l| l.groups).sum::<u64>() * r as u64;
        debug_assert_eq!(
            heads,
            self.scan_query_heads(None, r),
            "head counters drifted"
        );
        heads
    }

    /// Resident query heads for one pipeline stage only — the Dispatcher's
    /// `h_i(t)` (the LP of Eq. 7 runs per stage).
    pub fn stage_query_heads(&self, stage: u16, r: u32) -> u64 {
        let heads = self.stage_load(stage).groups * r as u64;
        debug_assert_eq!(
            heads,
            self.scan_query_heads(Some(stage), r),
            "stage {stage} head counter drifted"
        );
        heads
    }

    /// Per-layer KV bytes resident for one stage — the Dispatcher's
    /// `g_i(t)` (what one attention kernel invocation reads).
    ///
    /// Read from the stage's block-unit counter. The scan this replaces
    /// summed per-entry integers in `f64`; every partial sum stays far
    /// below 2^53, so it was exact and the counter gives the same bits.
    /// An empty stage reads `-0.0`, the value of that scan's empty sum.
    pub fn stage_kv_bytes_per_layer(&self, stage: u16) -> f64 {
        let load = self.stage_load(stage);
        let bytes = if load.groups == 0 {
            -0.0
        } else {
            (load.units * self.block_unit) as f64
        };
        debug_assert_eq!(
            bytes.to_bits(),
            self.scan_kv_bytes_per_layer(stage).to_bits(),
            "stage {stage} byte counter drifted"
        );
        bytes
    }

    /// The scan behind [`DeviceKv::stage_query_heads`] (`Some(stage)`) and
    /// [`DeviceKv::resident_query_heads`] (`None`), kept as the debug-build
    /// oracle the counters are checked against (release builds compile the
    /// `debug_assert_eq!` away).
    fn scan_query_heads(&self, stage: Option<u16>, r: u32) -> u64 {
        self.entries
            .iter()
            .filter(|&(&(_, s), _)| stage.is_none_or(|st| s == st))
            .map(|(_, e)| e.groups as u64 * r as u64)
            .sum()
    }

    /// The scan behind [`DeviceKv::stage_kv_bytes_per_layer`], kept as the
    /// debug-build oracle the counter is checked against.
    fn scan_kv_bytes_per_layer(&self, stage: u16) -> f64 {
        self.entries
            .iter()
            .filter(|&(&(_, s), _)| s == stage)
            .map(|(_, e)| (self.entry_bytes(e) / e.layers as u64) as f64)
            .sum()
    }

    /// The most recently useful victim query: requests resident on this
    /// device for a given stage, with their entry token counts.
    pub fn stage_residents(&self, stage: u16) -> Vec<(RequestId, KvEntry)> {
        let mut v: Vec<(RequestId, KvEntry)> = self
            .entries
            .iter()
            .filter(|&(&(_, s), _)| s == stage)
            .map(|(&(r, _), &e)| (r, e))
            .collect();
        v.sort_by_key(|&(r, _)| r);
        v
    }
}

/// Cluster-wide KV state: one [`DeviceKv`] per device.
#[derive(Debug, Clone)]
pub struct KvState {
    devices: Vec<DeviceKv>,
}

impl KvState {
    /// Builds the state: reserves `weights[d]` on each device and sizes
    /// the pools. Devices without weights get their full pool.
    pub fn new(
        cluster: &Cluster,
        model: &ModelSpec,
        block_size: u32,
        weights: &HashMap<DeviceId, u64>,
    ) -> Result<KvState, String> {
        let block_unit = block_size as u64 * 2 * model.head_dim * model.dtype.bytes();
        let mut devices = Vec::with_capacity(cluster.len());
        for d in cluster.devices() {
            let mut ledger = MemoryLedger::new(d.spec.mem_bytes);
            if let Some(&w) = weights.get(&d.id) {
                ledger
                    .reserve_weights(w)
                    .map_err(|e| format!("{}: {e}", d.id))?;
            }
            devices.push(DeviceKv {
                ledger,
                entries: FxHashMap::default(),
                stages: Vec::new(),
                block_unit,
                block_size,
            });
        }
        Ok(KvState { devices })
    }

    /// Accessor for one device.
    pub fn device(&self, d: DeviceId) -> &DeviceKv {
        &self.devices[d.index()]
    }

    /// Mutable accessor for one device.
    pub fn device_mut(&mut self, d: DeviceId) -> &mut DeviceKv {
        &mut self.devices[d.index()]
    }

    /// Number of devices.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// True when no devices exist.
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// Total KV pool across a device subset.
    pub fn total_pool(&self, subset: &[DeviceId]) -> u64 {
        subset.iter().map(|&d| self.device(d).pool_bytes()).sum()
    }

    /// Total used KV across a device subset.
    pub fn total_used(&self, subset: &[DeviceId]) -> u64 {
        subset.iter().map(|&d| self.device(d).used_bytes()).sum()
    }
}

/// *Usable* KV capacity of a topology, in bytes of whole-model cache —
/// the Fig. 11 metric.
///
/// A request's KV splits across pipeline stages in proportion to their
/// layer counts. For stage-local systems each stage's share can only live
/// on that stage's primary devices, so capacity is set by the bottleneck
/// stage — exactly the "unused cache space due to computation–memory
/// imbalance" of Fig. 1b. Hetis's shared attention-worker pool absorbs
/// any stage's overflow, so its capacity is the largest `T` (tokens) with
/// `Σ_s max(0, T·c_s − P_s) ≤ W`, where `c_s` is stage `s`'s per-token
/// bytes, `P_s` its primary pool and `W` the shared worker pool.
/// Prefill-only instances contribute nothing (their pools never hold
/// decode working set) — Fig. 1a's replicated-parameter cost.
pub fn usable_kv_bytes(model: &ModelSpec, topo: &crate::topology::Topology, kv: &KvState) -> u64 {
    use crate::topology::InstanceRole;
    let per_layer = hetis_model::KvFootprint::new(model).bytes_per_token_per_layer();
    let mut usable = 0u64;
    for inst in &topo.instances {
        if inst.role == InstanceRole::PrefillOnly || inst.role == InstanceRole::Down {
            continue;
        }
        let primary_pools: Vec<u64> = inst
            .stages
            .iter()
            .map(|s| {
                s.primary
                    .devices
                    .iter()
                    .map(|&d| kv.device(d).pool_bytes())
                    .sum()
            })
            .collect();
        let per_token: Vec<u64> = inst
            .stages
            .iter()
            .map(|s| per_layer * s.primary.layers as u64)
            .collect();
        // Shared worker pool: union of the instance's attention workers.
        let mut workers: Vec<_> = inst
            .stages
            .iter()
            .flat_map(|s| s.attention_workers.iter().copied())
            .collect();
        workers.sort();
        workers.dedup();
        let shared: u64 = workers.iter().map(|&d| kv.device(d).pool_bytes()).sum();
        let tokens = max_tokens_with_overflow_pool(&primary_pools, &per_token, shared);
        usable += tokens.saturating_mul(per_layer * model.num_layers as u64);
    }
    usable
}

/// Largest `T` with `Σ_s max(0, T·cost_s − pool_s) ≤ shared` (binary
/// search over a monotone predicate).
pub fn max_tokens_with_overflow_pool(pools: &[u64], costs: &[u64], shared: u64) -> u64 {
    let fits = |t: u64| -> bool {
        let mut overflow: u128 = 0;
        for (&p, &c) in pools.iter().zip(costs) {
            let need = t as u128 * c as u128;
            overflow += need.saturating_sub(p as u128);
        }
        overflow <= shared as u128
    };
    let mut lo = 0u64;
    // Upper bound: all memory in one pot.
    let total: u128 = pools.iter().map(|&p| p as u128).sum::<u128>() + shared as u128;
    let per_token: u128 = costs.iter().map(|&c| c as u128).sum::<u128>().max(1);
    let mut hi = (total / per_token + 1) as u64;
    while lo < hi {
        let mid = lo + (hi - lo).div_ceil(2);
        if fits(mid) {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetis_cluster::cluster::paper_cluster;
    use hetis_model::llama_70b;

    fn state() -> KvState {
        let c = paper_cluster();
        let m = llama_70b();
        KvState::new(&c, &m, 16, &HashMap::new()).unwrap()
    }

    #[test]
    fn allocate_append_free_roundtrip() {
        let mut s = state();
        let d = DeviceId(0);
        let r = RequestId(1);
        s.device_mut(d).allocate(r, 0, 8, 100, 80).unwrap();
        let used = s.device(d).used_bytes();
        // 7 blocks × 8 groups × 80 layers × block_unit(16×2×128×2)
        assert_eq!(used, 7 * 8 * 80 * (16 * 2 * 128 * 2));
        // Appending inside the 7th block costs nothing (100 → 101 < 112).
        assert_eq!(s.device(d).append_cost(r), 0);
        s.device_mut(d).append_token(r).unwrap();
        assert_eq!(s.device(d).used_bytes(), used);
        // Push to the boundary: 112 tokens → next append opens block 8.
        for _ in 0..11 {
            s.device_mut(d).append_token(r).unwrap();
        }
        assert!(s.device(d).append_cost(r) > 0);
        s.device_mut(d).append_token(r).unwrap();
        assert!(s.device(d).used_bytes() > used);
        let released = s.device_mut(d).free_request(r);
        assert_eq!(s.device(d).used_bytes(), 0);
        assert!(released > used);
    }

    #[test]
    fn grow_tokens_matches_atomic_reservation() {
        let mut grown = state();
        let mut atomic = state();
        let d = DeviceId(1);
        let r = RequestId(3);
        // Chunk schedule 300 + 300 + 177 vs one 777-token allocation.
        grown.device_mut(d).allocate(r, 0, 8, 300, 40).unwrap();
        grown.device_mut(d).allocate(r, 1, 4, 300, 40).unwrap();
        for target in [600, 777] {
            assert!(
                grown.device_mut(d).grow_cost(r, target) > 0,
                "each chunk adds blocks"
            );
            grown.device_mut(d).grow_tokens(r, target).unwrap();
        }
        atomic.device_mut(d).allocate(r, 0, 8, 777, 40).unwrap();
        atomic.device_mut(d).allocate(r, 1, 4, 777, 40).unwrap();
        assert_eq!(grown.device(d).used_bytes(), atomic.device(d).used_bytes());
        assert_eq!(grown.device(d).entry(r, 0).unwrap().tokens, 777);
        assert_eq!(grown.device(d).entry(r, 1).unwrap().tokens, 777);
        // Shrinking targets are no-ops.
        assert_eq!(grown.device(d).grow_cost(r, 100), 0);
        grown.device_mut(d).grow_tokens(r, 100).unwrap();
        assert_eq!(grown.device(d).used_bytes(), atomic.device(d).used_bytes());
    }

    #[test]
    fn grow_tokens_exhaustion_has_no_side_effects() {
        let c = paper_cluster();
        let m = llama_70b();
        let mut weights = HashMap::new();
        let p100 = c.devices_of_type(hetis_cluster::GpuType::P100)[0];
        weights.insert(p100, 10_000_000_000);
        let mut s = KvState::new(&c, &m, 16, &weights).unwrap();
        s.device_mut(p100)
            .allocate(RequestId(1), 0, 8, 64, 80)
            .unwrap();
        let used = s.device(p100).used_bytes();
        let res = s.device_mut(p100).grow_tokens(RequestId(1), 1_000_000);
        assert!(res.is_err());
        assert_eq!(s.device(p100).used_bytes(), used);
        assert_eq!(s.device(p100).entry(RequestId(1), 0).unwrap().tokens, 64);
        // Terminal zero: freeing the request balances the ledger exactly.
        let released = s.device_mut(p100).free_request(RequestId(1));
        assert_eq!(released, used);
        assert_eq!(s.device(p100).used_bytes(), 0);
    }

    #[test]
    fn shrink_and_grow_groups() {
        let mut s = state();
        let d = DeviceId(2);
        let r = RequestId(7);
        s.device_mut(d).allocate(r, 1, 8, 64, 40).unwrap();
        let full = s.device(d).used_bytes();
        let released = s.device_mut(d).shrink_groups(r, 1, 3);
        assert_eq!(released, full * 3 / 8);
        assert_eq!(s.device(d).entry(r, 1).unwrap().groups, 5);
        s.device_mut(d).grow_groups(r, 1, 3, 64, 40).unwrap();
        assert_eq!(s.device(d).used_bytes(), full);
        // Shrinking to zero removes the entry.
        s.device_mut(d).shrink_groups(r, 1, 8);
        assert!(s.device(d).entry(r, 1).is_none());
        assert_eq!(s.device(d).used_bytes(), 0);
    }

    #[test]
    fn exhaustion_has_no_side_effects() {
        let c = paper_cluster();
        let m = llama_70b();
        let mut weights = HashMap::new();
        // Nearly fill a P100 (12 GB) with weights.
        let p100 = c.devices_of_type(hetis_cluster::GpuType::P100)[0];
        weights.insert(p100, 10_000_000_000);
        let mut s = KvState::new(&c, &m, 16, &weights).unwrap();
        let free = s.device(p100).free_bytes();
        // An allocation bigger than the pool fails cleanly.
        let need_groups = (free / (16 * 2 * 128 * 2) / 80 + 2) as u32;
        let res = s
            .device_mut(p100)
            .allocate(RequestId(1), 0, need_groups, 16, 80);
        assert!(res.is_err());
        assert_eq!(s.device(p100).used_bytes(), 0);
        assert_eq!(s.device(p100).free_bytes(), free);
    }

    #[test]
    fn alloc_error_carries_requested_and_available() {
        let c = paper_cluster();
        let m = llama_70b();
        let mut weights = HashMap::new();
        let p100 = c.devices_of_type(hetis_cluster::GpuType::P100)[0];
        weights.insert(p100, 10_000_000_000);
        let mut s = KvState::new(&c, &m, 16, &weights).unwrap();
        let available = s.device(p100).free_bytes();
        let requested = s.device(p100).bytes_needed(8, 1_000_000, 80);
        assert!(requested > available, "setup must exhaust the pool");
        let err = s
            .device_mut(p100)
            .allocate(RequestId(1), 0, 8, 1_000_000, 80)
            .unwrap_err();
        assert_eq!(
            err,
            KvAllocError {
                requested,
                available
            }
        );
        assert!(err.to_string().contains(&format!("{requested} bytes")));
        // Growth failures report the *delta* they asked for.
        s.device_mut(p100)
            .allocate(RequestId(1), 0, 8, 64, 80)
            .unwrap();
        let delta = s.device(p100).grow_cost(RequestId(1), 1_000_000);
        let err = s
            .device_mut(p100)
            .grow_tokens(RequestId(1), 1_000_000)
            .unwrap_err();
        assert_eq!(err.requested, delta);
        assert_eq!(err.available, s.device(p100).free_bytes());
    }

    #[test]
    fn resident_bookkeeping() {
        let mut s = state();
        let d = DeviceId(4);
        s.device_mut(d)
            .allocate(RequestId(1), 0, 2, 50, 40)
            .unwrap();
        s.device_mut(d)
            .allocate(RequestId(2), 0, 4, 30, 40)
            .unwrap();
        s.device_mut(d)
            .allocate(RequestId(1), 1, 1, 50, 40)
            .unwrap();
        assert_eq!(
            s.device(d).resident_requests(),
            vec![RequestId(1), RequestId(2)]
        );
        assert_eq!(s.device(d).resident_query_heads(8), (2 + 4 + 1) * 8);
        assert!(s.device(d).request_bytes(RequestId(1)) > 0);
        let _ = s.device_mut(d).free_request(RequestId(1));
        assert_eq!(s.device(d).resident_requests(), vec![RequestId(2)]);
    }

    /// The per-request filter scans the stage lookups replaced.
    fn scan_request_bytes(dev: &DeviceKv, req: RequestId) -> u64 {
        dev.entries
            .iter()
            .filter(|&(&(r, _), _)| r == req)
            .map(|(_, e)| dev.entry_bytes(e))
            .sum()
    }

    fn scan_raise_cost(dev: &DeviceKv, req: RequestId, to: impl Fn(u32) -> u32) -> u64 {
        dev.entries
            .iter()
            .filter(|&(&(r, _), _)| r == req)
            .map(|(_, e)| {
                (dev.blocks_for(to(e.tokens)) - dev.blocks_for(e.tokens))
                    * e.groups as u64
                    * e.layers as u64
                    * dev.block_unit
            })
            .sum()
    }

    /// Every counter-backed accessor against its scan, plus the ledger's
    /// used bytes against the entries' bytes.
    fn assert_matches_scans(dev: &DeviceKv, requests: u64) {
        for stage in 0..4 {
            assert_eq!(
                dev.stage_query_heads(stage, 8),
                dev.scan_query_heads(Some(stage), 8)
            );
            assert_eq!(
                dev.stage_kv_bytes_per_layer(stage).to_bits(),
                dev.scan_kv_bytes_per_layer(stage).to_bits()
            );
        }
        assert_eq!(dev.resident_query_heads(8), dev.scan_query_heads(None, 8));
        for q in 0..requests {
            let req = RequestId(q);
            assert_eq!(dev.request_bytes(req), scan_request_bytes(dev, req));
            assert_eq!(dev.append_cost(req), scan_raise_cost(dev, req, |t| t + 1));
            assert_eq!(
                dev.grow_cost(req, 2500),
                scan_raise_cost(dev, req, |t| t.max(2500))
            );
        }
        let entry_bytes: u64 = dev.entries.values().map(|e| dev.entry_bytes(e)).sum();
        assert_eq!(dev.used_bytes(), entry_bytes);
    }

    #[test]
    fn stage_counters_match_scans_under_random_ops() {
        // A P100 mostly taken by weights, so some operations hit the pool
        // limit and must fail without touching the counters.
        let c = paper_cluster();
        let m = llama_70b();
        let p100 = c.devices_of_type(hetis_cluster::GpuType::P100)[0];
        let mut s = KvState::new(&c, &m, 16, &HashMap::from([(p100, 10_000_000_000)])).unwrap();
        let dev = s.device_mut(p100);
        let layers = [40u32, 24, 16];
        let requests = 12;
        let mut rng = hetis_sim::SplitMix64::new(13);
        let (mut applied, mut failed) = (0, 0);
        for _ in 0..3000 {
            let req = RequestId(rng.next_below(requests));
            let stage = rng.next_below(3) as u16;
            let entry = dev.entry(req, stage);
            let ok = match rng.next_below(6) {
                0 if entry.is_none() => dev
                    .allocate(
                        req,
                        stage,
                        1 + rng.next_below(8) as u32,
                        1 + rng.next_below(3000) as u32,
                        layers[stage as usize],
                    )
                    .is_ok(),
                1 => dev.append_token(req).is_ok(),
                2 => dev
                    .grow_tokens(req, 1 + rng.next_below(4000) as u32)
                    .is_ok(),
                3 => {
                    let Some(e) = entry else { continue };
                    dev.shrink_groups(req, stage, 1 + rng.next_below(e.groups as u64) as u32);
                    true
                }
                4 => {
                    let tokens = entry.map_or(1 + rng.next_below(3000) as u32, |e| e.tokens);
                    let groups = 1 + rng.next_below(4) as u32;
                    dev.grow_groups(req, stage, groups, tokens, layers[stage as usize])
                        .is_ok()
                }
                5 => {
                    dev.free_request(req);
                    true
                }
                _ => continue,
            };
            if ok {
                applied += 1;
            } else {
                failed += 1;
            }
            assert_matches_scans(dev, requests);
        }
        assert!(
            applied > 1000 && failed > 50,
            "{applied} applied, {failed} failed"
        );
        for q in 0..requests {
            dev.free_request(RequestId(q));
        }
        assert_matches_scans(dev, requests);
        assert!(dev.entries.is_empty());
        assert!(dev.stages.iter().all(|&l| l == StageLoad::default()));
        assert_eq!(dev.stages.len(), 3);
        assert_eq!(dev.used_bytes(), 0);
    }

    #[test]
    fn overflow_pool_token_math() {
        // Two stages, per-token costs 2 and 1, pools 10 and 50, shared 6:
        // T=20 → needs (40,20): overflow (30,0)=30 > 6. T=12 → (24,12):
        // overflow (14,0)=14 > 6. T=8 → (16,8): overflow 6 ≤ 6 ✓.
        assert_eq!(max_tokens_with_overflow_pool(&[10, 50], &[2, 1], 6), 8);
        // No shared pool: pure bottleneck min(10/2, 50/1) = 5.
        assert_eq!(max_tokens_with_overflow_pool(&[10, 50], &[2, 1], 0), 5);
        // Everything in the shared pool.
        assert_eq!(max_tokens_with_overflow_pool(&[0, 0], &[2, 1], 30), 10);
        // Degenerate: zero memory.
        assert_eq!(max_tokens_with_overflow_pool(&[0], &[1], 0), 0);
    }

    #[test]
    fn usable_cache_counts_shared_workers_and_skips_prefill_only() {
        use crate::topology::{InstanceRole, InstanceTopo, StageTopo, Topology};
        use hetis_parallel::StageConfig;
        let c = paper_cluster();
        let m = llama_70b();
        let s = KvState::new(&c, &m, 16, &HashMap::new()).unwrap();
        let mk = |devs: &[u32], layers: u32, workers: &[u32]| {
            let mut st = StageTopo::plain(StageConfig {
                devices: devs.iter().map(|&i| DeviceId(i)).collect(),
                layers,
            });
            st.attention_workers = workers.iter().map(|&i| DeviceId(i)).collect();
            st
        };
        // One normal instance without workers vs the same with P100
        // workers: workers must strictly increase usable capacity.
        let plain = Topology {
            instances: vec![InstanceTopo {
                stages: vec![mk(&[0, 1], 40, &[]), mk(&[4, 5], 40, &[])],
                role: InstanceRole::Both,
            }],
        };
        let with_workers = Topology {
            instances: vec![InstanceTopo {
                stages: vec![mk(&[0, 1], 40, &[8, 9]), mk(&[4, 5], 40, &[8, 9])],
                role: InstanceRole::Both,
            }],
        };
        let u_plain = usable_kv_bytes(&m, &plain, &s);
        let u_workers = usable_kv_bytes(&m, &with_workers, &s);
        assert!(u_workers > u_plain, "{u_workers} vs {u_plain}");
        // A prefill-only instance contributes nothing.
        let prefill_only = Topology {
            instances: vec![InstanceTopo {
                stages: vec![mk(&[0, 1, 2, 3], 80, &[])],
                role: InstanceRole::PrefillOnly,
            }],
        };
        assert_eq!(usable_kv_bytes(&m, &prefill_only, &s), 0);
    }

    #[test]
    fn total_pool_accounting() {
        let s = state();
        let c = paper_cluster();
        let all: Vec<DeviceId> = c.devices().iter().map(|d| d.id).collect();
        // No weights: pools = memory minus activation reserve.
        let total = s.total_pool(&all);
        assert!(total > 400_000_000_000);
        assert_eq!(s.total_used(&all), 0);
    }
}
