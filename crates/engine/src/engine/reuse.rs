//! Prefix reuse: session affinity at arrival, the admission-time probe
//! of the warm-KV cache, adopting a hit, and registering a finished
//! turn's context. Every entry point is a no-op unless prefix reuse is on.

use super::Engine;
use crate::config::BLOCK_SIZE;
use crate::policy::Policy;
use crate::prefix::PrefixEntry;
use crate::topology::InstanceRole;
use hetis_cluster::DeviceId;
use hetis_workload::RequestId;

impl<'a, P: Policy> Engine<'a, P> {
    /// The instance holding a warm prefix for `req`'s session, when
    /// prefix reuse is on, the previous turn's entry exists and that
    /// instance can still serve. `None` falls through to policy routing.
    pub(super) fn prefix_affinity(&self, req: &hetis_workload::Request) -> Option<usize> {
        if !self.mode.prefix_reuse {
            return None;
        }
        let st = req.session?;
        if st.turn == 0 {
            return None;
        }
        let e = self.prefix.get(st.session, st.turn - 1)?;
        (self.topo.instances[e.instance].role != InstanceRole::Down).then_some(e.instance)
    }

    /// Probes the prefix cache for admission candidate `rid` on `inst`.
    /// Returns the hit's cache key and warm token count — the prompt
    /// span whose KV is adopted without recompute — or `None` on any
    /// miss condition. Only first-admission, never-preempted turns
    /// probe: a recompute preemption regrows the whole context, and the
    /// cached entry only matches the original prompt bytes.
    ///
    /// The probe runs the lazy pressure sweep first: cached prefixes
    /// live in *free* memory, so a device whose free pool shrank below
    /// its cached total has physically overwritten the oldest entries.
    pub(super) fn probe_prefix(
        &mut self,
        rid: RequestId,
        inst: usize,
    ) -> Option<((u64, u32), u32)> {
        if !self.mode.prefix_reuse {
            return None;
        }
        let (st, eff) = {
            let r = &self.requests[&rid];
            if r.prefilled != 0 || r.preemptions != 0 || r.placement.is_some() {
                return None;
            }
            (r.req.session?, r.effective_input)
        };
        if st.turn == 0 {
            return None;
        }
        let key = (st.session, st.turn - 1);
        self.tally.prefix_probes += 1;
        let devices: Vec<DeviceId> = self.prefix.get(key.0, key.1)?.devices().collect();
        for &d in &devices {
            let free = self.kv.device(d).free_bytes();
            self.prefix.enforce_pressure(d, free);
        }
        let e = self.prefix.get(key.0, key.1)?; // may have just been evicted
        if e.instance != inst || self.topo.instances[e.instance].role == InstanceRole::Down {
            return None;
        }
        if e.placement
            .devices()
            .iter()
            .any(|&d| !self.health[d.index()].accepts_kv())
        {
            return None;
        }
        // Block-floor the warm span (partial blocks are recomputed, as
        // in block-granular radix caches) and keep ≥ 1 cold token so the
        // final chunk still runs attention and emits the first token.
        let warm = (e.tokens.min(eff.saturating_sub(1)) / BLOCK_SIZE) * BLOCK_SIZE;
        if warm == 0 {
            return None;
        }
        Some((key, warm))
    }

    /// Commits a prefix hit after its allocation succeeded: consumes the
    /// cache entry (the follow-up turn now *owns* the warm span — its
    /// completion will re-register the grown context), marks the warm
    /// tokens prefilled, and accounts the skipped compute and adopted
    /// KV bytes.
    pub(super) fn consume_prefix_hit(
        &mut self,
        rid: RequestId,
        inst: usize,
        s: u64,
        t: u32,
        warm: u32,
    ) {
        let e = self.prefix.take(s, t).expect("probed this round");
        let gqa = self.model.gqa_ratio();
        let mut warm_bytes = 0u64;
        for (stage, stage_pl) in e.placement.per_stage.iter().enumerate() {
            let layers = self.topo.instances[inst].stages[stage].primary.layers;
            for &(dev, heads) in stage_pl {
                warm_bytes += self.kv.device(dev).bytes_needed(heads / gqa, warm, layers);
            }
        }
        self.tally.prefix_hits += 1;
        self.tally.prefix_hit_tokens += warm as u64;
        self.tally.shared_kv_bytes += warm_bytes;
        let r = self.requests.get_mut(&rid).expect("live");
        r.prefilled = warm;
        r.prefix_hit_tokens = warm;
        r.prefix_shared_bytes = warm_bytes;
    }

    /// Registers finished request `rid`'s context under its session turn,
    /// before its KV is freed: the entry's per-device bytes are what a
    /// follow-up turn would re-occupy (the cache itself lives in free
    /// memory, so the frees proceed as always).
    pub(super) fn register_prefix(&mut self, rid: RequestId, inst: usize) {
        if !self.mode.prefix_reuse {
            return;
        }
        let r = &self.requests[&rid];
        let (Some(st), Some(placement)) = (r.req.session, r.placement.as_ref()) else {
            return;
        };
        let bytes: Vec<(DeviceId, u64)> = placement
            .devices()
            .iter()
            .map(|&d| (d, self.kv.device(d).request_bytes(rid)))
            .collect();
        let entry = PrefixEntry {
            tokens: r.context_len(),
            instance: inst,
            placement: placement.clone(),
            bytes,
            registered: (self.clock.now(), rid),
        };
        self.prefix.insert(st.session, st.turn, entry);
    }
}
