//! Serving topology: instances, stages, attention workers, per-request
//! head placements, and the §6 Hauler that plans the head-group moves
//! between two placements (`HeadPlacement::moves_to`).

use hetis_cluster::DeviceId;
use hetis_parallel::StageConfig;

/// Role of an instance — Splitwise splits phases across instances; every
/// other system serves both phases everywhere.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstanceRole {
    /// Serves prefill and decode (default).
    Both,
    /// Prefill-only (Splitwise's high-end pool).
    PrefillOnly,
    /// Decode-only (Splitwise's low-end pool).
    DecodeOnly,
    /// Out of service: a device of its primary TP group died (cluster
    /// churn). Down instances schedule nothing and accept no routes; a
    /// later `Join` of the lost device may revive them.
    Down,
}

/// One pipeline stage of an instance: the primary TP group plus any
/// attention workers pooled behind it (Hetis; empty for baselines).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageTopo {
    /// Primary TP group and its layer count.
    pub primary: StageConfig,
    /// Attention workers multiplexed by this stage (decode attention +
    /// KV hosting only).
    pub attention_workers: Vec<DeviceId>,
}

impl StageTopo {
    /// A stage with no attention workers.
    pub fn plain(primary: StageConfig) -> Self {
        StageTopo {
            primary,
            attention_workers: Vec::new(),
        }
    }

    /// All devices that can hold this stage's KV or compute its attention:
    /// primary TP group first, then attention workers. Borrows the two
    /// public lists, which stay the only record of the stage's devices.
    pub fn attention_devices(&self) -> impl Iterator<Item = DeviceId> + Clone + '_ {
        self.primary
            .devices
            .iter()
            .chain(&self.attention_workers)
            .copied()
    }
}

/// One data-parallel serving instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstanceTopo {
    /// Pipeline stages in order.
    pub stages: Vec<StageTopo>,
    /// Phase role.
    pub role: InstanceRole,
}

impl InstanceTopo {
    /// Pipeline depth.
    pub fn depth(&self) -> usize {
        self.stages.len()
    }
}

/// A complete serving topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    /// The instances.
    pub instances: Vec<InstanceTopo>,
}

impl Topology {
    /// Indices of instances that accept new requests (route targets), in
    /// index order.
    pub fn entry_instances(&self) -> impl Iterator<Item = usize> + Clone + '_ {
        self.instances
            .iter()
            .enumerate()
            .filter(|(_, i)| i.role != InstanceRole::DecodeOnly && i.role != InstanceRole::Down)
            .map(|(k, _)| k)
    }
}

/// One step of a head-group migration: `groups` KV head groups of stage
/// `stage` move from `src` to `dst`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct GroupMove {
    /// Pipeline stage whose groups move.
    pub stage: u16,
    /// Device giving the groups up.
    pub src: DeviceId,
    /// Device receiving them.
    pub dst: DeviceId,
    /// KV head groups moved.
    pub groups: u32,
}

/// Where one request's query heads live, per pipeline stage:
/// `per_stage[s]` lists `(device, query_heads)` with heads summing to the
/// model's head count and each entry a multiple of the GQA ratio.
///
/// Baselines use [`HeadPlacement::stage_local`]; Hetis builds these from
/// the dispatch LP.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeadPlacement {
    /// Per stage: (device, query heads) with nonzero head counts only.
    pub per_stage: Vec<Vec<(DeviceId, u32)>>,
}

impl HeadPlacement {
    /// The conventional TP placement: each stage's heads split evenly
    /// across its primary devices.
    pub fn stage_local(stages: &[StageTopo], num_heads: u32) -> Self {
        let per_stage = stages
            .iter()
            .map(|s| {
                let tp = s.primary.tp() as u32;
                let per = num_heads / tp;
                s.primary
                    .devices
                    .iter()
                    .map(|&d| (d, per))
                    .collect::<Vec<_>>()
            })
            .collect();
        HeadPlacement { per_stage }
    }

    /// Total heads in stage `s`.
    pub fn heads_in_stage(&self, s: usize) -> u32 {
        self.per_stage[s].iter().map(|&(_, h)| h).sum()
    }

    /// Heads of stage `s` on `device` (0 if absent).
    pub fn heads_on(&self, s: usize, device: DeviceId) -> u32 {
        self.per_stage[s]
            .iter()
            .find(|&&(d, _)| d == device)
            .map(|&(_, h)| h)
            .unwrap_or(0)
    }

    /// Devices used anywhere in the placement, deduplicated, sorted.
    pub fn devices(&self) -> Vec<DeviceId> {
        let mut v: Vec<DeviceId> = self
            .per_stage
            .iter()
            .flat_map(|s| s.iter().map(|&(d, _)| d))
            .collect();
        v.sort();
        v.dedup();
        v
    }

    /// The §6 Hauler: the head-group moves that turn this placement into
    /// `new`, for a model with `r` query heads per KV head group. Only
    /// groups whose device changed move; the overlap stays in place.
    ///
    /// Stages are planned in order, and a stage's groups never leave it.
    /// Within a stage, the devices that lose groups and the devices that
    /// gain groups are each taken in ascending `DeviceId` order and
    /// paired off: every step moves as many groups as both sides of the
    /// current pair still have. No move loops back, and each device's
    /// groups sent minus groups received equals its loss. Both
    /// placements must have the same stages and, per stage, the same
    /// head total (as [`HeadPlacement::validate`] checks).
    pub(crate) fn moves_to(&self, new: &HeadPlacement, r: u32) -> Vec<GroupMove> {
        assert_eq!(
            self.per_stage.len(),
            new.per_stage.len(),
            "placements differ in depth"
        );
        let mut moves = Vec::new();
        for s in 0..self.per_stage.len() {
            let mut devs: Vec<DeviceId> = self.per_stage[s]
                .iter()
                .chain(&new.per_stage[s])
                .map(|&(d, _)| d)
                .collect();
            devs.sort();
            devs.dedup();
            let (mut losses, mut gains) = (Vec::new(), Vec::new());
            for d in devs {
                let (before, after) = (self.heads_on(s, d) / r, new.heads_on(s, d) / r);
                if before > after {
                    losses.push((d, before - after));
                } else if after > before {
                    gains.push((d, after - before));
                }
            }
            let (mut i, mut j) = (0, 0);
            while i < losses.len() && j < gains.len() {
                let groups = losses[i].1.min(gains[j].1);
                moves.push(GroupMove {
                    stage: s as u16,
                    src: losses[i].0,
                    dst: gains[j].0,
                    groups,
                });
                losses[i].1 -= groups;
                gains[j].1 -= groups;
                if losses[i].1 == 0 {
                    i += 1;
                }
                if gains[j].1 == 0 {
                    j += 1;
                }
            }
            debug_assert!(
                i == losses.len() && j == gains.len(),
                "stage {s}: head totals differ"
            );
        }
        moves
    }

    /// Validates the placement against head count and group ratio.
    pub fn validate(&self, num_heads: u32, r: u32) -> Result<(), String> {
        for (s, stage) in self.per_stage.iter().enumerate() {
            let sum: u32 = stage.iter().map(|&(_, h)| h).sum();
            if sum != num_heads {
                return Err(format!("stage {s}: {sum} heads, expected {num_heads}"));
            }
            for &(d, h) in stage {
                if h == 0 {
                    return Err(format!("stage {s}: zero-head entry on {d}"));
                }
                if h % r != 0 {
                    return Err(format!(
                        "stage {s}: {h} heads on {d} not a multiple of r={r}"
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn stage(devs: &[u32], layers: u32) -> StageTopo {
        StageTopo::plain(StageConfig {
            devices: devs.iter().map(|&i| DeviceId(i)).collect(),
            layers,
        })
    }

    #[test]
    fn stage_local_placement() {
        let stages = vec![stage(&[0, 1], 20), stage(&[2, 3], 20)];
        let p = HeadPlacement::stage_local(&stages, 40);
        assert_eq!(p.heads_in_stage(0), 40);
        assert_eq!(p.heads_on(0, DeviceId(0)), 20);
        assert_eq!(p.heads_on(0, DeviceId(2)), 0);
        assert_eq!(p.heads_on(1, DeviceId(2)), 20);
        p.validate(40, 1).unwrap();
        assert_eq!(p.devices().len(), 4);
    }

    #[test]
    fn validate_catches_bad_sum_and_ratio() {
        let p = HeadPlacement {
            per_stage: vec![vec![(DeviceId(0), 30), (DeviceId(1), 20)]],
        };
        assert!(p.validate(40, 1).is_err());
        let p2 = HeadPlacement {
            per_stage: vec![vec![(DeviceId(0), 36), (DeviceId(1), 28)]],
        };
        // 64 heads, r=8: 36 not a multiple of 8.
        assert!(p2.validate(64, 8).is_err());
        let p3 = HeadPlacement {
            per_stage: vec![vec![(DeviceId(0), 32), (DeviceId(1), 32)]],
        };
        p3.validate(64, 8).unwrap();
    }

    #[test]
    fn entry_instances_exclude_decode_only() {
        let topo = Topology {
            instances: vec![
                InstanceTopo {
                    stages: vec![stage(&[0], 40)],
                    role: InstanceRole::PrefillOnly,
                },
                InstanceTopo {
                    stages: vec![stage(&[1], 40)],
                    role: InstanceRole::DecodeOnly,
                },
            ],
        };
        assert_eq!(topo.entry_instances().collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn attention_devices_order() {
        let mut s = stage(&[0, 1], 40);
        s.attention_workers = vec![DeviceId(5), DeviceId(6)];
        assert_eq!(
            s.attention_devices().collect::<Vec<_>>(),
            vec![DeviceId(0), DeviceId(1), DeviceId(5), DeviceId(6)]
        );
    }

    fn one_stage(entries: &[(u32, u32)]) -> HeadPlacement {
        HeadPlacement {
            per_stage: vec![entries.iter().map(|&(d, h)| (DeviceId(d), h)).collect()],
        }
    }

    fn mv(stage: u16, src: u32, dst: u32, groups: u32) -> GroupMove {
        GroupMove {
            stage,
            src: DeviceId(src),
            dst: DeviceId(dst),
            groups,
        }
    }

    #[test]
    fn identical_placements_no_migration() {
        let p = one_stage(&[(0, 32), (8, 32)]);
        assert!(p.moves_to(&p, 8).is_empty());
        // Entry order is not a move.
        assert!(p.moves_to(&one_stage(&[(8, 32), (0, 32)]), 8).is_empty());
    }

    #[test]
    fn partial_shift_moves_only_difference() {
        // 64 heads, r = 8: two of dev 0's six groups move to dev 8; the
        // other four stay put.
        let old = one_stage(&[(0, 48), (8, 16)]);
        let new = one_stage(&[(0, 32), (8, 32)]);
        assert_eq!(old.moves_to(&new, 8), vec![mv(0, 0, 8, 2)]);
    }

    #[test]
    fn full_shift_moves_everything() {
        let old = one_stage(&[(0, 64)]);
        let new = one_stage(&[(8, 64)]);
        assert_eq!(old.moves_to(&new, 8), vec![mv(0, 0, 8, 8)]);
    }

    #[test]
    fn pairs_within_each_stage_in_device_order() {
        // Stage 0: devs 1, 5, 9 lose 3, 2, 3 groups; devs 2 and 7 gain 4
        // each. Stage 1: dev 2 loses 4 groups to dev 1. Stage 1's loss
        // never pairs with stage 0's gains, even though dev 2 gains there.
        let old = HeadPlacement {
            per_stage: vec![
                vec![(DeviceId(9), 24), (DeviceId(1), 24), (DeviceId(5), 16)],
                vec![(DeviceId(2), 64)],
            ],
        };
        let new = HeadPlacement {
            per_stage: vec![
                vec![(DeviceId(7), 32), (DeviceId(2), 32)],
                vec![(DeviceId(1), 32), (DeviceId(2), 32)],
            ],
        };
        assert_eq!(
            old.moves_to(&new, 8),
            vec![
                mv(0, 1, 2, 3),
                mv(0, 5, 2, 1),
                mv(0, 5, 7, 1),
                mv(0, 9, 7, 3),
                mv(1, 2, 1, 4),
            ]
        );
    }

    /// A stage from each group's device: `r` heads per group, entries in
    /// first-seen order.
    fn stage_of(devices: &[u32], r: u32) -> Vec<(DeviceId, u32)> {
        let mut out: Vec<(DeviceId, u32)> = Vec::new();
        for &d in devices {
            match out.iter_mut().find(|(x, _)| x.0 == d) {
                Some(e) => e.1 += r,
                None => out.push((DeviceId(d), r)),
            }
        }
        out
    }

    proptest! {
        /// Over 1-4 stages drawing from one pool of six devices, the plan
        /// carries exactly the groups that changed device: per (stage,
        /// device), groups sent minus groups received is its loss; every
        /// move goes from a device that loses groups in its stage to one
        /// that gains there; the moved total is the sum of the gains; and
        /// planning again gives the same plan.
        #[test]
        fn migration_plan_exactness(
            r in 1u32..9,
            groups in 1usize..9,
            stages in collection::vec(
                (collection::vec(0u32..6, 8), collection::vec(0u32..6, 8)),
                1..5,
            ),
        ) {
            let old = HeadPlacement {
                per_stage: stages.iter().map(|(o, _)| stage_of(&o[..groups], r)).collect(),
            };
            let new = HeadPlacement {
                per_stage: stages.iter().map(|(_, n)| stage_of(&n[..groups], r)).collect(),
            };
            let heads = groups as u32 * r;
            prop_assert!(old.validate(heads, r).is_ok() && new.validate(heads, r).is_ok());

            let moves = old.moves_to(&new, r);
            prop_assert_eq!(&moves, &old.moves_to(&new, r));
            let mut gained = 0;
            for s in 0..stages.len() {
                for d in (0..6).map(DeviceId) {
                    let before = i64::from(old.heads_on(s, d) / r);
                    let after = i64::from(new.heads_on(s, d) / r);
                    let flow = |pick: fn(&GroupMove) -> DeviceId| -> i64 {
                        moves
                            .iter()
                            .filter(|m| usize::from(m.stage) == s && pick(m) == d)
                            .map(|m| i64::from(m.groups))
                            .sum()
                    };
                    prop_assert_eq!(flow(|m| m.src) - flow(|m| m.dst), before - after);
                    gained += (after - before).max(0);
                }
            }
            for m in &moves {
                let s = usize::from(m.stage);
                prop_assert!(s < stages.len() && m.groups > 0);
                prop_assert_ne!(m.src, m.dst);
                prop_assert!(old.heads_on(s, m.src) > new.heads_on(s, m.src));
                prop_assert!(new.heads_on(s, m.dst) > old.heads_on(s, m.dst));
            }
            prop_assert_eq!(moves.iter().map(|m| i64::from(m.groups)).sum::<i64>(), gained);
        }
    }
}
