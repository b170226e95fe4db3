//! The unit of work: one inference request.

use crate::slo::{SloClass, TenantId};

/// Cluster-unique request identifier, assigned in arrival order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RequestId(pub u64);

impl std::fmt::Display for RequestId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "req{}", self.0)
    }
}

/// Identity of one turn of a returning session, for prefix/KV reuse:
/// turn `t`'s prompt replays the *entire* context (prompt + completion)
/// of turn `t - 1` and appends new user tokens, so an engine holding
/// turn `t - 1`'s cache can skip prefilling the replayed prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionTurn {
    /// Stable session identity across the trace.
    pub session: u64,
    /// Zero-based turn number within the session.
    pub turn: u32,
}

/// One inference request as the serving system sees it.
///
/// `output_len` is the *ground-truth* generation length (how many tokens
/// the request will produce before EOS). The serving system does not get to
/// peek at it for scheduling — the paper stresses that output lengths are
/// unknowable in advance (§2.1) — it is only used by the simulator to know
/// when the request terminates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Request {
    /// Unique id.
    pub id: RequestId,
    /// Arrival time, seconds since trace start.
    pub arrival: f64,
    /// Prompt length in tokens.
    pub input_len: u32,
    /// Ground-truth number of generated tokens (≥ 1; the first is produced
    /// by the prefill iteration).
    pub output_len: u32,
    /// Service class the scheduler grades and prioritizes this request by
    /// ([`SloClass::BestEffort`] for untagged traces).
    pub class: SloClass,
    /// Issuing tenant (tenant 0 for single-tenant traces).
    pub tenant: TenantId,
    /// Multi-turn session tag (`None` for single-shot traffic). When
    /// `Some`, the prompt's leading tokens replay the previous turn's
    /// full context — what the prefix-reuse path can serve from cache.
    pub session: Option<SessionTurn>,
}

impl Request {
    /// Context length after `generated` tokens have been produced:
    /// prompt + generated.
    #[inline]
    pub fn context_len(&self, generated: u32) -> u32 {
        self.input_len + generated
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_arithmetic() {
        let r = Request {
            id: RequestId(1),
            arrival: 0.5,
            input_len: 100,
            output_len: 20,
            class: SloClass::default(),
            tenant: TenantId::default(),
            session: None,
        };
        assert_eq!(r.context_len(0), 100);
        assert_eq!(r.context_len(5), 105);
        assert_eq!(r.id.to_string(), "req1");
    }
}
