//! Splitwise end to end on the Fig. 8 ShareGPT trace at 12 req/s: the
//! decode pool runs out of KV, so recompute preemption and the
//! prefill → decode hand-off both run under every prefill mode.

use hetis_baselines::SplitwisePolicy;
use hetis_cluster::cluster::paper_cluster;
use hetis_engine::{run, EngineConfig, RunReport};
use hetis_model::llama_13b;
use hetis_workload::{DatasetKind, Poisson, Trace, TraceBuilder};

/// The Fig. 8 quick cell SG-12: ShareGPT at 12 req/s over 40 s.
fn sg12() -> Trace {
    TraceBuilder::new(DatasetKind::ShareGpt, 4242).build(&Poisson::new(12.0), 40.0)
}

fn serve(trace: &Trace, prefill_chunk_tokens: Option<u64>, fused: bool) -> RunReport {
    let cfg = EngineConfig {
        drain_timeout: 180.0,
        prefill_chunk_tokens,
        fused_microbatches: fused,
        ..EngineConfig::default()
    };
    run(
        SplitwisePolicy::new(),
        &paper_cluster(),
        &llama_13b(),
        cfg,
        trace,
    )
}

/// A request preempted on the decode-only instance must re-prefill where
/// arrivals go: a decode-only instance never admits from its waiting
/// queue, so a victim re-queued there would wait until the drain deadline.
#[test]
fn decode_pool_preemption_victims_finish() {
    let trace = sg12();
    let r = serve(&trace, None, false);
    assert!(r.preemptions > 0, "the trace must exercise preemption");
    assert_eq!(r.unfinished, 0, "{} preemptions", r.preemptions);
    assert_eq!(r.completed.len(), trace.len());
}

/// No Splitwise instance serves both phases, so fusing has nothing to
/// fuse: the one iteration former must reduce to the chunked schedule.
#[test]
fn fused_reduces_to_chunked_on_disaggregated_roles() {
    let trace = sg12();
    let atomic = serve(&trace, None, false);
    let chunked = serve(&trace, Some(512), false);
    let fused = serve(&trace, Some(512), true);
    for (mode, r) in [
        ("atomic", &atomic),
        ("chunked", &chunked),
        ("fused", &fused),
    ] {
        assert_eq!(r.unfinished, 0, "{mode} left requests unfinished");
        assert_eq!(r.completed.len(), trace.len(), "{mode}");
    }
    assert_eq!(fused.fused_iterations, 0);
    assert_eq!(fused.digest(), chunked.digest());
}
