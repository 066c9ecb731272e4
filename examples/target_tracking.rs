//! Target-tracking data fusion on the parallel Gamma interpreter — the
//! application domain of the paper's reference [1], on synthetic
//! measurements (the original radar traces are not available).
//!
//! Sensor measurements of many targets are fused per-target (tag-grouped
//! reactions), then classified against an alert threshold. Stage 1 runs on
//! the shared-memory parallel interpreter to show worker scaling.
//!
//! ```sh
//! cargo run --release --example target_tracking
//! ```

use gammaflow::gamma::{run_parallel, run_pipeline, EngineConfig, Selection, SeqInterpreter};
use gammaflow::workloads::fusion_scenario;
use std::time::Instant;

fn main() {
    let targets = 64;
    let per_target = 256;
    let s = fusion_scenario(2024, targets, per_target);
    println!(
        "scenario: {targets} targets x {per_target} measurements = {} elements",
        s.initial.len()
    );

    // Reference: the whole pipeline sequentially.
    let t0 = Instant::now();
    let seq = run_pipeline(&s.pipeline, s.initial.clone(), &EngineConfig::default()).unwrap();
    let seq_time = t0.elapsed();
    println!(
        "sequential pipeline: {} firings in {seq_time:?}",
        seq.stats.firings_total()
    );
    assert_eq!(seq.multiset, s.expected);

    // Parallel fusion stage with increasing worker counts.
    let fuse_stage = &s.pipeline.stages[0];
    for workers in [1, 2, 4, 8] {
        let t0 = Instant::now();
        let par = run_parallel(
            fuse_stage,
            s.initial.clone(),
            &EngineConfig {
                selection: Selection::Seeded(7),
                ..EngineConfig::parallel(workers)
            },
        )
        .unwrap();
        let elapsed = t0.elapsed();
        println!(
            "fusion stage, {workers} worker(s): {} firings, {} claim races, {} snapshot checks, {elapsed:?}",
            par.exec.stats.firings_total(),
            par.par.claim_failures,
            par.par.snapshot_checks,
        );
        // Finish classification sequentially and verify.
        let classify = &s.pipeline.stages[1];
        let done = SeqInterpreter::with_seed(classify, par.exec.multiset, 0)
            .run()
            .unwrap();
        assert_eq!(done.multiset, s.expected, "{workers} workers");
    }

    let alerts = s
        .expected
        .iter()
        .filter(|e| e.label.as_str() == "alert")
        .count();
    println!("\ntracks: {targets}, alerts raised: {alerts}  — all engines agree");
}
