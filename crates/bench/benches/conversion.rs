//! Experiment P4: throughput of the conversion algorithms.
//!
//! Measures Algorithm 1 (dataflow → Gamma) and Algorithm 2's stitching
//! (Gamma → dataflow) over random DAGs of growing size, plus both on the
//! paper's own figures. The paper gives no conversion-cost numbers; the
//! expectation (harness step P4) is near-linear growth in nodes+edges.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gammaflow_bench::fixtures;
use gammaflow_core::{dataflow_to_gamma, gamma_to_dataflow};
use gammaflow_workloads::{random_dag, DagParams};

fn bench_algorithm1(c: &mut Criterion) {
    let mut group = c.benchmark_group("algorithm1_df_to_gamma");
    for nodes in [100usize, 1_000, 10_000] {
        // width*layers + roots + sinks ≈ nodes.
        let width = (nodes / 20).max(1);
        let params = DagParams {
            roots: width.max(2),
            layers: 18,
            width,
            range: 1000,
        };
        let dag = random_dag(42, &params);
        let n = dag.graph.node_count();
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &dag.graph, |b, g| {
            b.iter(|| dataflow_to_gamma(g).unwrap())
        });
    }
    group.finish();
}

fn bench_algorithm2(c: &mut Criterion) {
    let mut group = c.benchmark_group("algorithm2_gamma_to_df");
    for nodes in [100usize, 1_000, 10_000] {
        let width = (nodes / 20).max(1);
        let params = DagParams {
            roots: width.max(2),
            layers: 18,
            width,
            range: 1000,
        };
        let dag = random_dag(42, &params);
        let conv = dataflow_to_gamma(&dag.graph).unwrap();
        let n = dag.graph.node_count();
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(
            BenchmarkId::from_parameter(n),
            &(conv.program, conv.initial),
            |b, (prog, init)| b.iter(|| gamma_to_dataflow(prog, init).unwrap()),
        );
    }
    group.finish();
}

fn bench_paper_figures(c: &mut Criterion) {
    let mut group = c.benchmark_group("paper_figures");
    let f1 = fixtures::fig1();
    group.bench_function("fig1_to_gamma", |b| {
        b.iter(|| dataflow_to_gamma(&f1).unwrap())
    });
    let f2 = fixtures::fig2(5, 3, 10);
    group.bench_function("fig2_to_gamma", |b| {
        b.iter(|| dataflow_to_gamma(&f2).unwrap())
    });
    let conv = dataflow_to_gamma(&f2).unwrap();
    group.bench_function("fig2_roundtrip_back", |b| {
        b.iter(|| gamma_to_dataflow(&conv.program, &conv.initial).unwrap())
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_algorithm1,
    bench_algorithm2,
    bench_paper_figures
);
criterion_main!(benches);
