//! Criterion bench for Fig. 20/21: the HIGGS optimisation ablations
//! (parallel insertion, multiple mapping buckets, overflow blocks) and the
//! leaf-matrix-size parameter sweep, plus the `matrix_layout` group tracking
//! the raw compressed-matrix hot path (insert / edge probe / row sweep) that
//! the flat-slab storage rewrite optimises.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use higgs::{CompressedMatrix, HiggsConfig, HiggsSummary, ParallelHiggs};
use higgs_common::generator::{DatasetPreset, ExperimentScale, WorkloadBuilder};
use higgs_common::hashing::vertex_hash;
use higgs_common::TemporalGraphSummary;
use std::hint::black_box;

fn bench_parallel_insertion(c: &mut Criterion) {
    let stream = DatasetPreset::Lkml.generate(ExperimentScale::Smoke);
    let mut group = c.benchmark_group("fig20a_parallelisation");
    group.sample_size(10);
    group.throughput(Throughput::Elements(stream.len() as u64));
    group.bench_function("sequential", |b| {
        b.iter(|| {
            let mut s = HiggsSummary::new(HiggsConfig::paper_default());
            s.insert_all(stream.edges());
            black_box(s.leaf_count())
        })
    });
    group.bench_function("parallel_4_workers", |b| {
        b.iter(|| {
            let mut s = ParallelHiggs::new(HiggsConfig::paper_default(), 4);
            s.insert_all(stream.edges());
            s.flush();
            black_box(s.summary().leaf_count())
        })
    });
    group.finish();
}

fn bench_mmb_and_ob(c: &mut Criterion) {
    let stream = DatasetPreset::Lkml.generate(ExperimentScale::Smoke);
    let mut group = c.benchmark_group("fig20b_ablation_insertion");
    group.sample_size(10);
    group.throughput(Throughput::Elements(stream.len() as u64));
    for (label, config) in [
        ("full", HiggsConfig::paper_default()),
        ("no_mmb", HiggsConfig::paper_default().without_mmb()),
        (
            "no_ob",
            HiggsConfig::paper_default().without_overflow_blocks(),
        ),
    ] {
        group.bench_function(label, |b| {
            b.iter(|| {
                let mut s = HiggsSummary::new(config);
                s.insert_all(stream.edges());
                black_box(s.space_bytes())
            })
        });
    }
    group.finish();
}

fn bench_d1_sweep(c: &mut Criterion) {
    let stream = DatasetPreset::Lkml.generate(ExperimentScale::Smoke);
    let lq = stream.time_span().unwrap().len() / 8;
    let mut group = c.benchmark_group("fig21_d1_query_latency");
    group.sample_size(15);
    for d1 in [4u64, 16, 64] {
        let mut summary = HiggsSummary::new(HiggsConfig::paper_default().with_d1(d1));
        summary.insert_all(stream.edges());
        let mut builder = WorkloadBuilder::new(&stream, 46);
        let queries = builder.edge_queries(64, lq);
        group.bench_with_input(BenchmarkId::new("edge_query", d1), &queries, |b, qs| {
            b.iter(|| {
                let mut acc = 0u64;
                for q in qs {
                    acc += summary.edge_query(q.src, q.dst, q.range);
                }
                black_box(acc)
            })
        });
    }
    group.finish();
}

/// Pre-hashed operands for raw matrix operations: (addr_src, addr_dst,
/// fp_src, fp_dst), derived the same way the tree derives leaf operands so
/// the address/fingerprint distribution is realistic.
fn matrix_operands(side: u64, count: usize) -> Vec<(u64, u64, u32, u32)> {
    let fp_bits = 19u32;
    (0..count as u64)
        .map(|k| {
            let hs = vertex_hash(k % 997, 0);
            let hd = vertex_hash((k * 31 + 7) % 997, 1);
            (
                (hs >> fp_bits) % side,
                (hd >> fp_bits) % side,
                (hs & ((1 << fp_bits) - 1)) as u32,
                (hd & ((1 << fp_bits) - 1)) as u32,
            )
        })
        .collect()
}

fn bench_matrix_layout(c: &mut Criterion) {
    // Raw CompressedMatrix hot path at two sides: the leaf-scale d = 64 and
    // the aggregate-scale d = 256 (paper default b = 3, r = 4). Tracks the
    // flat-slab layout win independently of tree logic.
    let mut group = c.benchmark_group("matrix_layout");
    group.sample_size(15);
    for side in [64u64, 256] {
        let fill = (3 * side * side / 2) as usize; // ~50% utilisation
        let ops = matrix_operands(side, fill);
        group.throughput(Throughput::Elements(ops.len() as u64));
        group.bench_with_input(BenchmarkId::new("insert", side), &ops, |b, ops| {
            b.iter(|| {
                let mut m = CompressedMatrix::new(side, 1, 3, 4);
                for &(a_s, a_d, f_s, f_d) in ops {
                    black_box(m.try_insert(a_s, a_d, f_s, f_d, Some(0), 1));
                }
                black_box(m.stored())
            })
        });
        let mut filled = CompressedMatrix::new(side, 1, 3, 4);
        for &(a_s, a_d, f_s, f_d) in &ops {
            filled.try_insert(a_s, a_d, f_s, f_d, Some(0), 1);
        }
        group.bench_with_input(BenchmarkId::new("edge_weight", side), &ops, |b, ops| {
            b.iter(|| {
                let mut acc = 0u64;
                for &(a_s, a_d, f_s, f_d) in ops {
                    acc += filled.edge_weight(a_s, a_d, f_s, f_d, None);
                }
                black_box(acc)
            })
        });
        let probes: Vec<_> = ops.iter().take(1_000).cloned().collect();
        group.throughput(Throughput::Elements(probes.len() as u64));
        group.bench_with_input(
            BenchmarkId::new("src_weight", side),
            &probes,
            |b, probes| {
                b.iter(|| {
                    let mut acc = 0u64;
                    for &(a_s, _, f_s, _) in probes {
                        acc += filled.src_weight(a_s, f_s, None);
                    }
                    black_box(acc)
                })
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_parallel_insertion,
    bench_mmb_and_ob,
    bench_d1_sweep,
    bench_matrix_layout
);
criterion_main!(benches);
