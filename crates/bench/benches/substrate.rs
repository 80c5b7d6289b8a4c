//! Micro-benchmarks of the substrate: raw simulation throughput, trace
//! generation speed, predictor prediction/training rates — the ablation
//! benches DESIGN.md calls out for the design choices (hashed perceptron
//! vs table sizes, graph build).

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};

use tlp_core::offchip_base::{OffChipPerceptron, OffChipPerceptronConfig};
use tlp_sim::engine::{CoreSetup, System};
use tlp_sim::SystemConfig;
use tlp_trace::catalog::{self, Scale};
use tlp_trace::gap::{Graph, GraphKind, GraphScale};
use tlp_trace::source::capture;
use tlp_trace::VecTrace;

fn substrate_benches(c: &mut Criterion) {
    let mut g = c.benchmark_group("substrate");
    g.sample_size(10);
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(3));

    // Simulation throughput: instructions per second of wall time.
    let workload = catalog::workload("bfs.kron", Scale::Tiny).expect("known");
    let records = capture(workload.as_ref(), 30_000);
    g.throughput(Throughput::Elements(20_000));
    g.bench_function("simulate_20k_instructions", |b| {
        b.iter_batched(
            || VecTrace::looping("bfs", records.clone()),
            |trace| {
                let mut sys = System::new(
                    SystemConfig::cascade_lake(1),
                    vec![CoreSetup::new(Box::new(trace))],
                );
                sys.run(5_000, 20_000)
            },
            BatchSize::SmallInput,
        );
    });

    // Trace generation throughput.
    g.throughput(Throughput::Elements(50_000));
    g.bench_function("generate_50k_records_gap", |b| {
        b.iter(|| capture(workload.as_ref(), 50_000));
    });

    // Graph construction.
    g.throughput(Throughput::Elements(1));
    g.bench_function("build_kron_tiny", |b| {
        b.iter(|| Graph::build(GraphKind::Kron, GraphScale::Tiny, 7));
    });

    // Perceptron predict+train rate (the TLP inner loop).
    g.throughput(Throughput::Elements(10_000));
    g.bench_function("offchip_perceptron_predict_train_10k", |b| {
        b.iter_batched(
            || OffChipPerceptron::new(OffChipPerceptronConfig::paper()),
            |mut p| {
                for i in 0..10_000u64 {
                    let (sum, idx) = p.predict(0x400 + (i % 16) * 4, i * 64);
                    p.train(&idx, sum, i % 3 == 0);
                }
                p
            },
            BatchSize::SmallInput,
        );
    });

    // LP residency predict+train rate (extension baseline inner loop).
    g.throughput(Throughput::Elements(10_000));
    g.bench_function("lp_predict_train_10k", |b| {
        use tlp_baselines::{Lp, LpConfig};
        use tlp_sim::hooks::{LoadCtx, OffChipPredictor};
        use tlp_sim::types::Level;
        b.iter_batched(
            || Lp::new(LpConfig::hpca22()),
            |mut lp| {
                for i in 0..10_000u64 {
                    let ctx = LoadCtx {
                        core: 0,
                        pc: 0x400,
                        vaddr: (i % 4096) * 64,
                        cycle: i,
                    };
                    let tag = lp.predict_load(&ctx);
                    let served = if i % 3 == 0 { Level::Dram } else { Level::L2 };
                    lp.train_load(&ctx, &tag, served);
                }
                lp
            },
            BatchSize::SmallInput,
        );
    });

    // Replacement-policy victim-selection rate (cache inner loop), one
    // measurement per policy.
    for kind in tlp_sim::replacement::ReplKind::ALL {
        g.throughput(Throughput::Elements(10_000));
        g.bench_function(format!("replacement_{}_10k", kind.name()), |b| {
            b.iter_batched(
                || kind.build(64, 8),
                |mut p| {
                    for i in 0..10_000usize {
                        let set = i % 64;
                        p.on_fill(set, i % 8);
                        let _ = p.victim(set, 8);
                    }
                    p
                },
                BatchSize::SmallInput,
            );
        });
    }

    g.finish();
}

criterion_group!(benches, substrate_benches);
criterion_main!(benches);
