//! Criterion benches for the analysis machinery itself: recording
//! overhead, reverse-sweep cost, Algorithm-1 graph transforms, and the
//! splitting/Monte-Carlo extensions.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use scorpio_adjoint::Tape;
use scorpio_core::{mc, Analysis};
use scorpio_interval::Interval;

/// A medium-size recording workload: an unrolled polynomial pipeline.
fn record_chain(tape: &Tape<Interval>, n: usize) -> scorpio_adjoint::Var<'_, Interval> {
    let x = tape.var(Interval::new(0.1, 0.9));
    let mut acc = tape.constant(Interval::ZERO);
    for i in 0..n {
        let t = (x * (i as f64 / n as f64)).sin() * x.exp();
        acc = acc + t;
    }
    acc
}

fn bench_recording(c: &mut Criterion) {
    let mut group = c.benchmark_group("recording");
    for n in [100usize, 1000, 10_000] {
        group.bench_with_input(BenchmarkId::new("interval_tape", n), &n, |b, &n| {
            b.iter(|| {
                let tape = Tape::<Interval>::with_capacity(8 * n);
                black_box(record_chain(&tape, n).value())
            })
        });
        group.bench_with_input(BenchmarkId::new("f64_tape", n), &n, |b, &n| {
            b.iter(|| {
                let tape = Tape::<f64>::with_capacity(8 * n);
                let x = tape.var(0.5);
                let mut acc = tape.constant(0.0);
                for i in 0..n {
                    acc = acc + (x * (i as f64 / n as f64)).sin() * x.exp();
                }
                black_box(acc.value())
            })
        });
    }
    group.finish();
}

fn bench_adjoint_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("adjoint_sweep");
    for n in [1000usize, 10_000] {
        let tape = Tape::<Interval>::with_capacity(8 * n);
        let y = record_chain(&tape, n);
        group.bench_with_input(BenchmarkId::new("reverse", n), &n, |b, _| {
            b.iter(|| black_box(tape.adjoints(&[(y.id(), Interval::ONE)])))
        });
        group.bench_with_input(BenchmarkId::new("tangent", n), &n, |b, _| {
            let inputs = tape.inputs();
            b.iter(|| black_box(tape.tangents(&[(inputs[0], Interval::ONE)])))
        });
    }
    group.finish();
}

fn bench_full_analysis(c: &mut Criterion) {
    let mut group = c.benchmark_group("analysis");
    group.bench_function("maclaurin_n16", |b| {
        b.iter(|| {
            black_box(
                Analysis::new()
                    .run(|ctx| {
                        let x = ctx.input("x", -0.01, 0.99);
                        let mut acc = ctx.constant(0.0);
                        for i in 0..16 {
                            let t = x.powi(i);
                            ctx.intermediate(&t, format!("t{i}"));
                            acc = acc + t;
                        }
                        ctx.output(&acc, "y");
                        Ok(())
                    })
                    .unwrap(),
            )
        })
    });
    group.bench_function("workflow_simplify_partition", |b| {
        let report = Analysis::new()
            .run(|ctx| {
                let x = ctx.input("x", -0.01, 0.99);
                let mut acc = ctx.constant(0.0);
                for i in 0..64 {
                    acc = acc + x.powi(i);
                }
                ctx.output(&acc, "y");
                Ok(())
            })
            .unwrap();
        b.iter(|| black_box(report.graph().simplified().partition(1e-3)))
    });
    group.bench_function("mc_estimate_256", |b| {
        b.iter(|| {
            black_box(
                mc::estimate(256, 1, 1, |ctx| {
                    let x = ctx.input("x", 0.0, 1.0);
                    let y = (x.sin() + x.sqr()).exp();
                    ctx.output(&y, "y");
                    Ok(())
                })
                .unwrap(),
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench_recording, bench_adjoint_sweep, bench_full_analysis);
criterion_main!(benches);
