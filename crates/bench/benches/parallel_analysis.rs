//! Criterion benches for the parallel analysis engine: the Fig. 5
//! InverseMapping per-pixel batch at 1/2/4/8 workers, the tape-reuse
//! ablation (one warm arena vs a fresh tape per analysis), the
//! compiled-replay ablation (record-once / replay-many vs re-recording)
//! at a single worker, the lane-replay ablation (1/2/4/8 replay lanes
//! per compiled-trace walk, plus a Black–Scholes book at width 4), the DCT lane-sweep layer (forward replay and
//! reverse sweep of one 4-block lane block, timed apart), the Fig. 7
//! sweep layer (`taskwait` dispatch alone, the DCT tasked and
//! perforated kernels, and N-body tasked at ratio 0), the significance
//! graph layers (a DCT full report, S4 simplify and S5 partition on it),
//! and the scorpio-obs overhead check (the same
//! analysis batch with tracing disabled vs enabled — disabled must be
//! within noise of the pre-instrumentation baseline).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use scorpio_adjoint::{AdjointDemand, CompiledTape, LaneReplayBuffers, NodeId, Tape};
use scorpio_core::{Analysis, AnalysisArena, ParallelAnalysis, ReplayOrRecord, DEFAULT_LANES};
use scorpio_interval::Interval;
use scorpio_kernels::dct::{self, BLOCK, QUANT};
use scorpio_kernels::fisheye::{
    analysis_inverse_mapping, analysis_inverse_mapping_grid_lanes, analysis_inverse_mapping_in,
    InverseMapping, Lens,
};
use scorpio_kernels::{blackscholes, nbody, Kernel};
use scorpio_quality::SyntheticImage;
use scorpio_runtime::{Executor, TaskCtx, TaskGroup};

fn bench_grid_scaling(c: &mut Criterion) {
    let lens = Lens::for_image(1280, 960);
    let mut group = c.benchmark_group("parallel_grid");
    for threads in [1usize, 2, 4, 8] {
        let engine = ParallelAnalysis::new(threads);
        group.bench_with_input(
            BenchmarkId::new("fig5_32x24", threads),
            &threads,
            |b, _| {
                b.iter(|| {
                    black_box(
                        analysis_inverse_mapping_grid_lanes::<DEFAULT_LANES>(
                            &lens, 32, 24, &engine,
                        )
                        .unwrap(),
                    )
                })
            },
        );
    }
    group.finish();
}

fn bench_tape_reuse(c: &mut Criterion) {
    let lens = Lens::for_image(1280, 960);
    let mut group = c.benchmark_group("tape_reuse");
    // 64 analyses along the image's horizontal midline per iteration.
    let pixels: Vec<f64> = (0..64).map(|i| 10.0 + i as f64 * 19.0).collect();
    group.bench_function("fresh_tape", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for &u in &pixels {
                acc += analysis_inverse_mapping(&lens, u, 480.0).unwrap();
            }
            black_box(acc)
        })
    });
    group.bench_function("arena_reuse", |b| {
        let mut arena = AnalysisArena::new();
        b.iter(|| {
            let mut acc = 0.0;
            for &u in &pixels {
                acc += analysis_inverse_mapping_in(&mut arena, &lens, u, 480.0).unwrap();
            }
            black_box(acc)
        })
    });
    group.finish();
}

fn bench_compiled_replay(c: &mut Criterion) {
    let lens = Lens::for_image(1280, 960);
    let mut group = c.benchmark_group("compiled_replay");
    // Same 64-analysis midline batch as `tape_reuse`, so the three
    // recording strategies are directly comparable across groups.
    let pixels: Vec<f64> = (0..64).map(|i| 10.0 + i as f64 * 19.0).collect();
    group.bench_function("rerecord", |b| {
        let mut arena = AnalysisArena::new();
        b.iter(|| {
            let mut acc = 0.0;
            for &u in &pixels {
                acc += analysis_inverse_mapping_in(&mut arena, &lens, u, 480.0).unwrap();
            }
            black_box(acc)
        })
    });
    group.bench_function("replay", |b| {
        let mut arena = AnalysisArena::new();
        let mut driver = ReplayOrRecord::new(Analysis::new());
        let kernel = InverseMapping { lens };
        b.iter(|| {
            let mut acc = 0.0;
            for &u in &pixels {
                let pixel = (u, 480.0);
                let vars = driver
                    .run_vars_in(&mut arena, &kernel.inputs(&pixel), |ctx| {
                        kernel.register(ctx, &pixel)
                    })
                    .unwrap();
                acc += ["u", "v"]
                    .iter()
                    .map(|n| vars.var(n).unwrap().significance_raw)
                    .sum::<f64>();
            }
            black_box(acc)
        })
    });
    group.finish();
}

/// Lane-replay ablation: the 32×24 Fig. 5 grid on one worker at
/// 1/2/4/8 replay lanes per compiled-trace walk. Width 1 is the
/// single-lane instance of the one interpreter (one walk per item), so
/// its row is the baseline the wider rows are judged against; results
/// are bit-identical at every width. A 4,096-option Black–Scholes book
/// at width 4 times the transcendental-heavy kernel.
fn bench_lane_replay(c: &mut Criterion) {
    let lens = Lens::for_image(1280, 960);
    let engine = ParallelAnalysis::new(1);
    let mut group = c.benchmark_group("lane_replay");
    macro_rules! lane_case {
        ($lanes:literal) => {
            group.bench_with_input(
                BenchmarkId::new("fig5_32x24", $lanes),
                &$lanes,
                |b, _| {
                    b.iter(|| {
                        black_box(
                            analysis_inverse_mapping_grid_lanes::<$lanes>(&lens, 32, 24, &engine)
                                .unwrap(),
                        )
                    })
                },
            );
        };
    }
    lane_case!(1);
    lane_case!(2);
    lane_case!(4);
    lane_case!(8);
    // Black–Scholes, the kernel behind most of the offline pipeline's
    // analysis stage: a seeded book at the default width, one worker;
    // one iteration is ~7 ms, so take more samples than the default.
    let options = blackscholes::generate_options(4096, 42);
    group.sample_size(50);
    group.bench_function("blackscholes_4096/4", |b| {
        b.iter(|| black_box(blackscholes::analysis_options_lanes::<4>(&options, &engine).unwrap()))
    });
    group.finish();
}

/// Records the op sequence of `dct::register_block` (forward DCT,
/// quant/dequant surrogate, inverse DCT, min/max clip; 25,154 nodes)
/// straight onto an interval tape, returning the registered nodes
/// (pixels, coefficients, outputs) and the output seeds.
fn record_dct_block(tape: &Tape<Interval>, radius: f64) -> (Vec<NodeId>, Vec<(NodeId, Interval)>) {
    let basis = |u: usize, x: usize| {
        let alpha = if u == 0 { (1.0f64 / 8.0).sqrt() } else { (2.0f64 / 8.0).sqrt() };
        alpha * ((2 * x + 1) as f64 * u as f64 * std::f64::consts::PI / 16.0).cos()
    };
    let pixels: Vec<_> = dct::block_inputs(&dct::natural_test_block(), radius)
        .into_iter()
        .map(|p| tape.var(p))
        .collect();
    let mut registered: Vec<NodeId> = pixels.iter().map(|p| p.id()).collect();
    let mut coeffs = Vec::with_capacity(BLOCK * BLOCK);
    for (v, quant_row) in QUANT.iter().enumerate() {
        for (u, &q) in quant_row.iter().enumerate() {
            let mut acc = tape.constant(Interval::point(0.0));
            for y in 0..BLOCK {
                for x in 0..BLOCK {
                    acc = acc + pixels[y * BLOCK + x] * (basis(v, y) * basis(u, x));
                }
            }
            let c = (acc / q) * q;
            registered.push(c.id());
            coeffs.push(c);
        }
    }
    let lo = tape.constant(Interval::point(0.0));
    let hi = tape.constant(Interval::point(255.0));
    let mut seeds = Vec::with_capacity(BLOCK * BLOCK);
    for y in 0..BLOCK {
        for x in 0..BLOCK {
            let mut acc = tape.constant(Interval::point(0.0));
            for v in 0..BLOCK {
                for u in 0..BLOCK {
                    acc = acc + coeffs[v * BLOCK + u] * (basis(v, y) * basis(u, x));
                }
            }
            let px = acc.min(hi).max(lo);
            registered.push(px.id());
            seeds.push((px.id(), Interval::ONE));
        }
    }
    (registered, seeds)
}

/// The sweep layer alone: one 4-block DCT lane block at pixel radius 1,
/// forward replay and reverse sweep timed apart; the reverse sweep for
/// the registered nodes only (a rows-only report, the serve default)
/// and for every node (a full report).
fn bench_dct_lane_sweep(c: &mut Criterion) {
    let tape = Tape::<Interval>::new();
    let (registered, seeds) = record_dct_block(&tape, 1.0);
    let compiled = CompiledTape::compile(&tape);
    let mut blocks = [dct::natural_test_block(); 4];
    for (i, block) in blocks.iter_mut().enumerate() {
        for p in block.iter_mut().flatten() {
            *p = (*p + 13.0 * i as f64).min(255.0);
        }
    }
    let per_block: Vec<Vec<Interval>> = blocks.iter().map(|b| dct::block_inputs(b, 1.0)).collect();
    let staging: Vec<[Interval; 4]> = (0..compiled.input_count())
        .map(|s| std::array::from_fn(|l| per_block[l][s]))
        .collect();
    let mut buf = LaneReplayBuffers::<Interval, 4>::new();
    let mut group = c.benchmark_group("dct_lane_sweep");
    // Median of many single-sweep samples: one sweep is ~2 ms.
    group.sample_size(200);
    group.bench_function("forward", |b| {
        b.iter(|| compiled.replay_lanes(black_box(&staging), &mut buf).unwrap())
    });
    for (name, demand) in [
        ("reverse_registered", AdjointDemand::Listed(&registered)),
        ("reverse_full", AdjointDemand::All),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                compiled.adjoints_into_lanes(black_box(&seeds), demand, &mut buf);
                buf.adjoint(registered[0], 0)
            })
        });
    }
    group.finish();
}

/// The significance-graph layers, the in-process twins of perfbench's
/// `core.session.record_us.dct`, `core.workflow.simplify_ms.dct` and
/// `core.workflow.partition_ms.dct`: one DCT full report recorded into
/// a warm arena (recording, reverse sweep and graph assembly), S4
/// `simplified()` on its graph, and S5 `partition()` on the result.
fn bench_report_graph(c: &mut Criterion) {
    scorpio_obs::disable();
    let block = dct::natural_test_block();
    let mut arena = AnalysisArena::new();
    let report = dct::analysis_in(&mut arena, &block, 8.0).unwrap();
    let simplified = report.graph().simplified();
    let delta = Analysis::new().delta();
    let mut group = c.benchmark_group("report_graph");
    group.sample_size(100);
    group.bench_function("dct_record", |b| {
        b.iter(|| black_box(dct::analysis_in(&mut arena, black_box(&block), 8.0).unwrap()))
    });
    group.bench_function("dct_simplify", |b| {
        b.iter(|| black_box(report.graph().simplified()))
    });
    group.bench_function("dct_partition", |b| {
        b.iter(|| black_box(simplified.partition(black_box(delta))))
    });
    group.finish();
}

/// The Fig. 7 sweep layer, untraced: the runtime's per-task cost alone
/// (a `taskwait` over N-body's group size of no-op tasks on one worker,
/// half of them approximate) and the DCT kernel bodies it dispatches,
/// tasked and perforated, at ratio 0.5 on a 256² image.
fn bench_taskwait(c: &mut Criterion) {
    scorpio_obs::disable();
    let mut group = c.benchmark_group("taskwait");
    // Median of many samples: one N-body-sized group is ~1 ms.
    group.sample_size(100);
    let one = Executor::new(1);
    group.bench_function("empty_13824", |b| {
        b.iter(|| {
            let mut tasks = TaskGroup::new("empty");
            for i in 0..13_824u32 {
                tasks.spawn(
                    f64::from(i % 97) / 97.0,
                    |ctx: &TaskCtx| ctx.count_accurate_ops(1),
                    Some(|ctx: &TaskCtx| ctx.count_approx_ops(1)),
                );
            }
            tasks.taskwait(&one, 0.5)
        })
    });
    let img = SyntheticImage::ValueNoise.render(256, 256, 202);
    group.bench_function("dct_tasked_256", |b| {
        b.iter(|| dct::tasked(black_box(&img), &one, 0.5))
    });
    group.bench_function("dct_perforated_256", |b| {
        b.iter(|| dct::perforated(black_box(&img), 0.5))
    });
    // The overhead-bound sweep case: N-body on the 8³ evaluation lattice
    // (13,824 tasks per force evaluation, five evaluations) at ratio 0,
    // where nearly every task runs its cheap approximate body.
    let lattice = nbody::Params {
        edge: 8,
        ..nbody::Params::evaluation()
    };
    group.bench_function("nbody_tasked_r0", |b| {
        b.iter(|| nbody::tasked(black_box(&lattice), &one, 0.0))
    });
    group.finish();
}

/// Observability overhead: the identical 64-analysis batch with the
/// `scorpio-obs` layer off (the default — every instrumentation site
/// is a single relaxed atomic load) and on (spans + counters recorded
/// into the global sink). The `obs_disabled` case is the acceptance
/// gate: it must sit within ~2% of the pre-instrumentation baseline.
fn bench_obs_overhead(c: &mut Criterion) {
    let lens = Lens::for_image(1280, 960);
    let mut group = c.benchmark_group("obs_overhead");
    let pixels: Vec<f64> = (0..64).map(|i| 10.0 + i as f64 * 19.0).collect();
    scorpio_obs::disable();
    scorpio_obs::reset();
    group.bench_function("obs_disabled", |b| {
        let mut arena = AnalysisArena::new();
        b.iter(|| {
            let mut acc = 0.0;
            for &u in &pixels {
                acc += analysis_inverse_mapping_in(&mut arena, &lens, u, 480.0).unwrap();
            }
            black_box(acc)
        })
    });
    group.bench_function("obs_enabled", |b| {
        let mut arena = AnalysisArena::new();
        scorpio_obs::enable();
        b.iter(|| {
            // Keep the sink bounded: drain the recorded events each
            // iteration so the bench measures recording, not Vec growth.
            scorpio_obs::take_events();
            let mut acc = 0.0;
            for &u in &pixels {
                acc += analysis_inverse_mapping_in(&mut arena, &lens, u, 480.0).unwrap();
            }
            black_box(acc)
        });
        scorpio_obs::disable();
        scorpio_obs::reset();
    });
    // Event emission in isolation, through the emitter the daemon
    // calls once per request: with tracing disabled each call is one
    // relaxed atomic load and an early return, so the disabled case
    // must be within noise of doing nothing at all. The enabled case
    // records 64 summaries into the event log and drains it each
    // iteration, so it measures recording, not the full-log drop path.
    let taskwait_events = || {
        for i in 0..64u64 {
            scorpio_obs::taskwait_event(black_box("bench"), 0.5, 0.5, black_box(i), 1, 0, 100);
        }
    };
    group.bench_function("taskwait_event_disabled", |b| {
        scorpio_obs::disable();
        b.iter(taskwait_events)
    });
    group.bench_function("taskwait_event_enabled", |b| {
        scorpio_obs::enable();
        b.iter(|| {
            scorpio_obs::take_task_events();
            taskwait_events()
        });
        scorpio_obs::disable();
        scorpio_obs::reset();
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_grid_scaling,
    bench_tape_reuse,
    bench_compiled_replay,
    bench_lane_replay,
    bench_dct_lane_sweep,
    bench_report_graph,
    bench_taskwait,
    bench_obs_overhead
);
criterion_main!(benches);
