//! Bit-identity contract of the record-once / replay-many engine:
//! replaying a compiled trace with fresh input boxes must produce the
//! **same bits** as re-recording the trace from scratch — for every
//! kernel, at any operating point. Replay is a pure latency
//! optimisation, never a semantic knob; comparisons go through
//! `f64::to_bits`, not approximate equality.
//!
//! Also pins the guard rails: a trace whose shape diverges (changed
//! shape key, changed input arity, resolved branch) must *fall back to
//! re-recording* — visible in [`ReplayStats`] — rather than replay a
//! wrong trace.

use proptest::prelude::*;
use scorpio::analysis::{
    Analysis, AnalysisArena, AnalysisError, Ctx, LaneScratch, ParallelAnalysis, ReplayOrRecord,
    Report, VarSignificances, DEFAULT_LANES,
};
use scorpio::interval::Interval;
use scorpio::kernels::sobel::Combine;
use scorpio::kernels::{blackscholes, dct, fisheye, maclaurin, sobel, Kernel};

/// Asserts two reports carry identical registered rows, bit for bit
/// (enclosures, interval adjoints, raw and normalized significances).
fn assert_reports_bit_equal(replayed: &Report, recorded: &Report) -> Result<(), TestCaseError> {
    prop_assert_eq!(replayed.tape_len(), recorded.tape_len());
    prop_assert_eq!(replayed.registered().len(), recorded.registered().len());
    for (a, b) in replayed.registered().iter().zip(recorded.registered()) {
        prop_assert_eq!(&a.name, &b.name);
        prop_assert_eq!(a.enclosure.inf().to_bits(), b.enclosure.inf().to_bits());
        prop_assert_eq!(a.enclosure.sup().to_bits(), b.enclosure.sup().to_bits());
        prop_assert_eq!(a.derivative.inf().to_bits(), b.derivative.inf().to_bits());
        prop_assert_eq!(a.derivative.sup().to_bits(), b.derivative.sup().to_bits());
        prop_assert_eq!(a.significance_raw.to_bits(), b.significance_raw.to_bits());
        prop_assert_eq!(a.significance.to_bits(), b.significance.to_bits());
    }
    Ok(())
}

/// The Listing-6 Maclaurin closure (shape keyed by the term count).
fn maclaurin_closure(n: usize) -> impl Fn(&Ctx<'_>) -> Result<(), AnalysisError> {
    move |ctx| {
        let x = ctx.input_centered("x", 0.0, 0.5); // overridden per item
        let mut result = ctx.constant(0.0);
        for i in 0..n {
            let term = x.powi(i as i32);
            ctx.intermediate(&term, format!("term{i}"));
            result = result + term;
        }
        ctx.output(&result, "result");
        Ok(())
    }
}

/// Raw summed significance of the two InverseMapping coordinate
/// inputs — what `fisheye::analysis_inverse_mapping` returns.
fn summed_uv(vars: &VarSignificances) -> f64 {
    let raw = |n: &str| vars.var(n).map(|r| r.significance_raw).unwrap_or(0.0);
    raw("u") + raw("v")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Maclaurin: a replay driver fed a stream of input boxes agrees
    /// bitwise with fresh per-item recordings.
    #[test]
    fn maclaurin_replay_bit_identity(
        x0 in -0.35f64..0.35,
        dx in 0.005f64..0.03,
        n in 2usize..10,
    ) {
        let x0s = [x0, x0 + dx, x0 - dx, x0 + 2.0 * dx];
        let mut driver = ReplayOrRecord::new(Analysis::new());
        let mut arena = AnalysisArena::new();
        for &x0 in &x0s {
            let inputs = [Interval::centered(x0, 0.5)];
            let replayed: Report = driver
                .run(Some(n as u64), &mut arena, &inputs, maclaurin_closure(n))
                .unwrap();
            let recorded = maclaurin::analysis(x0, n).unwrap();
            assert_reports_bit_equal(&replayed, &recorded)?;
        }
        prop_assert_eq!(driver.stats().records, 1);
        prop_assert_eq!(driver.stats().replays, x0s.len() as u64 - 1);
    }

    /// Fisheye InverseMapping: the replay entry point agrees bitwise
    /// with the fresh-recording entry point at every pixel.
    #[test]
    fn fisheye_replay_bit_identity(
        u0 in 0.0f64..128.0,
        v0 in 0.0f64..96.0,
        du in 1.0f64..40.0,
    ) {
        let pixels = [
            (u0, v0),
            ((u0 + du) % 128.0, (v0 + 0.5 * du) % 96.0),
            ((u0 + 2.0 * du) % 128.0, (v0 + du) % 96.0),
            ((u0 + 3.0 * du) % 128.0, (v0 + 1.5 * du) % 96.0),
        ];
        let lens = fisheye::Lens::for_image(128, 96);
        let kernel = fisheye::InverseMapping { lens };
        let mut driver = ReplayOrRecord::new(Analysis::new());
        let mut arena = AnalysisArena::new();
        for &(u, v) in &pixels {
            let replayed = summed_uv(
                &driver
                    .run_vars_in(&mut arena, &kernel.inputs(&(u, v)), |ctx| {
                        kernel.register(ctx, &(u, v))
                    })
                    .unwrap(),
            );
            let recorded = fisheye::analysis_inverse_mapping(&lens, u, v).unwrap();
            prop_assert_eq!(replayed.to_bits(), recorded.to_bits(), "pixel ({}, {})", u, v);
        }
        prop_assert_eq!(driver.stats().records, 1);
        prop_assert_eq!(driver.stats().fallbacks, 0);
    }

    /// Sobel combine: the batch entry point (replay inside) agrees
    /// bitwise with fresh recordings of the same operating points.
    #[test]
    fn sobel_replay_bit_identity(k in 2usize..14) {
        let points = sobel::analysis_combine_threaded(k, 1).unwrap();
        for (i, (&(sx, sy), lo)) in points.iter().zip(Combine::windows(k)).enumerate() {
            let report = Combine.report(&lo).unwrap();
            prop_assert_eq!(
                sx.to_bits(),
                report.var("tx").unwrap().significance_raw.to_bits(),
                "tx diverged at point {}", i
            );
            prop_assert_eq!(
                sy.to_bits(),
                report.var("ty").unwrap().significance_raw.to_bits(),
                "ty diverged at point {}", i
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// BlackScholes: the replayed option batch agrees bitwise with
    /// per-option arena re-recordings.
    #[test]
    fn blackscholes_replay_bit_identity(seed in 0u64..1000, n in 2usize..12) {
        let options = blackscholes::generate_options(n, seed);
        let engine = ParallelAnalysis::new(1);
        let replayed =
            blackscholes::analysis_options_lanes::<DEFAULT_LANES>(&options, &engine).unwrap();
        let mut arena = AnalysisArena::new();
        for (o, r) in options.iter().zip(&replayed) {
            let fresh = blackscholes::analysis_option_in(&mut arena, o).unwrap();
            for (block, (a, b)) in ["A", "B", "C", "D"]
                .iter()
                .zip([r.0, r.1, r.2, r.3].iter().zip([fresh.0, fresh.1, fresh.2, fresh.3]))
            {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "block {} diverged for {:?}", block, o);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// DCT: the replayed multi-block batch agrees bitwise with
    /// per-block arena re-recordings (the heaviest trace: ~10⁴ nodes).
    #[test]
    fn dct_replay_bit_identity(seed in 0u64..100, radius in 1.0f64..16.0) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let blocks: Vec<[[f64; dct::BLOCK]; dct::BLOCK]> = (0..2)
            .map(|_| {
                let mut b = [[0.0; dct::BLOCK]; dct::BLOCK];
                for row in &mut b {
                    for p in row.iter_mut() {
                        *p = rng.gen_range(0.0..=255.0);
                    }
                }
                b
            })
            .collect();
        let engine = ParallelAnalysis::new(1);
        let replayed = dct::analysis_blocks_lanes::<DEFAULT_LANES>(&blocks, radius, &engine).unwrap();
        let mut arena = AnalysisArena::new();
        for (block, map) in blocks.iter().zip(&replayed) {
            let report = dct::analysis_in(&mut arena, block, radius).unwrap();
            let reference = dct::coefficient_map(&report);
            for v in 0..dct::BLOCK {
                for u in 0..dct::BLOCK {
                    prop_assert_eq!(
                        map[v][u].to_bits(),
                        reference[v][u].to_bits(),
                        "c{}_{} diverged", v, u
                    );
                }
            }
        }
    }
}

/// Asserts two variable-row sets are identical, bit for bit.
fn assert_vars_bit_equal(
    lane: &VarSignificances,
    scalar: &VarSignificances,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(lane.tape_len(), scalar.tape_len());
    prop_assert_eq!(lane.registered().len(), scalar.registered().len());
    for (a, b) in lane.registered().iter().zip(scalar.registered()) {
        prop_assert_eq!(&a.name, &b.name);
        prop_assert_eq!(a.enclosure.inf().to_bits(), b.enclosure.inf().to_bits());
        prop_assert_eq!(a.enclosure.sup().to_bits(), b.enclosure.sup().to_bits());
        prop_assert_eq!(a.derivative.inf().to_bits(), b.derivative.inf().to_bits());
        prop_assert_eq!(a.derivative.sup().to_bits(), b.derivative.sup().to_bits());
        prop_assert_eq!(a.significance_raw.to_bits(), b.significance_raw.to_bits());
        prop_assert_eq!(a.significance.to_bits(), b.significance.to_bits());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Maclaurin, lane-blocked: keyed `run_block` over 4-wide blocks
    /// agrees bitwise with fresh per-item recordings. The first block
    /// warms up item by item (nothing is compiled yet); the second is
    /// served by one lane sweep.
    #[test]
    fn maclaurin_lane_replay_bit_identity(
        x0 in -0.35f64..0.35,
        dx in 0.005f64..0.03,
        n in 2usize..10,
    ) {
        const LANES: usize = 4;
        let x0s: Vec<f64> = (0..2 * LANES).map(|i| x0 + i as f64 * dx).collect();
        let mut driver = ReplayOrRecord::new(Analysis::new());
        let mut arena = AnalysisArena::new();
        let mut lanes = LaneScratch::<LANES>::new();
        let mut reports: Vec<Report> = Vec::new();
        for block in x0s.chunks(LANES) {
            driver
                .run_block(
                    Some(n as u64),
                    &mut arena,
                    &mut lanes,
                    block,
                    &|&x0| vec![Interval::centered(x0, 0.5)],
                    &|ctx, _| maclaurin_closure(n)(ctx),
                    &mut reports,
                )
                .unwrap();
        }
        for (&x0, replayed) in x0s.iter().zip(&reports) {
            let recorded = maclaurin::analysis(x0, n).unwrap();
            assert_reports_bit_equal(replayed, &recorded)?;
        }
        prop_assert_eq!(driver.stats().records, 1);
        prop_assert_eq!(driver.stats().lane_blocks, 1);
        prop_assert_eq!(driver.stats().lane_remainder, LANES as u64);
    }

    /// Fisheye grid: every lane width, 1 included, agrees bitwise with
    /// fresh per-pixel recordings (the grid is 15 pixels, so every width
    /// > 1 also exercises a trailing partial block).
    #[test]
    fn fisheye_lane_widths_bit_identity(focal in 40.0f64..200.0) {
        let lens = fisheye::Lens { focal, ..fisheye::Lens::for_image(64, 48) };
        let (cell_w, cell_h) = (lens.width as f64 / 5.0, lens.height as f64 / 3.0);
        let fresh: Vec<f64> = (0..3)
            .flat_map(|gy| (0..5).map(move |gx| (gx as f64 + 0.5, gy as f64 + 0.5)))
            .map(|(gx, gy)| fisheye::analysis_inverse_mapping(&lens, gx * cell_w, gy * cell_h))
            .collect::<Result<_, _>>()
            .unwrap();
        let engine = ParallelAnalysis::new(1);
        for sigs in [
            fisheye::analysis_inverse_mapping_grid_lanes::<1>(&lens, 5, 3, &engine).unwrap(),
            fisheye::analysis_inverse_mapping_grid_lanes::<2>(&lens, 5, 3, &engine).unwrap(),
            fisheye::analysis_inverse_mapping_grid_lanes::<4>(&lens, 5, 3, &engine).unwrap(),
            fisheye::analysis_inverse_mapping_grid_lanes::<8>(&lens, 5, 3, &engine).unwrap(),
        ] {
            prop_assert_eq!(fresh.len(), sigs.len());
            for (a, b) in fresh.iter().zip(&sigs) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    /// Sobel combine: the lane-batched entry point and a width-1 replay
    /// driver over the same operating points both agree bitwise with
    /// fresh per-point recordings.
    #[test]
    fn sobel_lane_vs_scalar_replay(k in 2usize..14) {
        let points = sobel::analysis_combine_threaded(k, 1).unwrap();
        let mut driver = ReplayOrRecord::new(Analysis::new());
        let mut arena = AnalysisArena::new();
        for (&(sx, sy), lo) in points.iter().zip(Combine::windows(k)) {
            let single = driver
                .run_vars_in(&mut arena, &Combine.inputs(&lo), |ctx| Combine.register(ctx, &lo))
                .unwrap();
            let fresh = Combine.report(&lo).unwrap();
            for name in ["tx", "ty"] {
                let want = fresh.var(name).unwrap().significance_raw.to_bits();
                prop_assert_eq!(single.var(name).unwrap().significance_raw.to_bits(), want);
            }
            prop_assert_eq!(sx.to_bits(), fresh.var("tx").unwrap().significance_raw.to_bits());
            prop_assert_eq!(sy.to_bits(), fresh.var("ty").unwrap().significance_raw.to_bits());
        }
        prop_assert_eq!(driver.stats().replays, points.len() as u64 - 1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// BlackScholes: every lane width, 1 included, prices the book to
    /// the bits of fresh per-option recordings (odd book sizes exercise
    /// the remainder path).
    #[test]
    fn blackscholes_lane_widths_bit_identity(seed in 0u64..1000, n in 2usize..12) {
        let options = blackscholes::generate_options(n, seed);
        let mut arena = AnalysisArena::new();
        let fresh: Vec<_> = options
            .iter()
            .map(|o| blackscholes::analysis_option_in(&mut arena, o).unwrap())
            .collect();
        let engine = ParallelAnalysis::new(1);
        for sigs in [
            blackscholes::analysis_options_lanes::<1>(&options, &engine).unwrap(),
            blackscholes::analysis_options_lanes::<4>(&options, &engine).unwrap(),
            blackscholes::analysis_options_lanes::<8>(&options, &engine).unwrap(),
        ] {
            prop_assert_eq!(fresh.len(), sigs.len());
            for (a, b) in fresh.iter().zip(&sigs) {
                prop_assert_eq!(a.0.to_bits(), b.0.to_bits());
                prop_assert_eq!(a.1.to_bits(), b.1.to_bits());
                prop_assert_eq!(a.2.to_bits(), b.2.to_bits());
                prop_assert_eq!(a.3.to_bits(), b.3.to_bits());
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// DCT: the width-1 and the 4-wide lane batches agree bitwise with
    /// fresh per-block recordings on the heaviest trace (5 blocks: one
    /// full 4-wide lane block plus a trailing remainder).
    #[test]
    fn dct_lane_widths_bit_identity(seed in 0u64..100, radius in 1.0f64..16.0) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let blocks: Vec<[[f64; dct::BLOCK]; dct::BLOCK]> = (0..5)
            .map(|_| {
                let mut b = [[0.0; dct::BLOCK]; dct::BLOCK];
                for row in &mut b {
                    for p in row.iter_mut() {
                        *p = rng.gen_range(0.0..=255.0);
                    }
                }
                b
            })
            .collect();
        let mut arena = AnalysisArena::new();
        let fresh: Vec<_> = blocks
            .iter()
            .map(|b| dct::coefficient_map(&dct::analysis_in(&mut arena, b, radius).unwrap()))
            .collect();
        let engine = ParallelAnalysis::new(1);
        for maps in [
            dct::analysis_blocks_lanes::<1>(&blocks, radius, &engine).unwrap(),
            dct::analysis_blocks_lanes::<4>(&blocks, radius, &engine).unwrap(),
        ] {
            prop_assert_eq!(fresh.len(), maps.len());
            for (a, b) in fresh.iter().zip(&maps) {
                for v in 0..dct::BLOCK {
                    for u in 0..dct::BLOCK {
                        prop_assert_eq!(a[v][u].to_bits(), b[v][u].to_bits());
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A partial trailing block (fewer items than lanes) runs item by
    /// item, bit-identical to a per-item replay driver.
    #[test]
    fn lane_remainder_block_is_scalar_replayed(
        x0 in -0.3f64..0.3,
        rest in 1usize..4,
    ) {
        const LANES: usize = 4;
        let x0s: Vec<f64> = (0..LANES + rest).map(|i| x0 + i as f64 * 0.01).collect();
        let mut driver = ReplayOrRecord::new(Analysis::new());
        let mut arena = AnalysisArena::new();
        let mut lanes = LaneScratch::<LANES>::new();
        let mut lane_vars: Vec<VarSignificances> = Vec::new();
        for block in x0s.chunks(LANES) {
            driver
                .run_block(
                    None,
                    &mut arena,
                    &mut lanes,
                    block,
                    &|&x0| vec![Interval::centered(x0, 0.5)],
                    &|ctx, _| maclaurin_closure(6)(ctx),
                    &mut lane_vars,
                )
                .unwrap();
        }
        // Warm-up block + trailing partial block, both item by item.
        prop_assert_eq!(driver.stats().lane_blocks, 0);
        prop_assert_eq!(driver.stats().lane_remainder, (LANES + rest) as u64);
        let mut scalar_driver = ReplayOrRecord::new(Analysis::new());
        for (&x0, lane) in x0s.iter().zip(&lane_vars) {
            let scalar = scalar_driver
                .run_vars_in(&mut arena, &[Interval::centered(x0, 0.5)], |ctx| {
                    maclaurin_closure(6)(ctx)
                })
                .unwrap();
            assert_vars_bit_equal(lane, &scalar)?;
        }
    }

    /// An input-arity change *inside* a lane block must divert the
    /// whole block to per-item runs (where the divergent item
    /// re-records) — and still produce fresh-recording bits for every
    /// item.
    #[test]
    fn shape_divergence_inside_lane_block_falls_back(x0 in -0.3f64..0.3) {
        const LANES: usize = 4;
        // Each item binds `arity` inputs: x, then `arity - 1` shifts.
        let register = move |ctx: &Ctx<'_>, &arity: &usize| -> Result<(), AnalysisError> {
            let x = ctx.input_centered("x", x0, 0.5);
            let mut sum = x.sqr();
            for j in 1..arity {
                let s = ctx.input_centered(format!("s{j}"), 0.0, 0.1);
                sum = sum + s;
            }
            ctx.output(&sum, "sum");
            Ok(())
        };
        let inputs_of = |&arity: &usize| -> Vec<Interval> {
            let mut v = vec![Interval::centered(x0, 0.5)];
            v.extend((1..arity).map(|_| Interval::centered(0.0, 0.1)));
            v
        };
        // Block 0 warms up at arity 2; block 1 diverges mid-block.
        let items = [2usize, 2, 2, 2, 2, 2, 3, 2];
        let mut driver = ReplayOrRecord::new(Analysis::new());
        let mut arena = AnalysisArena::new();
        let mut lanes = LaneScratch::<LANES>::new();
        let mut lane_vars: Vec<VarSignificances> = Vec::new();
        for block in items.chunks(LANES) {
            driver
                .run_block(
                    None,
                    &mut arena,
                    &mut lanes,
                    block,
                    &inputs_of,
                    &register,
                    &mut lane_vars,
                )
                .unwrap();
        }
        prop_assert_eq!(driver.stats().lane_blocks, 0);
        prop_assert_eq!(driver.stats().lane_remainder, items.len() as u64);
        prop_assert!(driver.stats().fallbacks >= 1);
        for (arity, lane) in items.iter().zip(&lane_vars) {
            let fresh = Analysis::new().run(|ctx| register(ctx, arity)).unwrap();
            prop_assert_eq!(lane.registered().len(), fresh.registered().len());
            for (a, b) in lane.registered().iter().zip(fresh.registered()) {
                prop_assert_eq!(&a.name, &b.name);
                prop_assert_eq!(a.significance_raw.to_bits(), b.significance_raw.to_bits());
            }
        }
    }
}

/// A shape-divergent trace (the Maclaurin term count changes between
/// items) must re-record — counted as a fallback — and still produce
/// the exact recorded answer, never a replay of the stale trace.
#[test]
fn shape_divergence_falls_back_to_rerecording() {
    let mut driver = ReplayOrRecord::new(Analysis::new());
    let mut arena = AnalysisArena::new();
    let inputs = [Interval::centered(0.3, 0.5)];

    let a: Report = driver
        .run(Some(4), &mut arena, &inputs, maclaurin_closure(4))
        .unwrap();
    let b: Report = driver
        .run(Some(4), &mut arena, &inputs, maclaurin_closure(4))
        .unwrap();
    assert_eq!(a.tape_len(), b.tape_len());
    assert_eq!(driver.stats().replays, 1);

    // New shape key: the compiled 4-term trace must not be replayed.
    let c: Report = driver
        .run(Some(7), &mut arena, &inputs, maclaurin_closure(7))
        .unwrap();
    assert!(c.tape_len() > b.tape_len(), "7-term trace must be larger");
    let recorded = maclaurin::analysis(0.3, 7).unwrap();
    assert_eq!(
        c.significance_of("term6").unwrap().to_bits(),
        recorded.significance_of("term6").unwrap().to_bits()
    );
    assert_eq!(driver.stats().records, 2);
    assert_eq!(driver.stats().fallbacks, 1);
    assert!(driver.stats().fallback_rate() > 0.0);
}

/// A trace that resolved a branch is value-dependent: the driver must
/// re-record every item (replays stay at zero) because the compiled
/// trace cannot be trusted for other inputs.
#[test]
fn branched_trace_disables_replay() {
    let mut driver = ReplayOrRecord::new(Analysis::new());
    let mut arena = AnalysisArena::new();
    let branchy = |ctx: &Ctx<'_>| {
        let x = ctx.input("x", 1.0, 2.0);
        let pos = ctx.branch(x.value().certainly_gt(0.0.into()), "x > 0")?;
        let y = if pos { x.sqr() } else { -x };
        ctx.output(&y, "y");
        Ok(())
    };
    for _ in 0..4 {
        driver
            .run_in(&mut arena, &[Interval::new(1.0, 2.0)], branchy)
            .unwrap();
    }
    assert_eq!(driver.stats().replays, 0);
    assert_eq!(driver.stats().records, 4);
    assert_eq!(driver.stats().fallbacks, 3);
}
