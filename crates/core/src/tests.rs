//! End-to-end tests of the analysis pipeline, anchored to the paper's
//! worked examples.

use proptest::prelude::*;
use scorpio_interval::Interval;

use crate::{Analysis, AnalysisError, VarKind};

/// Runs the paper's Maclaurin example (Listings 5–6) for `n` terms with
/// the input box `x0 ± 0.5`.
fn maclaurin_report(x0: f64, n: i32) -> crate::Report {
    Analysis::new()
        .run(|ctx| {
            let x = ctx.input_centered("x", x0, 0.5);
            let mut result = ctx.constant(0.0);
            for i in 0..n {
                let term = x.powi(i);
                ctx.intermediate(&term, format!("term{i}"));
                result = result + term;
            }
            ctx.output(&result, "result");
            Ok(())
        })
        .unwrap()
}

#[test]
fn maclaurin_fig3_shape() {
    // Fig. 3 of the paper: term0 has significance exactly 0 (pow(x,0)=1
    // is constant); term1 is the most significant; each later term is
    // less significant than the one before; the output normalizes to 1.
    let report = maclaurin_report(0.49, 5);

    // "Exactly zero" up to the ULP-level noise of the outward-rounded
    // adjoint sweep (the true derivative is exactly 1, its enclosure is
    // [1 ∓ ulp]).
    assert!(report.significance_of("term0").unwrap() < 1e-12);
    let s: Vec<f64> = (1..5)
        .map(|i| report.significance_of(&format!("term{i}")).unwrap())
        .collect();
    for w in s.windows(2) {
        assert!(w[0] > w[1], "terms must decrease: {s:?}");
    }
    assert!((report.significance_of("result").unwrap() - 1.0).abs() < 1e-12);

    // Terms' significances sum to (nearly) the whole output significance,
    // as in Fig. 3a where the final result is the terms' accumulation.
    let sum: f64 = s.iter().sum();
    assert!((sum - 1.0).abs() < 0.01, "terms sum to {sum}");
}

#[test]
fn maclaurin_fig3_values_close_to_paper() {
    // Paper reports ≈ (0.259, 0.254, 0.245, 0.241) for terms 1–4. The
    // exact evaluation point is not given; x0 = 0.49 reproduces the
    // pattern to within ~2 % absolute.
    let report = maclaurin_report(0.49, 5);
    let paper = [0.259, 0.254, 0.245, 0.241];
    for (i, want) in paper.iter().enumerate() {
        let got = report
            .significance_of(&format!("term{}", i + 1))
            .unwrap();
        assert!(
            (got - want).abs() < 0.02,
            "term{}: got {got:.3}, paper {want}",
            i + 1
        );
    }
}

#[test]
fn maclaurin_algorithm1_partition() {
    // Steps S4+S5: after simplification the terms all sit at level 1 and
    // their significance variance (0 vs ~0.25 each) exceeds δ → the cut
    // lands at L = 1, i.e. tasks should each compute one term (§3.2).
    let report = maclaurin_report(0.49, 5);
    let partition = report.partition();
    assert_eq!(partition.cut_level, Some(1));

    let level1 = partition.graph.level_nodes(1);
    // 5 term nodes + the constant seed of the accumulation.
    assert!(level1.len() >= 5, "level 1 has {}", level1.len());
}

#[test]
fn simplify_produces_fig3b() {
    let report = maclaurin_report(0.49, 5);
    let simplified = report.graph().simplified();
    // The surviving output node gains all 5 terms as direct preds.
    let out = simplified.outputs()[0];
    let term_preds = simplified
        .preds(out)
        .iter()
        .filter(|&&p| {
            matches!(
                simplified.nodes()[p as usize].op,
                scorpio_adjoint::Op::Powi(_)
            )
        })
        .count();
    assert_eq!(term_preds, 5);
}

#[test]
fn listing1_example_full_pipeline() {
    // f(x) = cos(exp(sin(x) + x) − x) over [0.2, 0.8].
    let report = Analysis::new()
        .run(|ctx| {
            let x = ctx.input("x", 0.2, 0.8);
            let y = ((x.sin() + x).exp() - x).cos();
            ctx.output(&y, "y");
            Ok(())
        })
        .unwrap();

    // Tape has the 6 nodes of Listing 2.
    assert_eq!(report.tape_len(), 6);

    let x = report.var("x").unwrap();
    assert_eq!(x.kind, VarKind::Input);
    assert_eq!(x.enclosure, Interval::new(0.2, 0.8));
    // The interval derivative must enclose the pointwise gradient at the
    // midpoint.
    let p = 0.5f64;
    let u3 = (p.sin() + p).exp();
    let grad = -(u3 - p).sin() * (u3 * (p.cos() + 1.0) - 1.0);
    assert!(x.derivative.contains(grad));
    assert!(x.significance > 0.0);
}

#[test]
fn insignificant_variable_scores_zero() {
    // z is computed but never used for the output.
    let report = Analysis::new()
        .run(|ctx| {
            let x = ctx.input("x", 0.0, 1.0);
            let z = x.exp();
            ctx.intermediate(&z, "z");
            let y = x * 2.0;
            ctx.output(&y, "y");
            Ok(())
        })
        .unwrap();
    assert_eq!(report.significance_of("z"), Some(0.0));
    assert!(report.significance_of("x").unwrap() > 0.0);
}

#[test]
fn empty_enclosure_nodes_are_flagged_with_nan_significance() {
    // x / [0,0] has no real result for any point of the box, so its
    // enclosure is EMPTY and Eq. 11 is undefined there. Regression:
    // empty-valued nodes used to flow through ranking as ordinary rows
    // with nothing calling them out; they must carry an explicit NaN
    // significance and be listed by `empty_enclosures()`.
    let report = Analysis::new()
        .run(|ctx| {
            let x = ctx.input("x", 1.0, 2.0);
            let zero = ctx.constant(0.0);
            let dead = x / zero;
            ctx.intermediate(&dead, "dead");
            let y = x.sqr();
            ctx.output(&y, "y");
            Ok(())
        })
        .unwrap();
    let dead = report.var("dead").unwrap();
    assert!(dead.enclosure.is_empty());
    assert!(
        dead.significance_raw.is_nan() && dead.significance.is_nan(),
        "empty node must report NaN significance, got {}",
        dead.significance
    );
    assert!(report.empty_enclosures().contains(&dead.node.index()));
    // The healthy output is unaffected by the dead empty node.
    assert_eq!(report.significance_of("y"), Some(1.0));
    assert!(report.to_string().contains("EMPTY enclosure"));
}

#[test]
fn constant_output_has_zero_total_significance() {
    let report = Analysis::new()
        .run(|ctx| {
            let x = ctx.input("x", 0.0, 1.0);
            let y = x.powi(0); // ≡ 1
            ctx.output(&y, "y");
            Ok(())
        })
        .unwrap();
    assert!(report.output_significance_raw() < 1e-12);
    // The raw Eq. 11 value is the meaningful one here; the normalized
    // value divides two ULP-noise quantities.
    assert!(report.var("y").unwrap().significance_raw < 1e-12);
}

#[test]
fn vector_outputs_sum_significances() {
    // §2.3: registering all outputs of F: ℝ → ℝ² sums per-output
    // significances in a single run.
    let both = Analysis::new()
        .run(|ctx| {
            let x = ctx.input("x", 1.0, 2.0);
            let y0 = x.sqr();
            let y1 = x * 3.0;
            ctx.output(&y0, "y0");
            ctx.output(&y1, "y1");
            Ok(())
        })
        .unwrap();
    let x_raw_both = both.var("x").unwrap().significance_raw;

    let single = |which: usize| {
        Analysis::new()
            .run(move |ctx| {
                let x = ctx.input("x", 1.0, 2.0);
                let y0 = x.sqr();
                let y1 = x * 3.0;
                if which == 0 {
                    ctx.output(&y0, "y");
                } else {
                    ctx.output(&y1, "y");
                }
                Ok(())
            })
            .unwrap()
            .var("x")
            .unwrap()
            .significance_raw
    };
    let (s0, s1) = (single(0), single(1));
    // Summed adjoint seeds give S within the interval-arithmetic sum of
    // the individual analyses (sub-distributivity can make it smaller).
    assert!(x_raw_both <= s0 + s1 + 1e-9);
    assert!(x_raw_both >= s0.max(s1) - 1e-9);
}

#[test]
fn no_outputs_is_an_error() {
    let err = Analysis::new()
        .run(|ctx| {
            let _x = ctx.input("x", 0.0, 1.0);
            Ok(())
        })
        .unwrap_err();
    assert_eq!(err, AnalysisError::NoOutputs);
}

#[test]
fn duplicate_names_are_an_error() {
    let err = Analysis::new()
        .run(|ctx| {
            let x = ctx.input("x", 0.0, 1.0);
            let y = x.sqr();
            ctx.output(&y, "x");
            Ok(())
        })
        .unwrap_err();
    assert_eq!(err, AnalysisError::DuplicateName("x".into()));
}

#[test]
fn ambiguous_branch_reports_condition() {
    let err = Analysis::new()
        .run(|ctx| {
            let x = ctx.input("x", -1.0, 1.0);
            let t = ctx.branch(x.value().certainly_lt(Interval::ZERO), "x < 0")?;
            let y = if t { -x } else { x };
            ctx.output(&y, "y");
            Ok(())
        })
        .unwrap_err();
    assert_eq!(
        err,
        AnalysisError::AmbiguousBranch {
            condition: "x < 0".into()
        }
    );
}

#[test]
fn certain_branch_is_transparent() {
    let report = Analysis::new()
        .run(|ctx| {
            let x = ctx.input("x", 1.0, 2.0);
            // 1 ≤ x, so x > 0 certainly.
            let pos = ctx.branch(x.value().certainly_gt(Interval::ZERO), "x > 0")?;
            assert!(pos);
            let y = if pos { x.ln() } else { x };
            ctx.output(&y, "y");
            Ok(())
        })
        .unwrap();
    assert!(report.significance_of("y").is_some());
}

#[test]
fn report_display_lists_vars() {
    let report = maclaurin_report(0.49, 3);
    let text = report.to_string();
    assert!(text.contains("term1"));
    assert!(text.contains("result"));
    assert!(text.contains("input"));
}

#[test]
fn graph_dot_includes_names() {
    let report = maclaurin_report(0.49, 3);
    let dot = report.graph().to_dot("maclaurin");
    assert!(dot.contains("term1"));
    assert!(dot.contains("digraph maclaurin"));
}

#[test]
fn delta_controls_partition_sensitivity() {
    let report = maclaurin_report(0.49, 5);
    // With a huge δ nothing varies "enough": no cut.
    let p = report.graph().simplified().partition(100.0);
    assert_eq!(p.cut_level, None);
    // With δ = 0 any nonzero variance cuts at the first level that has one.
    let p = report.graph().simplified().partition(0.0);
    assert_eq!(p.cut_level, Some(1));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Significance is monotone under derivative damping: scaling the
    /// output by a constant c scales raw significances of inputs by |c|.
    #[test]
    fn significance_scales_linearly(c in 0.1f64..10.0) {
        let base = Analysis::new().run(|ctx| {
            let x = ctx.input("x", 0.5, 1.5);
            let y = x.exp();
            ctx.output(&y, "y");
            Ok(())
        }).unwrap();
        let scaled = Analysis::new().run(move |ctx| {
            let x = ctx.input("x", 0.5, 1.5);
            let y = x.exp() * c;
            ctx.output(&y, "y");
            Ok(())
        }).unwrap();
        let b = base.var("x").unwrap().significance_raw;
        let s = scaled.var("x").unwrap().significance_raw;
        prop_assert!((s - c * b).abs() < 1e-9 * (1.0 + s), "b={b} s={s} c={c}");
    }

    /// Wider input ranges never decrease input significance.
    #[test]
    fn wider_inputs_are_at_least_as_significant(w1 in 0.1f64..1.0, extra in 0.0f64..1.0) {
        let run = |w: f64| {
            Analysis::new().run(move |ctx| {
                let x = ctx.input("x", 1.0, 1.0 + w);
                let y = x.sqr() + x.sin();
                ctx.output(&y, "y");
                Ok(())
            }).unwrap().var("x").unwrap().significance_raw
        };
        let narrow = run(w1);
        let wide = run(w1 + extra);
        prop_assert!(wide + 1e-12 >= narrow, "narrow {narrow} wide {wide}");
    }

    /// The registered enclosure always contains the pointwise value at
    /// any sample of the input box, and the significance is finite and
    /// non-negative for these well-behaved functions.
    #[test]
    fn enclosure_and_significance_sanity(lo in -1.0f64..0.0, w in 0.01f64..1.0, t in 0.0f64..=1.0) {
        let report = Analysis::new().run(move |ctx| {
            let x = ctx.input("x", lo, lo + w);
            let z = (x.sqr() + 1.0).sqrt();
            ctx.intermediate(&z, "z");
            let y = z.tanh();
            ctx.output(&y, "y");
            Ok(())
        }).unwrap();
        let sample = lo + t * w;
        let z_true = (sample * sample + 1.0).sqrt();
        let z = report.var("z").unwrap();
        prop_assert!(z.enclosure.contains(z_true));
        prop_assert!(z.significance >= 0.0);
        prop_assert!(z.significance.is_finite());
    }
}
