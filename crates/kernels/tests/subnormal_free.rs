//! Regression guard for the exact-zero rule of interval rounding.
//!
//! Stepping an exactly zero bound one ULP outward turns it into the
//! subnormal `∓4.9e-324`, which then spreads through the DCT reverse
//! sweep: a third of the adjoints carried a subnormal endpoint, and every
//! interval operation touching one runs several times slower. With exact
//! zeros kept exact, none of these reports holds a subnormal anywhere —
//! value, adjoint or significance — so a refactor that brings the
//! widening back fails here rather than only on a benchmark.

use scorpio_core::Report;
use scorpio_kernels::dct::{self, BLOCK};
use scorpio_kernels::{sobel, Kernel};

/// A fresh [`dct::Pipeline`] report of `block` at pixel radius `radius`.
fn dct_report(block: &[[f64; BLOCK]; BLOCK], radius: f64) -> Report {
    dct::Pipeline::new(radius).unwrap().report(block).unwrap()
}

/// Names every subnormal number in `report` (empty when there is none).
fn subnormals(report: &Report) -> Vec<String> {
    let mut found = Vec::new();
    let mut note = |what: String, x: f64| {
        if x.is_subnormal() {
            found.push(format!("{what} = {x:e}"));
        }
    };
    note(
        "output_significance_raw".into(),
        report.output_significance_raw(),
    );
    for v in report.registered() {
        note(format!("{}.enclosure.inf", v.name), v.enclosure.inf());
        note(format!("{}.enclosure.sup", v.name), v.enclosure.sup());
        note(format!("{}.derivative.inf", v.name), v.derivative.inf());
        note(format!("{}.derivative.sup", v.name), v.derivative.sup());
        note(format!("{}.significance_raw", v.name), v.significance_raw);
        note(format!("{}.significance", v.name), v.significance);
    }
    for n in report.graph().nodes() {
        note(format!("node {}.value.inf", n.id), n.value.inf());
        note(format!("node {}.value.sup", n.id), n.value.sup());
        note(format!("node {}.derivative.inf", n.id), n.derivative.inf());
        note(format!("node {}.derivative.sup", n.id), n.derivative.sup());
        note(format!("node {}.significance", n.id), n.significance);
    }
    found
}

fn assert_subnormal_free(label: &str, report: &Report) {
    let found = subnormals(report);
    assert!(
        found.is_empty(),
        "{label}: {} subnormal numbers, first: {:?}",
        found.len(),
        &found[..found.len().min(5)]
    );
}

#[test]
fn dct_natural_block_report_is_subnormal_free() {
    let report = dct_report(&dct::natural_test_block(), 8.0);
    assert_subnormal_free("dct natural_test_block", &report);
}

#[test]
fn dct_mid_grey_block_report_is_subnormal_free() {
    let report = dct_report(&[[128.0; BLOCK]; BLOCK], 8.0);
    assert_subnormal_free("dct mid-grey", &report);
}

#[test]
fn dct_near_black_block_report_is_subnormal_free() {
    // Pixels ≤ 1 with radius 1: the input boxes touch 0.
    let mut block = [[0.0; BLOCK]; BLOCK];
    for (y, row) in block.iter_mut().enumerate() {
        for (x, p) in row.iter_mut().enumerate() {
            *p = ((x + y) % 2) as f64;
        }
    }
    let report = dct_report(&block, 1.0);
    assert_subnormal_free("dct near-black", &report);
}

#[test]
fn sobel_report_is_subnormal_free() {
    assert_subnormal_free("sobel", &sobel::analysis().unwrap());
}
