//! The compact significance-graph layout, pinned: the per-node size,
//! the allocation counts of report assembly and of Algorithm 1's two
//! steps (none per node), and FNV-1a hashes of the outputs any layout
//! change must leave byte-identical.
//!
//! The allocation counter is per thread, so the harness's other test
//! threads do not disturb a measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use scorpio::analysis::{Analysis, AnalysisArena, Report, SigNode};
use scorpio::kernels::{dct, maclaurin};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call forwards to the system allocator unchanged; the
// counter is a const-initialised thread local, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `f`'s result and the allocations (and reallocations) it made on
/// this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let value = f();
    (value, ALLOCATIONS.with(Cell::get) - before)
}

#[test]
fn dct_report_and_algorithm1_allocate_nothing_per_node() {
    assert!(
        std::mem::size_of::<SigNode>() <= 80,
        "SigNode takes {} B",
        std::mem::size_of::<SigNode>()
    );
    let block = dct::natural_test_block();
    let mut arena = AnalysisArena::new();
    dct::analysis_in(&mut arena, &block, 8.0).expect("warm-up run");

    let (report, n) = allocations(|| dct::analysis_in(&mut arena, &block, 8.0).expect("dct"));
    let nodes = report.graph().nodes().len();
    assert!(nodes > 25_000, "{nodes} nodes");
    assert!(
        n < 1_000,
        "warm DCT full report: {n} allocations for {nodes} nodes"
    );

    let (simplified, n) = allocations(|| report.graph().simplified());
    assert!(n < 100, "simplified(): {n} allocations");
    let (partition, n) = allocations(|| simplified.partition(Analysis::new().delta()));
    assert!(n < 100, "partition(): {n} allocations");
    assert!(partition.cut_level.is_some());
    let (_, n) = allocations(|| report.partition());
    assert!(n < 100, "Report::partition(): {n} allocations");
}

/// 64-bit FNV-1a.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Hashes of `to_json()` and of the `partition()`'s `level_stats`
/// Debug text, with its cut level and live-node count.
fn fingerprint(report: &Report) -> (u64, Option<usize>, u64, usize) {
    let partition = report.partition();
    (
        fnv1a(&report.to_json()),
        partition.cut_level,
        fnv1a(&format!("{:?}", partition.level_stats)),
        partition.graph.live_nodes().count(),
    )
}

#[test]
fn fig3_maclaurin_outputs_match_golden_hashes() {
    let report = maclaurin::analysis(0.49, 5).expect("maclaurin");
    assert_eq!(
        fingerprint(&report),
        (0xb537_7e0d_7a49_f83e, Some(1), 0xdf5d_f673_5740_65dc, 8)
    );
}

#[test]
fn dct_default_outputs_match_golden_hashes() {
    let report = dct::analysis_default().expect("dct");
    assert_eq!(
        fingerprint(&report),
        (0x1813_acf0_5edd_698a, Some(2), 0x7a39_552e_b7ee_688f, 4354)
    );
}
