//! Table 2 (`table2_loc`) finds every kernel and counts its approximate
//! code: the A column is read from the `Some(move |ctx` closures of each
//! kernel's tasked function, so a rewrite that changes that shape would
//! otherwise make the column read 0 without failing anything.

use std::process::Command;

const KERNELS: [&str; 5] = ["Sobel Filter", "DCT", "Fisheye", "N-Body", "BlackScholes"];

#[test]
fn every_kernel_row_has_approximate_code() {
    let out = Command::new(env!("CARGO_BIN_EXE_table2_loc"))
        .output()
        .expect("run table2_loc");
    assert!(out.status.success(), "table2_loc failed: {out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 table");
    for kernel in KERNELS {
        let row = stdout
            .lines()
            .find(|line| line.starts_with(kernel))
            .unwrap_or_else(|| panic!("no {kernel} row in:\n{stdout}"));
        // The columns end `Sequential Parallel Approx Sig (A+S)/P`; the
        // name and domain before them may hold spaces.
        let cols: Vec<&str> = row.split_whitespace().rev().take(5).collect();
        let [_, _, approx, parallel, sequential] = cols[..] else {
            panic!("short {kernel} row: {row}");
        };
        let count = |col: &str| -> usize {
            col.parse()
                .unwrap_or_else(|_| panic!("{kernel}: {col:?} is not a count in {row}"))
        };
        assert!(count(sequential) > 0, "{kernel}: {row}");
        assert!(count(parallel) > 0, "{kernel}: {row}");
        assert!(count(approx) > 0, "{kernel} has no approximate code: {row}");
    }
}
