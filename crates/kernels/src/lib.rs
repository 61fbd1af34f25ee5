//! The benchmark kernels of the CGO'16 evaluation (§4.1), each in three
//! versions:
//!
//! * **reference** — the sequential, fully accurate implementation;
//! * **tasked** — restructured into significance-annotated tasks per the
//!   analysis results, with approximate task bodies, executed through
//!   [`scorpio_runtime`] under the `ratio` quality knob;
//! * **perforated** — the loop-perforation baseline (§4.2) skipping the
//!   same fraction of computation.
//!
//! Every kernel module also exposes its **significance analysis**: the
//! instrumented closure reproducing the per-kernel findings of §4.1
//! (Sobel's A/B/C block ranking, the Fig. 4 DCT coefficient map, the
//! Fig. 5/6 Fisheye maps, N-Body's distance correlation, BlackScholes'
//! block ordering) via [`scorpio_core`], through one [`Kernel`]
//! descriptor per analysed computation.
//!
//! | module | paper section | task structure | approximate version |
//! |---|---|---|---|
//! | [`maclaurin`] | §3 running example | one task per series term | `fast_pow` / dropped term |
//! | [`sobel`] | §4.1.1 | per row: parts A (±2), B, C (±1) + combine group | drop the part's contribution |
//! | [`dct`] | §4.1.2 | one task per 8×8 coefficient diagonal | drop the diagonal's coefficients |
//! | [`jpeg`] | end-to-end codec scenario | one task per 8×8 pixel block | BinDCT shift/add lifting transform |
//! | [`fisheye`] | §4.1.3 | one task per 128×64 output block | corner-interpolated mapping + 2×2 bilinear |
//! | [`nbody`] | §4.1.4 | one task per (atom, region) | region centre-of-mass force |
//! | [`blackscholes`] | §4.1.5 | one task per option chunk | fastmath for the C/D blocks |

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod blackscholes;
pub mod dct;
pub mod fisheye;
pub mod jpeg;
mod kernel;
pub mod maclaurin;
pub mod nbody;
pub mod sobel;

pub use kernel::{Kernel, NegativeRadius};
