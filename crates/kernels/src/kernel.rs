//! One descriptor per analysed kernel: the annotated computation of
//! Table 1 / §2.3 (its INPUT boxes, INTERMEDIATE and OUTPUT
//! registrations) plus the key that says which recorded traces it can
//! replay. Every driver — a fresh recording, the
//! [`ParallelAnalysis`] lane batch, the serve layer's shape-keyed
//! cache — runs a kernel through this one trait.

use std::fmt;

use scorpio_core::{Analysis, AnalysisError, Ctx, ParallelAnalysis, Report, VarSignificances};
use scorpio_interval::Interval;

/// An annotated kernel, analysed one item (operating point) at a time.
///
/// [`Kernel::register`] records the computation at an item;
/// [`Kernel::inputs`] lists that item's input boxes in registration
/// order, which is how replay drivers bind them positionally. Every
/// implementation takes its boxes in `register` from `inputs(item)`, so
/// the two cannot disagree.
///
/// ```
/// use scorpio_core::ParallelAnalysis;
/// use scorpio_kernels::maclaurin::Series;
/// use scorpio_kernels::Kernel;
///
/// let series = Series { n: 5 };
/// let fresh = series.report(&0.49)?; // one fresh recording
/// let engine = ParallelAnalysis::new(2);
/// let batch = series.batch::<4, _>(&[0.49, 0.2, -0.3], &engine, |rows| {
///     rows.significance_of("term1")
/// })?; // recorded once, replayed for the rest
/// assert_eq!(batch[0], fresh.significance_of("term1"));
/// # Ok::<(), scorpio_core::AnalysisError>(())
/// ```
///
/// # Shape keys
///
/// A compiled trace replays correctly only for items whose trace
/// *structure* matches. Everything `register` bakes into the trace as
/// a constant, rather than reading from an input box, must be part of
/// [`Kernel::shape_key`]:
///
/// * [`InverseMapping`](crate::fisheye::InverseMapping) — the lens
///   focal length and image centre are trace constants, so the key
///   hashes the lens; the pixel coordinates are input boxes.
/// * [`Series`](crate::maclaurin::Series) — the series length `n`
///   decides the trace length, so it *is* the key; `x₀` is an input
///   box.
/// * [`Pricing`](crate::blackscholes::Pricing),
///   [`Pipeline`](crate::dct::Pipeline),
///   [`PairForce`](crate::nbody::PairForce) and
///   [`Combine`](crate::sobel::Combine) — every varying value flows
///   through input boxes, so each has one constant key.
///
/// A key that leaves out a baked constant lets a trace recorded for one
/// descriptor replay for another with the first one's constants — wrong
/// results that no replay guard can see. A needless key component only
/// costs cache hits.
pub trait Kernel: Sync {
    /// One analysed operating point.
    type Item: Sync;

    /// The compiled-trace key (see the [trait docs](Kernel)).
    fn shape_key(&self) -> u64;

    /// The input boxes of `item`, in registration order.
    fn inputs(&self, item: &Self::Item) -> Vec<Interval>;

    /// Records the computation at `item`: its inputs (boxed as
    /// [`Kernel::inputs`] says), intermediates and outputs.
    ///
    /// # Errors
    ///
    /// Propagates framework errors (every kernel here is branch-free).
    fn register(&self, ctx: &Ctx<'_>, item: &Self::Item) -> Result<(), AnalysisError>;

    /// A fresh recording of `item`: the full report a direct library
    /// call computes, and the reference every replay is compared to.
    ///
    /// # Errors
    ///
    /// As [`Kernel::register`].
    fn report(&self, item: &Self::Item) -> Result<Report, AnalysisError> {
        Analysis::new().run(|ctx| self.register(ctx, item))
    }

    /// Analyses `items` over `engine`'s workers in record-once /
    /// replay-many mode, `LANES` items per walk of the compiled trace,
    /// mapping each item's registered rows through `map`. Results are
    /// in item order and bit-identical to fresh recordings for every
    /// width (see [`ParallelAnalysis::run_batch_replay_vars_map_lanes`]).
    ///
    /// # Errors
    ///
    /// Propagates the error of the lowest-indexed failing item.
    fn batch<const LANES: usize, R: Send>(
        &self,
        items: &[Self::Item],
        engine: &ParallelAnalysis,
        map: impl Fn(&VarSignificances) -> R + Sync,
    ) -> Result<Vec<R>, AnalysisError> {
        engine
            .run_batch_replay_vars_map_lanes::<LANES, _, _, _, _, _>(
                items,
                |item| self.inputs(item),
                |ctx, item| self.register(ctx, item),
                |_, vars| Ok(map(vars)),
            )
            .map(|(out, _stats)| out)
    }
}

/// A negative input-box radius, refused by the descriptors that take
/// one ([`Pipeline`](crate::dct::Pipeline) and the N-body
/// [`Pair`](crate::nbody::Pair)).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NegativeRadius(pub f64);

impl fmt::Display for NegativeRadius {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "field \"radius\" must be non-negative, got {}", self.0)
    }
}

impl std::error::Error for NegativeRadius {}

/// `radius` when it is a valid box radius (`≥ 0`; NaN is not).
pub(crate) fn checked_radius(radius: f64) -> Result<f64, NegativeRadius> {
    if radius >= 0.0 {
        Ok(radius)
    } else {
        Err(NegativeRadius(radius))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fisheye::{InverseMapping, Lens};
    use crate::maclaurin::Series;

    #[test]
    fn shape_keys_separate_structural_variants() {
        assert_ne!(Series { n: 4 }.shape_key(), Series { n: 5 }.shape_key());
        let fisheye = |width, height| InverseMapping {
            lens: Lens::for_image(width, height),
        };
        assert_ne!(fisheye(64, 64).shape_key(), fisheye(64, 32).shape_key());
        // Item values cannot affect the key (it is read off the
        // descriptor alone): same shape ⇒ same key.
        assert_eq!(fisheye(64, 64).shape_key(), fisheye(64, 64).shape_key());
    }
}
