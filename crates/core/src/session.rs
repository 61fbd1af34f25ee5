//! The analysis session: registration context and driver.

use std::cell::{Cell, RefCell};

use scorpio_adjoint::{NodeId, Tape, Var};
use scorpio_interval::{Interval, Trichotomy};

use crate::error::AnalysisError;
use crate::replay::LaneScratch;
use crate::report::{build_recorded, Report, VarKind};

/// The active interval type of the analysis — the Rust spelling of the
/// paper's `dco::ia1s::type` (interval arithmetic, first-order adjoint,
/// scalar).
pub type Ia1s<'t> = Var<'t, Interval>;

/// One registered variable (before the adjoint sweep assigns it a
/// significance).
#[derive(Debug, Clone)]
pub(crate) struct Registration {
    pub name: String,
    pub node: NodeId,
    pub kind: VarKind,
    /// Declared range (inputs only; outputs/intermediates record their
    /// computed enclosure at report time).
    pub declared: Interval,
}

#[derive(Debug, Default)]
pub(crate) struct Registrations {
    pub entries: Vec<Registration>,
}

impl Registrations {
    fn check_unique(&self, name: &str) -> Result<(), AnalysisError> {
        if self.entries.iter().any(|e| e.name == name) {
            Err(AnalysisError::DuplicateName(name.to_owned()))
        } else {
            Ok(())
        }
    }
}

/// Registration context handed to the analysed closure.
///
/// Provides the paper's Table-1 macro functionality as methods:
/// `INPUT` → [`Ctx::input`], `INTERMEDIATE` → [`Ctx::intermediate`],
/// `OUTPUT` → [`Ctx::output`]; `ANALYSE()` is implicit when the closure
/// returns (the driver then performs the reverse sweep and builds the
/// [`Report`]).
#[derive(Debug)]
pub struct Ctx<'t> {
    tape: &'t Tape<Interval>,
    regs: RefCell<Registrations>,
    /// Per-input range overrides used by the splitting extension; indexed
    /// by input registration order.
    overrides: Vec<Interval>,
    /// Result slot for registration errors raised inside the closure via
    /// methods that cannot return `Result` (none currently; kept for the
    /// macros which `?` on the methods' results).
    errors: RefCell<Option<AnalysisError>>,
    /// Set when the closure resolves any branch: the trace shape is then
    /// value-dependent, so the replay engine must not reuse it for other
    /// inputs (see [`crate::ReplayOrRecord`]).
    branched: Cell<bool>,
}

impl<'t> Ctx<'t> {
    pub(crate) fn new(tape: &'t Tape<Interval>, overrides: Vec<Interval>) -> Ctx<'t> {
        Ctx {
            tape,
            regs: RefCell::new(Registrations::default()),
            overrides,
            errors: RefCell::new(None),
            branched: Cell::new(false),
        }
    }

    /// Registers input variable `name` with range `[lo, hi]` and returns
    /// the active value (`INPUT(x, xl, xu)` of Table 1).
    ///
    /// If the splitting extension supplied an override for this input
    /// position, the override range is used instead; the declared range is
    /// still recorded so the splitter knows the original domain.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or a bound is NaN.
    pub fn input(&self, name: impl Into<String>, lo: f64, hi: f64) -> Ia1s<'t> {
        let name = name.into();
        let declared = Interval::new(lo, hi);
        let index = {
            let regs = self.regs.borrow();
            regs.entries
                .iter()
                .filter(|e| e.kind == VarKind::Input)
                .count()
        };
        let range = self.overrides.get(index).copied().unwrap_or(declared);
        let var = self.tape.var(range);
        let mut regs = self.regs.borrow_mut();
        if let Err(e) = regs.check_unique(&name) {
            self.errors.borrow_mut().get_or_insert(e);
        }
        regs.entries.push(Registration {
            name,
            node: var.id(),
            kind: VarKind::Input,
            declared,
        });
        var
    }

    /// Registers input `name` as `mid ± radius` — the paper's
    /// `INPUT(x, x-0.5, x+0.5)` idiom from Listing 6.
    pub fn input_centered(&self, name: impl Into<String>, mid: f64, radius: f64) -> Ia1s<'t> {
        let iv = Interval::centered(mid, radius);
        self.input(name, iv.inf(), iv.sup())
    }

    /// Records a constant on the tape.
    pub fn constant(&self, value: f64) -> Ia1s<'t> {
        self.tape.constant(Interval::point(value))
    }

    /// Records an interval-valued constant on the tape.
    pub fn constant_interval(&self, value: Interval) -> Ia1s<'t> {
        self.tape.constant(value)
    }

    /// Registers `var` as a named intermediate (`INTERMEDIATE(z)` of
    /// Table 1). Registration must happen straight after the variable is
    /// computed, which the borrow of `var` enforces naturally.
    pub fn intermediate(&self, var: &Ia1s<'t>, name: impl Into<String>) {
        let name = name.into();
        let mut regs = self.regs.borrow_mut();
        if let Err(e) = regs.check_unique(&name) {
            self.errors.borrow_mut().get_or_insert(e);
        }
        regs.entries.push(Registration {
            name,
            node: var.id(),
            kind: VarKind::Intermediate,
            declared: var.value(),
        });
    }

    /// Registers `var` as an output (`OUTPUT(y)` of Table 1). Every
    /// registered output is seeded with adjoint 1, so for vector
    /// functions the reported significances are the sums
    /// `S_y(u) = Σ_i S_{y_i}(u)` of §2.3.
    pub fn output(&self, var: &Ia1s<'t>, name: impl Into<String>) {
        let name = name.into();
        let mut regs = self.regs.borrow_mut();
        if let Err(e) = regs.check_unique(&name) {
            self.errors.borrow_mut().get_or_insert(e);
        }
        regs.entries.push(Registration {
            name,
            node: var.id(),
            kind: VarKind::Output,
            declared: var.value(),
        });
    }

    /// Resolves a three-valued comparison into a control-flow decision.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::AmbiguousBranch`] carrying `condition`
    /// when the comparison is [`Trichotomy::Ambiguous`] — the §2.2
    /// behaviour of terminating the analysis and reporting the relevant
    /// condition statement to the user.
    ///
    /// ```
    /// use scorpio_core::Analysis;
    ///
    /// let result = Analysis::new().run(|ctx| {
    ///     let x = ctx.input("x", -1.0, 1.0);
    ///     // x < 0 is ambiguous over [-1, 1]:
    ///     let negative = ctx.branch(x.value().certainly_lt(0.0.into()), "x < 0")?;
    ///     let y = if negative { -x } else { x };
    ///     ctx.output(&y, "y");
    ///     Ok(())
    /// });
    /// assert!(result.is_err());
    /// ```
    pub fn branch(&self, tri: Trichotomy, condition: &str) -> Result<bool, AnalysisError> {
        self.branched.set(true);
        tri.to_bool().ok_or_else(|| AnalysisError::AmbiguousBranch {
            condition: condition.to_owned(),
        })
    }

    /// `true` once the closure has resolved any branch — such a trace is
    /// value-dependent and must not be replayed for other inputs.
    pub(crate) fn branched(&self) -> bool {
        self.branched.get()
    }

    pub(crate) fn into_registrations(self) -> Result<Registrations, AnalysisError> {
        if let Some(e) = self.errors.borrow_mut().take() {
            return Err(e);
        }
        Ok(self.regs.into_inner())
    }

    /// Declared input ranges in registration order (used by the splitter).
    pub(crate) fn declared_inputs(&self) -> Vec<Interval> {
        self.regs
            .borrow()
            .entries
            .iter()
            .filter(|e| e.kind == VarKind::Input)
            .map(|e| e.declared)
            .collect()
    }
}

/// Reusable analysis state: a warm [`Tape`] arena plus the adjoint
/// scratch buffer of the reverse sweep.
///
/// Running an analysis allocates a tape for the trace and a vector for
/// the adjoints; in batch settings (per-pixel kernels, Monte-Carlo
/// sampling, sweeps) those allocations dominate once the trace is warm.
/// An arena keeps both between runs — [`Analysis::run_in`] clears the
/// tape (keeping its allocation) and recycles the scratch buffer, so a
/// long batch settles into zero steady-state allocation. Each worker of
/// the parallel engine owns one arena.
#[derive(Debug, Default)]
pub struct AnalysisArena {
    pub(crate) tape: Tape<Interval>,
    pub(crate) scratch: Vec<Interval>,
    /// Width-1 lane scratch the single-item [`crate::ReplayOrRecord::run`]
    /// replays through; empty until the first replay, reused afterwards.
    pub(crate) lanes: LaneScratch<1>,
}

impl AnalysisArena {
    /// An empty arena; the first run sizes it.
    pub fn new() -> AnalysisArena {
        AnalysisArena::default()
    }

    /// An arena pre-sized for traces of about `capacity` nodes.
    pub fn with_capacity(capacity: usize) -> AnalysisArena {
        AnalysisArena {
            tape: Tape::with_capacity(capacity),
            scratch: Vec::with_capacity(capacity),
            lanes: LaneScratch::new(),
        }
    }

    /// Current node capacity of the warm tape.
    pub fn tape_capacity(&self) -> usize {
        self.tape.capacity()
    }
}

/// Configuration and driver for one significance analysis
/// (steps S1–S3 of Algorithm 1; the graph post-processing S4–S5 lives on
/// the produced [`Report`]'s [`crate::SigGraph`]).
#[derive(Debug, Clone)]
pub struct Analysis {
    delta: f64,
}

impl Default for Analysis {
    fn default() -> Self {
        Analysis::new()
    }
}

impl Analysis {
    /// Creates an analysis with the default significance-variance
    /// threshold `δ = 1e-3` (applied to normalized significances).
    pub fn new() -> Analysis {
        Analysis { delta: 1e-3 }
    }

    /// Sets the δ threshold used by the level-variance partitioning
    /// (step S5). Higher δ requires starker significance differences
    /// before a level is chosen as the task boundary.
    pub fn with_delta(mut self, delta: f64) -> Analysis {
        assert!(delta >= 0.0, "delta must be non-negative");
        self.delta = delta;
        self
    }

    /// The configured δ threshold.
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// Runs the closure with a fresh tape, performs the reverse sweep and
    /// assembles the [`Report`] (steps S1–S3 plus `ANALYSE()`).
    ///
    /// # Errors
    ///
    /// Propagates [`AnalysisError`]s raised by the closure (ambiguous
    /// branches) and fails with [`AnalysisError::NoOutputs`] if no output
    /// was registered.
    pub fn run<F>(&self, f: F) -> Result<Report, AnalysisError>
    where
        F: FnOnce(&Ctx<'_>) -> Result<(), AnalysisError>,
    {
        self.run_with_overrides(f, Vec::new()).map(|(r, _)| r)
    }

    /// Like [`Analysis::run`] but recording into (and recycling the
    /// allocations of) a caller-owned [`AnalysisArena`]. The produced
    /// [`Report`] is identical to [`Analysis::run`]'s — the arena only
    /// changes where the trace and the adjoint scratch live.
    pub fn run_in<F>(&self, arena: &mut AnalysisArena, f: F) -> Result<Report, AnalysisError>
    where
        F: FnOnce(&Ctx<'_>) -> Result<(), AnalysisError>,
    {
        self.run_with_overrides_in(arena, f, Vec::new()).map(|(r, _)| r)
    }

    /// Like [`Analysis::run`] but overriding input ranges positionally —
    /// the hook the splitting extension uses. Also returns the declared
    /// (non-overridden) input ranges.
    pub(crate) fn run_with_overrides<F>(
        &self,
        f: F,
        overrides: Vec<Interval>,
    ) -> Result<(Report, Vec<Interval>), AnalysisError>
    where
        F: FnOnce(&Ctx<'_>) -> Result<(), AnalysisError>,
    {
        let mut arena = AnalysisArena::with_capacity(1024);
        self.run_with_overrides_in(&mut arena, f, overrides)
    }

    /// [`Analysis::run_with_overrides`] against a reusable arena.
    pub(crate) fn run_with_overrides_in<F>(
        &self,
        arena: &mut AnalysisArena,
        f: F,
        overrides: Vec<Interval>,
    ) -> Result<(Report, Vec<Interval>), AnalysisError>
    where
        F: FnOnce(&Ctx<'_>) -> Result<(), AnalysisError>,
    {
        arena.tape.clear();
        let ctx = Ctx::new(&arena.tape, overrides);
        let closure_result = {
            let _span = scorpio_obs::span("record");
            f(&ctx)
        };
        let declared = ctx.declared_inputs();
        closure_result?;
        let regs = ctx.into_registrations()?;
        scorpio_obs::count("analysis.nodes_recorded", arena.tape.len() as u64);
        let report = build_recorded(&arena.tape, &regs, self.delta, &mut arena.scratch)?;
        Ok((report, declared))
    }
}
