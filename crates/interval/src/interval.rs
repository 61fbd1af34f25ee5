//! The [`Interval`] type: representation, constructors, set operations.

use std::fmt;

use crate::rounding::{next_down, next_up};

/// Error produced when constructing an interval from invalid bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntervalError {
    /// The lower bound was greater than the upper bound.
    InvertedBounds,
    /// One of the bounds was NaN.
    NanBound,
}

impl fmt::Display for IntervalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IntervalError::InvertedBounds => write!(f, "lower bound exceeds upper bound"),
            IntervalError::NanBound => write!(f, "interval bound is NaN"),
        }
    }
}

impl std::error::Error for IntervalError {}

/// A closed interval `[lo, hi]` of `f64` values.
///
/// `Interval` is the value type over which the significance analysis of the
/// CGO'16 paper operates: input ranges are intervals (Eq. 4), every
/// elementary operation is evaluated in interval arithmetic (Eq. 5), and the
/// adjoint sweep propagates interval derivatives (Eq. 10).
///
/// # Invariants
///
/// * `lo ≤ hi` (an *empty* interval is represented by the special value
///   [`Interval::EMPTY`] with NaN bounds and must be checked via
///   [`Interval::is_empty`]).
/// * Bounds may be infinite; `[-∞, ∞]` is [`Interval::ENTIRE`].
///
/// # Examples
///
/// ```
/// use scorpio_interval::Interval;
///
/// let x = Interval::new(1.0, 2.0);
/// assert_eq!(x.inf(), 1.0);
/// assert_eq!(x.sup(), 2.0);
/// assert_eq!(x.width(), 1.0);
/// assert!(x.contains(1.5));
/// ```
#[derive(Clone, Copy, PartialEq)]
pub struct Interval {
    lo: f64,
    hi: f64,
}

impl Interval {
    /// The empty set. All arithmetic on it yields the empty set.
    ///
    /// Downstream significance analysis treats a node whose value or
    /// adjoint enclosure is empty as having *no defined significance*
    /// (NaN) rather than zero: the empty set is the result of a domain
    /// violation (e.g. `sqrt` of a wholly negative interval), so
    /// ranking it among real significances would be unsound. The
    /// analysis layer surfaces such nodes separately
    /// (`scorpio-core`'s `Report::empty_enclosures`).
    pub const EMPTY: Interval = Interval {
        lo: f64::NAN,
        hi: f64::NAN,
    };

    /// The whole real line `[-∞, +∞]`.
    pub const ENTIRE: Interval = Interval {
        lo: f64::NEG_INFINITY,
        hi: f64::INFINITY,
    };

    /// The degenerate interval `[0, 0]`.
    pub const ZERO: Interval = Interval { lo: 0.0, hi: 0.0 };

    /// The degenerate interval `[1, 1]`.
    pub const ONE: Interval = Interval { lo: 1.0, hi: 1.0 };

    /// Creates the interval `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or either bound is NaN. Use [`Interval::try_new`]
    /// for a non-panicking constructor.
    ///
    /// ```
    /// use scorpio_interval::Interval;
    /// let x = Interval::new(-1.0, 1.0);
    /// assert_eq!(x.mid(), 0.0);
    /// ```
    #[inline]
    pub fn new(lo: f64, hi: f64) -> Interval {
        match Interval::try_new(lo, hi) {
            Ok(iv) => iv,
            Err(e) => panic!("Interval::new({lo}, {hi}): {e}"),
        }
    }

    /// Creates the interval `[lo, hi]`, returning an error on invalid bounds.
    ///
    /// # Errors
    ///
    /// Returns [`IntervalError::InvertedBounds`] if `lo > hi` and
    /// [`IntervalError::NanBound`] if either bound is NaN.
    ///
    /// ```
    /// use scorpio_interval::{Interval, IntervalError};
    /// assert_eq!(Interval::try_new(2.0, 1.0), Err(IntervalError::InvertedBounds));
    /// ```
    #[inline]
    pub fn try_new(lo: f64, hi: f64) -> Result<Interval, IntervalError> {
        if lo.is_nan() || hi.is_nan() {
            return Err(IntervalError::NanBound);
        }
        if lo > hi {
            return Err(IntervalError::InvertedBounds);
        }
        Ok(Interval { lo, hi })
    }

    /// Creates the degenerate (point) interval `[x, x]`.
    ///
    /// A NaN input produces the empty interval.
    ///
    /// ```
    /// use scorpio_interval::Interval;
    /// assert!(Interval::point(3.0).is_point());
    /// ```
    #[inline]
    pub fn point(x: f64) -> Interval {
        if x.is_nan() {
            Interval::EMPTY
        } else {
            Interval { lo: x, hi: x }
        }
    }

    /// Creates the interval `[mid - radius, mid + radius]` with outward
    /// rounding of the bounds.
    ///
    /// # Panics
    ///
    /// Panics if `radius < 0` or any argument is NaN.
    ///
    /// ```
    /// use scorpio_interval::Interval;
    /// let x = Interval::centered(0.5, 0.5);
    /// assert!(x.contains(0.0) && x.contains(1.0));
    /// ```
    #[inline]
    pub fn centered(mid: f64, radius: f64) -> Interval {
        assert!(radius >= 0.0, "Interval::centered: negative radius {radius}");
        if radius == 0.0 {
            return Interval::point(mid);
        }
        Interval::new(next_down(mid - radius), next_up(mid + radius))
    }

    /// Creates an interval from two unordered bounds.
    ///
    /// ```
    /// use scorpio_interval::Interval;
    /// assert_eq!(Interval::from_unordered(2.0, 1.0), Interval::new(1.0, 2.0));
    /// ```
    #[inline]
    pub fn from_unordered(a: f64, b: f64) -> Interval {
        if a.is_nan() || b.is_nan() {
            Interval::EMPTY
        } else {
            Interval {
                lo: a.min(b),
                hi: a.max(b),
            }
        }
    }

    /// Raw constructor bypassing canonicalisation — exists only so the
    /// `audit-invariants` tests can manufacture the malformed values the
    /// checks must reject.
    #[cfg(feature = "audit-invariants")]
    pub(crate) const fn from_bounds_unchecked(lo: f64, hi: f64) -> Interval {
        Interval { lo, hi }
    }

    /// Internal constructor that maps NaN bounds (and inverted ones) to
    /// the empty set: `lo <= hi` is false exactly then, so one compare
    /// decides.
    #[inline]
    pub(crate) fn make(lo: f64, hi: f64) -> Interval {
        if lo <= hi {
            Interval { lo, hi }
        } else {
            Interval::EMPTY
        }
    }

    /// Lower bound (infimum). NaN for the empty interval.
    #[inline]
    pub fn inf(&self) -> f64 {
        self.lo
    }

    /// Upper bound (supremum). NaN for the empty interval.
    #[inline]
    pub fn sup(&self) -> f64 {
        self.hi
    }

    /// Width `w([u]) = sup − inf` (Eq. 11's `w(·)`); `0` for points, NaN for
    /// the empty interval.
    ///
    /// ```
    /// use scorpio_interval::Interval;
    /// assert_eq!(Interval::new(-0.5, 1.5).width(), 2.0);
    /// ```
    #[inline]
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }

    /// Midpoint `(lo + hi) / 2`, computed overflow-safely.
    #[inline]
    pub fn mid(&self) -> f64 {
        if self.is_empty() {
            return f64::NAN;
        }
        if self.lo == f64::NEG_INFINITY && self.hi == f64::INFINITY {
            return 0.0;
        }
        if self.lo == f64::NEG_INFINITY {
            return f64::MIN;
        }
        if self.hi == f64::INFINITY {
            return f64::MAX;
        }
        let m = 0.5 * (self.lo + self.hi);
        if m.is_finite() {
            m
        } else {
            0.5 * self.lo + 0.5 * self.hi
        }
    }

    /// Radius `(hi − lo) / 2`.
    #[inline]
    pub fn rad(&self) -> f64 {
        0.5 * self.width()
    }

    /// Magnitude: `max{|x| : x ∈ [self]}`.
    #[inline]
    pub fn mag(&self) -> f64 {
        self.lo.abs().max(self.hi.abs())
    }

    /// Mignitude: `min{|x| : x ∈ [self]}` (0 if the interval contains 0).
    #[inline]
    pub fn mig(&self) -> f64 {
        if self.contains(0.0) {
            0.0
        } else {
            self.lo.abs().min(self.hi.abs())
        }
    }

    /// `true` iff the interval is the empty set.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.lo.is_nan()
    }

    /// `true` iff the interval is a single point `[x, x]`.
    #[inline]
    pub fn is_point(&self) -> bool {
        self.lo == self.hi
    }

    /// `true` iff both bounds are finite.
    #[inline]
    pub fn is_bounded(&self) -> bool {
        self.lo.is_finite() && self.hi.is_finite()
    }

    /// `true` iff `x ∈ [self]`.
    ///
    /// ```
    /// use scorpio_interval::Interval;
    /// assert!(Interval::new(0.0, 1.0).contains(1.0));
    /// assert!(!Interval::new(0.0, 1.0).contains(1.0000001));
    /// ```
    #[inline]
    pub fn contains(&self, x: f64) -> bool {
        !self.is_empty() && self.lo <= x && x <= self.hi
    }

    /// `true` iff `other ⊆ self`.
    #[inline]
    pub fn encloses(&self, other: Interval) -> bool {
        if other.is_empty() {
            return true;
        }
        if self.is_empty() {
            return false;
        }
        self.lo <= other.lo && other.hi <= self.hi
    }

    /// `true` iff `self` and `other` have at least one common point.
    #[inline]
    pub fn intersects(&self, other: Interval) -> bool {
        !self.is_empty() && !other.is_empty() && self.lo <= other.hi && other.lo <= self.hi
    }

    /// Intersection `self ∩ other` (possibly empty).
    ///
    /// ```
    /// use scorpio_interval::Interval;
    /// let a = Interval::new(0.0, 2.0);
    /// let b = Interval::new(1.0, 3.0);
    /// assert_eq!(a.intersection(b), Interval::new(1.0, 2.0));
    /// ```
    #[inline]
    pub fn intersection(&self, other: Interval) -> Interval {
        if !self.intersects(other) {
            return Interval::EMPTY;
        }
        Interval {
            lo: self.lo.max(other.lo),
            hi: self.hi.min(other.hi),
        }
    }

    /// Convex hull: the smallest interval containing both operands.
    ///
    /// ```
    /// use scorpio_interval::Interval;
    /// let a = Interval::new(0.0, 1.0);
    /// let b = Interval::new(3.0, 4.0);
    /// assert_eq!(a.hull(b), Interval::new(0.0, 4.0));
    /// ```
    #[inline]
    pub fn hull(&self, other: Interval) -> Interval {
        if self.is_empty() {
            return other;
        }
        if other.is_empty() {
            return *self;
        }
        Interval {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// Inflates the interval outward by `eps` in absolute terms.
    #[inline]
    pub fn inflated(&self, eps: f64) -> Interval {
        if self.is_empty() {
            return *self;
        }
        Interval::make(self.lo - eps, self.hi + eps)
    }

    /// Converts to a representative `f64` (the midpoint), mirroring
    /// `dco::ia1s::type::toDouble()` from Listing 6 of the paper.
    #[inline]
    pub fn to_f64(&self) -> f64 {
        self.mid()
    }

    /// Clamps every member into `[lo, hi]`, i.e. the interval version of
    /// `f64::clamp`.
    ///
    /// ```
    /// use scorpio_interval::Interval;
    /// let t = Interval::new(-10.0, 300.0);
    /// assert_eq!(t.clamp_to(0.0, 255.0), Interval::new(0.0, 255.0));
    /// ```
    #[inline]
    pub fn clamp_to(&self, lo: f64, hi: f64) -> Interval {
        assert!(lo <= hi, "clamp_to: inverted clamp range");
        if self.is_empty() {
            return *self;
        }
        Interval {
            lo: self.lo.clamp(lo, hi),
            hi: self.hi.clamp(lo, hi),
        }
    }
}

impl Default for Interval {
    /// The default interval is `[0, 0]`.
    fn default() -> Interval {
        Interval::ZERO
    }
}

impl From<f64> for Interval {
    /// Wraps a scalar into the point interval `[x, x]`.
    fn from(x: f64) -> Interval {
        Interval::point(x)
    }
}

impl fmt::Debug for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            write!(f, "[empty]")
        } else {
            write!(f, "[{:?}, {:?}]", self.lo, self.hi)
        }
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            write!(f, "[empty]")
        } else {
            write!(f, "[{}, {}]", self.lo, self.hi)
        }
    }
}
