//! Timestamps and time intervals.

use std::fmt;

/// A FaRMv2 timestamp, in nanoseconds of global (clock-master) time.
///
/// The paper stores timestamps in a 53-bit field of the object header; we
/// keep the full `u64` here and let the memory subsystem enforce the
/// 53-bit packing limit when writing headers.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(pub u64);

impl Timestamp {
    /// The zero timestamp; smaller than every timestamp a transaction can
    /// acquire. Used as the initial version of freshly-allocated objects and
    /// as the "aborted" GC time of old versions (Section 4.5).
    pub const ZERO: Timestamp = Timestamp(0);

    /// Raw nanoseconds value.
    #[inline]
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Saturating addition of a nanosecond delta.
    #[inline]
    pub fn saturating_add(self, delta_ns: u64) -> Timestamp {
        Timestamp(self.0.saturating_add(delta_ns))
    }
}

impl fmt::Debug for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ts:{}", self.0)
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u64> for Timestamp {
    fn from(v: u64) -> Self {
        Timestamp(v)
    }
}

/// An uncertainty interval `[lower, upper]` guaranteed to contain the current
/// time at the clock master (Figure 1 of the paper).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TimeInterval {
    /// Lower bound on the time at the clock master, in nanoseconds.
    pub lower: u64,
    /// Upper bound on the time at the clock master, in nanoseconds.
    pub upper: u64,
}

impl TimeInterval {
    /// Builds an interval, asserting the bounds are ordered.
    #[inline]
    pub fn new(lower: u64, upper: u64) -> Self {
        debug_assert!(
            lower <= upper,
            "interval bounds out of order: [{lower}, {upper}]"
        );
        TimeInterval { lower, upper }
    }

    /// A degenerate interval `[t, t]`, as produced on the clock master
    /// itself (whose local clock *is* the global time).
    #[inline]
    pub fn exact(t: u64) -> Self {
        TimeInterval { lower: t, upper: t }
    }

    /// Width of the interval (the *uncertainty*), in nanoseconds.
    #[inline]
    pub fn uncertainty(&self) -> u64 {
        self.upper - self.lower
    }

    /// Whether `self` and `other` overlap. The uncertainty wait of Figure 5
    /// blocks until the current interval no longer overlaps the interval at
    /// the start of the wait.
    #[inline]
    pub fn overlaps(&self, other: &TimeInterval) -> bool {
        self.lower <= other.upper && other.lower <= self.upper
    }

    /// Upper bound as a [`Timestamp`].
    #[inline]
    pub fn upper_ts(&self) -> Timestamp {
        Timestamp(self.upper)
    }

    /// Lower bound as a [`Timestamp`].
    #[inline]
    pub fn lower_ts(&self) -> Timestamp {
        Timestamp(self.lower)
    }
}

impl fmt::Display for TimeInterval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}]", self.lower, self.upper)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_uncertainty_and_overlap() {
        let a = TimeInterval::new(100, 200);
        let b = TimeInterval::new(150, 400);
        let c = TimeInterval::new(201, 400);
        assert_eq!(a.uncertainty(), 100);
        assert!(a.overlaps(&b));
        assert!(b.overlaps(&a));
        assert!(!a.overlaps(&c));
        assert!(!c.overlaps(&a));
    }

    #[test]
    fn exact_interval_has_zero_uncertainty() {
        let e = TimeInterval::exact(42);
        assert_eq!(e.uncertainty(), 0);
        assert_eq!(e.lower, e.upper);
    }

    #[test]
    fn timestamp_ordering_matches_nanos() {
        assert!(Timestamp(1) < Timestamp(2));
        assert_eq!(Timestamp(7).as_nanos(), 7);
        assert_eq!(Timestamp::from(9u64), Timestamp(9));
    }

    #[test]
    fn adjacent_intervals_touching_at_a_point_overlap() {
        let a = TimeInterval::new(100, 200);
        let b = TimeInterval::new(200, 300);
        assert!(a.overlaps(&b));
    }
}
