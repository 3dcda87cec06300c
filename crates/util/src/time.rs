//! Virtual time for the simulator.
//!
//! Every cost in the reproduction — a memory reference, an LZRW1 pass over a
//! page, a disk seek — is expressed in integer nanoseconds of *virtual* time.
//! Using an integer representation (rather than `f64` seconds) keeps the
//! simulation exactly deterministic and associative regardless of the order
//! in which costs are accumulated.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A duration or instant of virtual time, in nanoseconds.
///
/// `Ns` is used both as a point on the simulation clock and as a span
/// between two points; the arithmetic provided is the common subset that is
/// meaningful for both.
///
/// # Examples
///
/// ```
/// use cc_util::Ns;
///
/// let seek = Ns::from_ms(15);
/// let rot = Ns::from_us(8300);
/// assert_eq!((seek + rot).as_us(), 23_300);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Ns(pub u64);

impl Ns {
    /// The zero duration / simulation start.
    pub const ZERO: Ns = Ns(0);
    /// The maximum representable instant (used as an "infinitely far" sentinel).
    pub const MAX: Ns = Ns(u64::MAX);

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Ns {
        Ns(s * 1_000_000_000)
    }

    /// Construct from milliseconds.
    pub const fn from_ms(ms: u64) -> Ns {
        Ns(ms * 1_000_000)
    }

    /// Construct from microseconds.
    pub const fn from_us(us: u64) -> Ns {
        Ns(us * 1_000)
    }

    /// Construct from a floating-point number of seconds (rounded to the
    /// nearest nanosecond; negative inputs clamp to zero).
    pub fn from_secs_f64(s: f64) -> Ns {
        if s <= 0.0 {
            Ns::ZERO
        } else {
            Ns((s * 1e9).round() as u64)
        }
    }

    /// The raw nanosecond count.
    pub const fn as_ns(self) -> u64 {
        self.0
    }

    /// Whole microseconds (truncated).
    pub const fn as_us(self) -> u64 {
        self.0 / 1_000
    }

    /// Seconds as a float (for reporting only; never used for simulation math).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Milliseconds as a float (for reporting only).
    pub fn as_ms_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Saturating subtraction: `self - rhs`, or zero if `rhs` is later.
    pub fn saturating_sub(self, rhs: Ns) -> Ns {
        Ns(self.0.saturating_sub(rhs.0))
    }

    /// Checked subtraction.
    pub fn checked_sub(self, rhs: Ns) -> Option<Ns> {
        self.0.checked_sub(rhs.0).map(Ns)
    }

    /// The later of two instants.
    pub fn max(self, rhs: Ns) -> Ns {
        if self.0 >= rhs.0 {
            self
        } else {
            rhs
        }
    }

    /// The earlier of two instants.
    pub fn min(self, rhs: Ns) -> Ns {
        if self.0 <= rhs.0 {
            self
        } else {
            rhs
        }
    }

    /// Time to move `bytes` at `bytes_per_sec` of bandwidth.
    ///
    /// This is the single conversion point between bandwidth-style machine
    /// parameters and virtual time, used for disk transfers, memcpy, and
    /// compression costs.
    ///
    /// # Examples
    ///
    /// ```
    /// use cc_util::Ns;
    /// // 4 KB at 2 MB/s is 2 ms.
    /// assert_eq!(Ns::for_transfer(4096, 2_000_000).as_us(), 2048);
    /// ```
    pub fn for_transfer(bytes: u64, bytes_per_sec: u64) -> Ns {
        assert!(bytes_per_sec > 0, "bandwidth must be positive");
        // Split the computation to avoid overflow for large byte counts:
        // bytes * 1e9 can exceed u64 when bytes > ~18 GB, which workloads
        // do reach cumulatively. u128 keeps it exact.
        let ns = (bytes as u128 * 1_000_000_000u128) / bytes_per_sec as u128;
        Ns(ns as u64)
    }
}

impl Add for Ns {
    type Output = Ns;
    fn add(self, rhs: Ns) -> Ns {
        Ns(self.0 + rhs.0)
    }
}

impl AddAssign for Ns {
    fn add_assign(&mut self, rhs: Ns) {
        self.0 += rhs.0;
    }
}

impl Sub for Ns {
    type Output = Ns;
    fn sub(self, rhs: Ns) -> Ns {
        Ns(self.0 - rhs.0)
    }
}

impl SubAssign for Ns {
    fn sub_assign(&mut self, rhs: Ns) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Ns {
    type Output = Ns;
    fn mul(self, rhs: u64) -> Ns {
        Ns(self.0 * rhs)
    }
}

impl Div<u64> for Ns {
    type Output = Ns;
    fn div(self, rhs: u64) -> Ns {
        Ns(self.0 / rhs)
    }
}

impl Sum for Ns {
    fn sum<I: Iterator<Item = Ns>>(iter: I) -> Ns {
        iter.fold(Ns::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for Ns {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self)
    }
}

impl fmt::Display for Ns {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", ns as f64 / 1e9)
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", ns as f64 / 1e6)
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", ns as f64 / 1e3)
        } else {
            write!(f, "{}ns", ns)
        }
    }
}

/// Backoff before retry `attempt` (1-based): `base << (attempt - 1)`,
/// capped at `base << 10` so a misconfigured attempt count cannot sleep
/// forever.
pub fn backoff(base: std::time::Duration, attempt: u32) -> std::time::Duration {
    base.saturating_mul(1u32 << (attempt - 1).min(10))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(Ns::from_secs(1), Ns(1_000_000_000));
        assert_eq!(Ns::from_ms(1), Ns(1_000_000));
        assert_eq!(Ns::from_us(1), Ns(1_000));
        assert_eq!(Ns::from_secs_f64(0.5), Ns(500_000_000));
        assert_eq!(Ns::from_secs_f64(-1.0), Ns::ZERO);
    }

    #[test]
    fn arithmetic() {
        let a = Ns(100);
        let b = Ns(40);
        assert_eq!(a + b, Ns(140));
        assert_eq!(a - b, Ns(60));
        assert_eq!(a * 3, Ns(300));
        assert_eq!(a / 4, Ns(25));
        assert_eq!(b.saturating_sub(a), Ns::ZERO);
        assert_eq!(a.saturating_sub(b), Ns(60));
        assert_eq!(a.checked_sub(b), Some(Ns(60)));
        assert_eq!(b.checked_sub(a), None);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }

    #[test]
    fn transfer_times() {
        // 2 MB at 2 MB/s is one second.
        assert_eq!(Ns::for_transfer(2_000_000, 2_000_000), Ns::from_secs(1));
        // Zero bytes is free.
        assert_eq!(Ns::for_transfer(0, 1), Ns::ZERO);
        // Huge transfers must not overflow.
        let t = Ns::for_transfer(1 << 40, 100_000_000);
        assert!(t > Ns::from_secs(10_000));
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_panics() {
        let _ = Ns::for_transfer(1, 0);
    }

    #[test]
    fn display_units() {
        assert_eq!(format!("{}", Ns(5)), "5ns");
        assert_eq!(format!("{}", Ns::from_us(2)), "2.000us");
        assert_eq!(format!("{}", Ns::from_ms(3)), "3.000ms");
        assert_eq!(format!("{}", Ns::from_secs(4)), "4.000s");
    }

    #[test]
    fn sum_iterates() {
        let total: Ns = [Ns(1), Ns(2), Ns(3)].into_iter().sum();
        assert_eq!(total, Ns(6));
    }
}
