//! Newtype physical quantities used throughout the WR-ONoC models.
//!
//! Each quantity wraps an `f64` and implements only the arithmetic that is
//! physically meaningful: losses in decibels add, powers in milliwatts add,
//! a dBm level plus a dB loss is a dBm level, and so on. The wrapped value is
//! public (`.0`) because these are transparent units, not abstraction
//! boundaries.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A length in millimetres.
///
/// Waveguide segments, signal-path lengths and chip dimensions are all
/// expressed in millimetres, matching the unit of the paper's Table I
/// (`L` column).
///
/// # Examples
///
/// ```
/// use onoc_units::Millimeters;
/// let a = Millimeters(1.2);
/// let b = Millimeters(0.6);
/// assert!(((a + b).0 - 1.8).abs() < 1e-12);
/// assert!(a > b);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Millimeters(pub f64);

/// A loss or gain in decibels.
///
/// Insertion losses compose additively in dB, which is why the whole loss
/// model works in this unit. The paper's `il_w` and `il_w^all` columns are
/// decibel values.
///
/// # Examples
///
/// ```
/// use onoc_units::Decibels;
/// let drop = Decibels(0.5);
/// let through = Decibels(0.005) * 10.0;
/// assert_eq!((drop + through).0, 0.55);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Decibels(pub f64);

/// An absolute optical power level in dBm (decibels relative to 1 mW).
///
/// # Examples
///
/// ```
/// use onoc_units::{Dbm, Decibels, Milliwatts};
/// let sensitivity = Dbm(-26.0);
/// let laser = sensitivity + Decibels(21.7);
/// assert!((laser.to_milliwatts().0 - 0.371).abs() < 1e-2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Dbm(pub f64);

/// A linear optical or electrical power in milliwatts.
///
/// Laser powers of individual wavelengths are summed linearly in mW to give
/// the total laser power reported in the paper's Fig. 7.
///
/// # Examples
///
/// ```
/// use onoc_units::Milliwatts;
/// let total: Milliwatts = [Milliwatts(0.2), Milliwatts(0.3)].into_iter().sum();
/// assert_eq!(total, Milliwatts(0.5));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Milliwatts(pub f64);

macro_rules! impl_display {
    ($ty:ident, $unit:literal) => {
        impl fmt::Display for $ty {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                if let Some(prec) = f.precision() {
                    write!(f, "{:.*} {}", prec, self.0, $unit)
                } else {
                    write!(f, "{} {}", self.0, $unit)
                }
            }
        }
    };
}

impl_display!(Millimeters, "mm");
impl_display!(Decibels, "dB");
impl_display!(Dbm, "dBm");
impl_display!(Milliwatts, "mW");

macro_rules! impl_linear_ops {
    ($ty:ident) => {
        impl Add for $ty {
            type Output = $ty;
            fn add(self, rhs: $ty) -> $ty {
                $ty(self.0 + rhs.0)
            }
        }
        impl AddAssign for $ty {
            fn add_assign(&mut self, rhs: $ty) {
                self.0 += rhs.0;
            }
        }
        impl Sub for $ty {
            type Output = $ty;
            fn sub(self, rhs: $ty) -> $ty {
                $ty(self.0 - rhs.0)
            }
        }
        impl SubAssign for $ty {
            fn sub_assign(&mut self, rhs: $ty) {
                self.0 -= rhs.0;
            }
        }
        impl Mul<f64> for $ty {
            type Output = $ty;
            fn mul(self, rhs: f64) -> $ty {
                $ty(self.0 * rhs)
            }
        }
        impl Div<f64> for $ty {
            type Output = $ty;
            fn div(self, rhs: f64) -> $ty {
                $ty(self.0 / rhs)
            }
        }
        impl Neg for $ty {
            type Output = $ty;
            fn neg(self) -> $ty {
                $ty(-self.0)
            }
        }
        impl Sum for $ty {
            fn sum<I: Iterator<Item = $ty>>(iter: I) -> $ty {
                $ty(iter.map(|v| v.0).sum())
            }
        }
        impl PartialOrd for $ty {
            #[expect(
                clippy::disallowed_methods,
                reason = "PartialOrd impl must mirror f64 partial semantics; call sites use total_cmp"
            )]
            fn partial_cmp(&self, other: &$ty) -> Option<std::cmp::Ordering> {
                self.0.partial_cmp(&other.0)
            }
        }
        impl $ty {
            /// Returns the larger of `self` and `other`.
            ///
            /// NaN inputs resolve toward `other`, mirroring `f64::max`
            /// semantics closely enough for loss accounting (losses are
            /// never NaN in practice).
            #[must_use]
            pub fn max(self, other: $ty) -> $ty {
                $ty(self.0.max(other.0))
            }

            /// Returns the smaller of `self` and `other`.
            #[must_use]
            pub fn min(self, other: $ty) -> $ty {
                $ty(self.0.min(other.0))
            }

            /// Returns `true` when the wrapped value is finite (not NaN or
            /// infinite). Model sanity checks use this to validate inputs.
            #[must_use]
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }

            /// Total ordering on the wrapped value ([`f64::total_cmp`]).
            ///
            /// Sorts, maxes and comparator chains must use this instead of
            /// `partial_cmp(..).unwrap_or(Equal)`: a NaN under the partial
            /// order silently compares `Equal` to *everything*, which can
            /// reorder a sort non-deterministically depending on the
            /// pivot sequence. Under the total order NaN has a fixed place
            /// (after +inf), so ordering stays deterministic even for
            /// poisoned inputs.
            #[must_use]
            pub fn total_cmp(&self, other: &$ty) -> std::cmp::Ordering {
                self.0.total_cmp(&other.0)
            }
        }
    };
}

impl_linear_ops!(Millimeters);
impl_linear_ops!(Decibels);
impl_linear_ops!(Milliwatts);

impl Dbm {
    /// Converts this absolute level to a linear power.
    ///
    /// ```
    /// use onoc_units::{Dbm, Milliwatts};
    /// assert!((Dbm(0.0).to_milliwatts().0 - 1.0).abs() < 1e-12);
    /// assert!((Dbm(10.0).to_milliwatts().0 - 10.0).abs() < 1e-12);
    /// ```
    #[must_use]
    pub fn to_milliwatts(self) -> Milliwatts {
        Milliwatts(10f64.powf(self.0 / 10.0))
    }
}

impl Milliwatts {
    /// Converts this linear power to an absolute dBm level.
    ///
    /// ```
    /// use onoc_units::{Dbm, Milliwatts};
    /// assert!((Milliwatts(1.0).to_dbm().0).abs() < 1e-12);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the power is not strictly positive; a
    /// non-positive power has no dBm representation.
    #[must_use]
    pub fn to_dbm(self) -> Dbm {
        debug_assert!(self.0 > 0.0, "dBm of non-positive power");
        Dbm(10.0 * self.0.log10())
    }
}

impl Add<Decibels> for Dbm {
    type Output = Dbm;
    fn add(self, rhs: Decibels) -> Dbm {
        Dbm(self.0 + rhs.0)
    }
}

impl Sub<Decibels> for Dbm {
    type Output = Dbm;
    fn sub(self, rhs: Decibels) -> Dbm {
        Dbm(self.0 - rhs.0)
    }
}

impl Sub for Dbm {
    type Output = Decibels;
    fn sub(self, rhs: Dbm) -> Decibels {
        Decibels(self.0 - rhs.0)
    }
}

impl PartialOrd for Dbm {
    #[expect(
        clippy::disallowed_methods,
        reason = "PartialOrd impl must mirror f64 partial semantics; call sites use total_cmp"
    )]
    fn partial_cmp(&self, other: &Dbm) -> Option<std::cmp::Ordering> {
        self.0.partial_cmp(&other.0)
    }
}

impl Dbm {
    /// Total ordering on the wrapped value ([`f64::total_cmp`]); see the
    /// same method on the linear quantities for why sorts use this.
    #[must_use]
    pub fn total_cmp(&self, other: &Dbm) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn millimeters_arithmetic() {
        let mut x = Millimeters(1.0);
        x += Millimeters(0.5);
        assert_eq!(x, Millimeters(1.5));
        x -= Millimeters(0.25);
        assert_eq!(x, Millimeters(1.25));
        assert_eq!(x * 2.0, Millimeters(2.5));
        assert_eq!(Millimeters(3.0) / 2.0, Millimeters(1.5));
        assert_eq!(-Millimeters(1.0), Millimeters(-1.0));
    }

    #[test]
    fn total_cmp_gives_nan_a_fixed_place() {
        // Regression for the L2 bug class (clippy's `PartialOrd::partial_cmp`
        // entry): quantity sorts use `total_cmp`, which puts NaN after +inf
        // instead of letting it compare Equal to everything under the
        // partial order.
        let mut v = [
            Millimeters(f64::NAN),
            Millimeters(1.0),
            Millimeters(f64::INFINITY),
            Millimeters(-1.0),
        ];
        v.sort_by(Millimeters::total_cmp);
        assert_eq!(v[0], Millimeters(-1.0));
        assert_eq!(v[1], Millimeters(1.0));
        assert_eq!(v[2], Millimeters(f64::INFINITY));
        assert!(v[3].0.is_nan(), "NaN sorts last under the total order");
        assert_eq!(Dbm(1.0).total_cmp(&Dbm(f64::NAN)), std::cmp::Ordering::Less);
        assert_eq!(
            Decibels(f64::NAN).total_cmp(&Decibels(f64::NAN)),
            std::cmp::Ordering::Equal
        );
    }

    #[test]
    fn decibel_sum_over_iterator() {
        let total: Decibels = vec![Decibels(0.5), Decibels(0.5), Decibels(3.0)]
            .into_iter()
            .sum();
        assert!((total.0 - 4.0).abs() < 1e-12);
    }

    #[test]
    fn dbm_round_trip() {
        let p = Dbm(-26.0);
        let back = p.to_milliwatts().to_dbm();
        assert!((back.0 - p.0).abs() < 1e-9);
    }

    #[test]
    fn dbm_plus_loss_is_dbm() {
        let laser = Dbm(-26.0) + Decibels(21.7);
        assert!((laser.0 - (-4.3)).abs() < 1e-12);
    }

    #[test]
    fn dbm_difference_is_decibels() {
        let d = Dbm(3.0) - Dbm(-2.0);
        assert_eq!(d, Decibels(5.0));
    }

    #[test]
    fn max_min_behave() {
        assert_eq!(Decibels(1.0).max(Decibels(2.0)), Decibels(2.0));
        assert_eq!(Decibels(1.0).min(Decibels(2.0)), Decibels(1.0));
    }

    #[test]
    fn display_includes_units() {
        assert_eq!(format!("{:.1}", Millimeters(1.25)), "1.2 mm");
        assert_eq!(format!("{:.2}", Decibels(3.456)), "3.46 dB");
        assert_eq!(format!("{}", Milliwatts(0.5)), "0.5 mW");
        assert_eq!(format!("{:.0}", Dbm(-26.0)), "-26 dBm");
    }

    #[test]
    fn finite_check() {
        assert!(Decibels(0.0).is_finite());
        assert!(!Decibels(f64::NAN).is_finite());
        assert!(!Millimeters(f64::INFINITY).is_finite());
    }

    proptest! {
        #[test]
        fn prop_dbm_mw_round_trip(level in -60.0f64..30.0) {
            let back = Dbm(level).to_milliwatts().to_dbm();
            prop_assert!((back.0 - level).abs() < 1e-9);
        }

        #[test]
        fn prop_db_addition_is_mw_multiplication(level in -40.0f64..10.0, loss in 0.0f64..40.0) {
            // Adding `loss` dB to a dBm level multiplies the linear power by 10^(loss/10).
            let base = Dbm(level).to_milliwatts().0;
            let boosted = (Dbm(level) + Decibels(loss)).to_milliwatts().0;
            prop_assert!((boosted / base - 10f64.powf(loss / 10.0)).abs() < 1e-9);
        }

        #[test]
        fn prop_sum_matches_fold(xs in proptest::collection::vec(-10.0f64..10.0, 0..20)) {
            let s: Decibels = xs.iter().map(|&x| Decibels(x)).sum();
            let f = xs.iter().sum::<f64>();
            prop_assert!((s.0 - f).abs() < 1e-9);
        }
    }
}
