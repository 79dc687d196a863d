//! Wavelength (WDM channel) identifiers.

use std::fmt;

/// A WDM channel identifier.
///
/// WR-ONoC design tools reason about wavelengths as abstract, totally ordered
/// channels λ₀, λ₁, …; the physical carrier frequency is irrelevant to
/// routing and collision analysis. The identifier is the channel index.
///
/// # Examples
///
/// ```
/// use onoc_units::Wavelength;
/// let l0 = Wavelength(0);
/// let l1 = l0.next();
/// assert!(l1 > l0);
/// assert_eq!(format!("{l1}"), "λ1");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Wavelength(pub usize);

// Ordered by hand: a derived `PartialOrd` calls `partial_cmp`, which
// clippy's L2 entry disallows (DESIGN.md §12).
impl Ord for Wavelength {
    #[inline]
    fn cmp(&self, other: &Wavelength) -> std::cmp::Ordering {
        self.0.cmp(&other.0)
    }
}

impl PartialOrd for Wavelength {
    #[inline]
    fn partial_cmp(&self, other: &Wavelength) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Wavelength {
    /// The next channel in index order.
    #[must_use]
    pub fn next(self) -> Wavelength {
        Wavelength(self.0 + 1)
    }

    /// The channel index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }

    /// Iterator over the first `n` channels λ₀ … λₙ₋₁.
    ///
    /// ```
    /// use onoc_units::Wavelength;
    /// let pool: Vec<_> = Wavelength::pool(3).collect();
    /// assert_eq!(pool, vec![Wavelength(0), Wavelength(1), Wavelength(2)]);
    /// ```
    pub fn pool(n: usize) -> impl Iterator<Item = Wavelength> {
        (0..n).map(Wavelength)
    }
}

impl fmt::Display for Wavelength {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "λ{}", self.0)
    }
}

impl From<usize> for Wavelength {
    fn from(i: usize) -> Self {
        Wavelength(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_follows_index() {
        assert!(Wavelength(0) < Wavelength(1));
        assert_eq!(Wavelength(3).next(), Wavelength(4));
    }

    #[test]
    fn pool_yields_consecutive_channels() {
        let v: Vec<_> = Wavelength::pool(4).map(Wavelength::index).collect();
        assert_eq!(v, vec![0, 1, 2, 3]);
    }

    #[test]
    fn display_and_from() {
        assert_eq!(Wavelength::from(7).to_string(), "λ7");
    }
}
