//! Partial (candidate-list) pricing for the sparse revised simplex.
//!
//! Full Dantzig pricing computes a reduced cost for every nonbasic column
//! on every iteration — in the revised method that is a sparse dot
//! product per column, and it dominates iteration cost on wide models.
//! [`PartialPricing`] instead scans the columns in fixed-size cyclic
//! sections, returning the best improving candidate of the first section
//! that contains one; the cursor persists across iterations so all
//! sections are visited round-robin and no column starves. A full
//! wrap-around with no candidate is exact proof of optimality, so the
//! scheme terminates identically to Dantzig pricing — it only changes
//! which improving column enters first.
//!
//! The scan order and tie-breaks are deterministic, which the solver's
//! trajectory pins rely on. Under the Bland
//! anti-cycling fallback the engine bypasses this module entirely and
//! scans all columns for the first improving index.

/// Cyclic-section partial pricing state (one per LP solve).
#[derive(Debug, Default)]
pub(crate) struct PartialPricing {
    cursor: usize,
}

impl PartialPricing {
    /// Restarts the scan from column 0 (call once per solve/phase).
    pub(crate) fn reset(&mut self) {
        self.cursor = 0;
    }

    /// Places the scan cursor (tests exercise wrap-around behavior).
    #[cfg(test)]
    pub(crate) fn set_cursor(&mut self, cursor: usize) {
        self.cursor = cursor;
    }

    /// Picks the entering column among `n` candidates. `score(j)` returns
    /// `Some((dir, score))` — movement direction and positive merit — for
    /// an improving column, `None` otherwise. Returns the best-scoring
    /// column of the first non-empty section (ties: earliest scanned), or
    /// `None` when a full cycle finds no candidate (optimality).
    pub(crate) fn select<F>(&mut self, n: usize, mut score: F) -> Option<(usize, f64)>
    where
        F: FnMut(usize) -> Option<(f64, f64)>,
    {
        if n == 0 {
            return None;
        }
        let section = (n / 8).clamp(32, 256).min(n);
        let mut best: Option<(usize, f64, f64)> = None;
        let mut scanned = 0usize;
        // No deadline poll: `scanned` grows every iteration, so this ends
        // within n steps (a full cycle proves optimality).
        while scanned < n {
            let j = self.cursor;
            self.cursor += 1;
            if self.cursor >= n {
                self.cursor = 0;
            }
            scanned += 1;
            if let Some((dir, s)) = score(j) {
                if best.is_none_or(|(_, _, bs)| s > bs) {
                    best = Some((j, dir, s));
                }
            }
            if scanned.is_multiple_of(section) && best.is_some() {
                break;
            }
        }
        best.map(|(j, dir, _)| (j, dir))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_only_candidate_anywhere() {
        // Regardless of cursor position, a lone candidate is found.
        for target in [0usize, 17, 99] {
            let mut p = PartialPricing::default();
            p.set_cursor(50);
            let got = p.select(100, |j| (j == target).then_some((1.0, 1.0)));
            assert_eq!(got, Some((target, 1.0)));
        }
    }

    #[test]
    fn full_cycle_without_candidate_is_none() {
        let mut p = PartialPricing::default();
        assert_eq!(p.select(500, |_| None), None);
        // And the miss must not wedge the cursor: a later candidate is
        // still found.
        assert!(p.select(500, |j| (j == 3).then_some((1.0, 2.0))).is_some());
    }

    #[test]
    fn best_in_section_wins() {
        let mut p = PartialPricing::default();
        // Columns 1 and 5 both improve and sit in the first section; the
        // higher score must win even though 1 is scanned first.
        let got = p.select(64, |j| match j {
            1 => Some((1.0, 2.0)),
            5 => Some((-1.0, 7.0)),
            _ => None,
        });
        assert_eq!(got, Some((5, -1.0)));
    }

    #[test]
    fn cursor_advances_round_robin() {
        let mut p = PartialPricing::default();
        // With every column improving at equal score, successive calls
        // walk the sections instead of re-picking column 0.
        let first = p.select(600, |_| Some((1.0, 1.0))).unwrap().0;
        let second = p.select(600, |_| Some((1.0, 1.0))).unwrap().0;
        assert_eq!(first, 0);
        assert!(second > first, "cursor must move between calls");
    }
}
