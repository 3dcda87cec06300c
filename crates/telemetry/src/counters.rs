//! Striped, cache-padded monotonic counters.
//!
//! A [`CounterBank`] holds the monotonic counters of one
//! [`Telemetry`](crate::Telemetry) instance — the store's statistics of
//! record, the server's wire counters — striped so that writers on
//! different threads (the store stripes by shard) never share a word.
//! Every *(stripe, counter)* pair has its own cache line: writers do one
//! uncontended relaxed `fetch_add` and take no lock, and readers sum the
//! stripes with per-field atomic loads, so each field is individually
//! exact even while writers run.

use std::sync::atomic::{AtomicU64, Ordering};

use cc_util::Padded;

/// A bank of named monotonic counters, striped `stripes` ways.
///
/// Writers pick a stripe (typically their shard index) and add; readers
/// sum the stripes of one counter. Sums are monotone and per-field exact:
/// a concurrent reader may see counter A from slightly before counter B,
/// but never a torn or decreasing value.
pub struct CounterBank {
    names: &'static [&'static str],
    stripes: usize,
    /// Stripe-major: `cells[stripe * names.len() + counter]`, each
    /// counter on its own cache lines so neighbouring stripes (or
    /// neighbouring counters of one stripe) never false-share.
    cells: Box<[Padded<AtomicU64>]>,
}

impl CounterBank {
    /// Create a bank of `names.len()` counters striped `stripes` ways
    /// (`stripes` is clamped to at least 1).
    pub fn new(stripes: usize, names: &'static [&'static str]) -> Self {
        let stripes = stripes.max(1);
        let cells = (0..stripes * names.len())
            .map(|_| Padded::default())
            .collect();
        CounterBank {
            names,
            stripes,
            cells,
        }
    }

    /// The counter names, in index order.
    pub fn names(&self) -> &'static [&'static str] {
        self.names
    }

    /// Number of stripes.
    pub fn stripes(&self) -> usize {
        self.stripes
    }

    /// Add `n` to `counter` on `stripe` (stripe wraps modulo the bank).
    #[inline]
    pub fn add(&self, stripe: usize, counter: usize, n: u64) {
        debug_assert!(counter < self.names.len(), "counter {counter} out of range");
        let stripe = stripe % self.stripes;
        self.cells[stripe * self.names.len() + counter]
            .0
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Sum of `counter` across all stripes.
    pub fn sum(&self, counter: usize) -> u64 {
        debug_assert!(counter < self.names.len(), "counter {counter} out of range");
        (0..self.stripes)
            .map(|s| {
                self.cells[s * self.names.len() + counter]
                    .0
                    .load(Ordering::Relaxed)
            })
            .sum()
    }

    /// `(name, sum)` for every counter.
    pub fn sums(&self) -> Vec<(&'static str, u64)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, &n)| (n, self.sum(i)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    const NAMES: &[&str] = &["a", "b", "c"];

    #[test]
    fn add_and_sum() {
        let bank = CounterBank::new(4, NAMES);
        bank.add(0, 0, 1);
        bank.add(1, 0, 2);
        bank.add(7, 0, 4); // wraps to stripe 3
        bank.add(2, 2, 10);
        assert_eq!(bank.sum(0), 7);
        assert_eq!(bank.sum(1), 0);
        assert_eq!(bank.sum(2), 10);
        assert_eq!(bank.sums(), vec![("a", 7), ("b", 0), ("c", 10)]);
    }

    #[test]
    fn zero_stripes_clamps_to_one() {
        let bank = CounterBank::new(0, NAMES);
        bank.add(5, 1, 3);
        assert_eq!(bank.sum(1), 3);
    }

    #[test]
    fn concurrent_adds_are_exact() {
        let bank = Arc::new(CounterBank::new(8, NAMES));
        let mut handles = Vec::new();
        for t in 0..8usize {
            let bank = Arc::clone(&bank);
            handles.push(std::thread::spawn(move || {
                for i in 0..10_000u64 {
                    bank.add(t, (i % 3) as usize, 1);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let total: u64 = (0..3).map(|c| bank.sum(c)).sum();
        assert_eq!(total, 80_000);
    }
}
