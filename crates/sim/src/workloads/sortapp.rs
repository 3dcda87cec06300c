//! `sort` — in-place quicksort over a large text of words.
//!
//! §5.2: *"I considered an application that performs quicksort on a file
//! containing approximately 12 Mbytes of text (numerous copies of each
//! word in /usr/dict/words). If the text were completely unsorted to
//! begin with (sort random), so there was minimal repetition of strings
//! within an individual 4-Kbyte page, the sort program ran significantly
//! more slowly on the compression cache than the unmodified system —
//! primarily because about 98% of the pages compressed less than 4:3...
//! sort's heap compressed much better if the input file contained
//! frequent repetitions of words ... (sort partial). In this case the
//! compression ratio was about 3:1 and the application ran 23% faster."*
//!
//! The text is represented as fixed-width 16-byte records sorted in
//! place with median-of-three quicksort plus insertion sort for small
//! partitions — the classic memory-access pattern: wide partition sweeps
//! at the top of the recursion, tight locality at the bottom.

use cc_util::Ns;

use super::{datagen, fnv1a, Workload, WorkloadSummary};
use crate::vm::SegId;
use crate::System;

/// Record width: one word per record, padded/truncated.
pub const RECORD: usize = 16;

/// Input compressibility regime (the two Table 1 rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SortInput {
    /// Near-sorted with heavy in-page repetition (~3:1 pages).
    Partial,
    /// Globally shuffled words (most pages fail the threshold).
    Random,
}

/// The sort application.
#[derive(Debug, Clone)]
pub struct SortApp {
    /// Input regime.
    pub input: SortInput,
    /// Text size in bytes (rounded down to whole records).
    pub text_bytes: usize,
    /// Seed.
    pub seed: u64,
    /// CPU time per record comparison (sort(1) on a 25 MHz machine spent
    /// hundreds of instructions per line comparison; this is what made
    /// the paper's 12 MB sort take 13-26 minutes).
    pub cmp_cost: Ns,
}

impl SortApp {
    /// Table 1 scale. The paper sorted ~12 MB with ~14 MB of user memory
    /// shared with the rest of the system; our simulator gives the
    /// workload the machine exclusively, so the text is sized to page
    /// comparably (see EXPERIMENTS.md).
    pub fn table1(input: SortInput) -> Self {
        SortApp {
            input,
            text_bytes: 18 * 1024 * 1024,
            seed: 31,
            cmp_cost: Ns::from_us(25),
        }
    }

    fn records(&self) -> u64 {
        (self.text_bytes / RECORD) as u64
    }
}

struct Sorter<'a> {
    sys: &'a mut System,
    seg: SegId,
    comparisons: u64,
    swaps: u64,
    cmp_cost: Ns,
}

impl Sorter<'_> {
    fn key(&mut self, i: u64) -> [u8; RECORD] {
        let mut k = [0u8; RECORD];
        self.sys.read_slice(self.seg, i * RECORD as u64, &mut k);
        k
    }

    fn write_rec(&mut self, i: u64, k: &[u8; RECORD]) {
        self.sys.write_slice(self.seg, i * RECORD as u64, k);
    }

    fn swap(&mut self, i: u64, j: u64) {
        if i == j {
            return;
        }
        let a = self.key(i);
        let b = self.key(j);
        self.write_rec(i, &b);
        self.write_rec(j, &a);
        self.swaps += 1;
    }

    fn less(&mut self, a: &[u8; RECORD], b: &[u8; RECORD]) -> bool {
        self.comparisons += 1;
        if self.cmp_cost > Ns::ZERO {
            self.sys.compute(self.cmp_cost);
        }
        a < b
    }

    /// Iterative quicksort with insertion sort below 24 records.
    fn sort(&mut self, lo0: u64, hi0: u64) {
        let mut stack = vec![(lo0, hi0)];
        while let Some((lo, hi)) = stack.pop() {
            if hi <= lo {
                continue;
            }
            let len = hi - lo + 1;
            if len <= 24 {
                self.insertion(lo, hi);
                continue;
            }
            // Median of three.
            let mid = lo + len / 2;
            let a = self.key(lo);
            let b = self.key(mid);
            let c = self.key(hi);
            let pivot = {
                // Median selection without extra comparisons bookkeeping.
                let mut v = [a, b, c];
                v.sort_unstable();
                self.comparisons += 3;
                v[1]
            };
            // Hoare partition.
            let mut i = lo;
            let mut j = hi;
            loop {
                loop {
                    let k = self.key(i);
                    if !self.less(&k, &pivot) {
                        break;
                    }
                    i += 1;
                }
                loop {
                    let k = self.key(j);
                    if !self.less(&pivot, &k) {
                        break;
                    }
                    if j == 0 {
                        break;
                    }
                    j -= 1;
                }
                if i >= j {
                    break;
                }
                self.swap(i, j);
                i += 1;
                if j == 0 {
                    break;
                }
                j -= 1;
            }
            // Recurse on [lo, j] and [j+1, hi].
            if j > lo {
                stack.push((lo, j));
            }
            if j + 1 < hi {
                stack.push((j + 1, hi));
            }
        }
    }

    fn insertion(&mut self, lo: u64, hi: u64) {
        let mut i = lo + 1;
        while i <= hi {
            let k = self.key(i);
            let mut j = i;
            while j > lo {
                let prev = self.key(j - 1);
                if !self.less(&k, &prev) {
                    break;
                }
                self.write_rec(j, &prev);
                j -= 1;
            }
            self.write_rec(j, &k);
            i += 1;
        }
    }
}

impl Workload for SortApp {
    fn name(&self) -> String {
        match self.input {
            SortInput::Partial => "sort partial".into(),
            SortInput::Random => "sort random".into(),
        }
    }

    fn run(&mut self, sys: &mut System) -> WorkloadSummary {
        let text = match self.input {
            SortInput::Partial => datagen::repetitive_text(self.text_bytes, self.seed),
            SortInput::Random => datagen::shuffled_text(self.text_bytes, self.seed),
        };
        let nrec = self.records();
        let seg = sys.create_segment(nrec * RECORD as u64);

        // Load phase: pack each newline-terminated word into a record.
        // Records are padded to RECORD bytes the way the regime demands:
        // the paper's text had no padding, so zero-filling would add
        // artificial compressibility. `Partial` pads by cycling the word
        // (repetition within the page, like a sorted file); `Random` pads
        // with bytes derived from the word (as incompressible as the
        // shuffled text itself). Padding is deterministic, so both system
        // modes sort identical data.
        let mut rec = [0u8; RECORD];
        let mut widx = 0u64;
        let mut start = 0usize;
        for (i, &b) in text.iter().enumerate() {
            if b == b'\n' || i == text.len() - 1 {
                let word = &text[start..i];
                let n = word.len().min(RECORD);
                rec[..n].copy_from_slice(&word[..n]);
                match self.input {
                    SortInput::Partial => {
                        for j in n..RECORD {
                            rec[j] = word[(j - n) % word.len().max(1)];
                        }
                    }
                    SortInput::Random => {
                        let mut h = super::fnv1a(0, word);
                        for slot in rec[n..].iter_mut() {
                            h = h.wrapping_mul(6364136223846793005).wrapping_add(1);
                            *slot = (h >> 33) as u8;
                        }
                    }
                }
                sys.write_slice(seg, widx * RECORD as u64, &rec);
                widx += 1;
                if widx == nrec {
                    break;
                }
                start = i + 1;
            }
        }
        // Pad the tail with copies of the last record (keeps nrec fixed).
        while widx < nrec {
            sys.write_slice(seg, widx * RECORD as u64, &rec);
            widx += 1;
        }

        let mut sorter = Sorter {
            sys,
            seg,
            comparisons: 0,
            swaps: 0,
            cmp_cost: self.cmp_cost,
        };
        sorter.sort(0, nrec - 1);
        let (comparisons, swaps) = (sorter.comparisons, sorter.swaps);

        // Verify order and checksum a sample.
        let mut checksum = 0u64;
        let mut prev = [0u8; RECORD];
        let step = (nrec / 4096).max(1);
        let mut i = 0u64;
        let mut buf = [0u8; RECORD];
        while i < nrec {
            sys.read_slice(seg, i * RECORD as u64, &mut buf);
            assert!(prev <= buf, "sort produced out-of-order records at {i}");
            checksum = fnv1a(checksum, &buf);
            prev = buf;
            i += step;
        }
        WorkloadSummary {
            checksum,
            operations: comparisons + swaps,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Mode, SimConfig};

    fn small(input: SortInput) -> SortApp {
        SortApp {
            input,
            text_bytes: 192 * 1024,
            seed: 4,
            cmp_cost: Ns::ZERO,
        }
    }

    #[test]
    fn sorts_correctly_in_both_modes() {
        for input in [SortInput::Partial, SortInput::Random] {
            let mut sums = Vec::new();
            for mode in [Mode::Std, Mode::Cc] {
                let mut sys = System::new(SimConfig::decstation(64 * 1024, mode));
                sums.push(small(input).run(&mut sys).checksum);
            }
            assert_eq!(sums[0], sums[1], "{input:?}");
        }
    }

    #[test]
    fn random_input_mostly_rejected_partial_mostly_kept() {
        let rejected = |input| {
            let mut sys = System::new(SimConfig::decstation(64 * 1024, Mode::Cc));
            small(input).run(&mut sys);
            sys.core_stats().unwrap().rejected_fraction()
        };
        let partial = rejected(SortInput::Partial);
        let random = rejected(SortInput::Random);
        assert!(partial < 0.3, "partial rejected {partial}");
        assert!(random > 0.6, "random rejected {random}");
        assert!(random > partial + 0.4);
    }
}
