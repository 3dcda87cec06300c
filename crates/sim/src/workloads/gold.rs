//! `gold` — a main-memory inverted-index engine (the Gold Mailer's
//! "index engine", Barbará et al. 1993).
//!
//! §5.2: *"one might expect that a main-memory database would benefit
//! from the compression cache if it fits in memory when compressed but
//! not otherwise... Indeed, one such database, the 'index engine' for the
//! Gold Mailer, compresses slightly worse than 2:1; it runs more slowly
//! under the compression cache than on an unmodified system. This is
//! partly due to the poor compression and partly due to the high fraction
//! of nonsequential page accesses."*
//!
//! The engine here is a real inverted index living in simulated memory:
//! a bucketed hash table of terms with chained postings. `create` builds
//! it from synthetic mail messages; `queries` walks postings for random
//! terms. Posting records deliberately carry a message fingerprint word,
//! which is what keeps their pages "slightly worse than 2:1" — measured,
//! not scripted.

use cc_util::{Ns, SplitMix64};

use super::{datagen::WordList, fnv1a, Workload, WorkloadSummary};
use crate::vm::SegId;
use crate::System;

/// Which Table 1 row to run (create / cold / warm).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GoldPhase {
    /// Build a new index from scratch (write-heavy).
    Create,
    /// Queries right after start: the index is on backing store.
    Cold,
    /// The same queries again with the engine warm.
    Warm,
}

/// The index engine.
#[derive(Debug, Clone)]
pub struct GoldApp {
    /// Number of synthetic mail messages to index.
    pub messages: u32,
    /// Mean words per message.
    pub words_per_message: u32,
    /// Dictionary size (distinct terms).
    pub vocabulary: usize,
    /// Hash buckets.
    pub buckets: u32,
    /// Queries per query phase.
    pub queries: u32,
    /// Seed.
    pub seed: u64,
    /// CPU time to parse/tokenize one message during create (the real
    /// engine read and parsed mail files).
    pub parse_cost: Ns,
    /// CPU time to parse one query and format its results.
    pub query_cost: Ns,
}

// Index layout inside one segment:
//   [bucket heads: u32 x buckets][node pool: bump-allocated records]
// Term node (20 B): tag 'T', term hash u32, postings head u32, next term
//   u32, doc count u32, pad.
// Posting node (12 B): doc id u32, fingerprint u32, next u32.
const TERM_NODE: u64 = 20;
const POST_NODE: u64 = 12;

impl GoldApp {
    /// Table 1 scale: an index of roughly 20 MB against 14 MB of memory.
    pub fn table1() -> Self {
        GoldApp {
            messages: 20_000,
            words_per_message: 50,
            vocabulary: 50_000,
            buckets: 1 << 15,
            queries: 25_000,
            seed: 41,
            parse_cost: Ns::from_ms(18),
            query_cost: Ns::from_ms(3),
        }
    }

    /// Upper bound on the index segment size (nwords per message can
    /// reach 1.5x the mean; attachment blobs up to 6 KB on ~18% of
    /// messages).
    pub fn segment_bytes(&self) -> u64 {
        let postings = self.messages as u64 * self.words_per_message as u64 * 3 / 2;
        self.buckets as u64 * 4
            + self.vocabulary as u64 * TERM_NODE
            + postings * POST_NODE
            + self.messages as u64 * 1800
            + 8192
    }

    fn hash_term(term: &str) -> u32 {
        let mut h: u32 = 2166136261;
        for b in term.bytes() {
            h ^= b as u32;
            h = h.wrapping_mul(16777619);
        }
        h | 1 // never zero (zero means empty)
    }

    /// Build the index; returns a checksum over engine state.
    pub fn create(&self, sys: &mut System, seg: SegId) -> u64 {
        let dict = WordList::generate(self.vocabulary, self.seed);
        let mut rng = SplitMix64::new(self.seed ^ 0x601D);
        let pool_base = self.buckets as u64 * 4;
        // Bump pointer held in the application (a register, essentially).
        let mut bump = pool_base;
        let mut checksum = 0u64;

        let mut blob = vec![0u8; 6 * 1024];
        for doc in 0..self.messages {
            if self.parse_cost > Ns::ZERO {
                sys.compute(self.parse_cost);
            }
            // Some messages carry an attachment digest: a run of
            // high-entropy bytes stored inline in the engine's pool.
            // These are the pages Table 1 reports as uncompressible (42%
            // of pages for gold create).
            if rng.gen_bool(0.10) {
                let len = (1024 + rng.gen_index(3072)) & !3;
                for b in blob[..len].iter_mut() {
                    *b = rng.next_u64() as u8;
                }
                sys.write_slice(seg, bump, &blob[..len]);
                bump += len as u64;
            }
            let nwords =
                self.words_per_message / 2 + rng.gen_range(self.words_per_message as u64) as u32;
            for _ in 0..nwords {
                // Zipf-ish term choice: square the uniform to skew.
                let u = rng.gen_f64();
                let idx = ((u * u) * dict.len() as f64) as usize % dict.len();
                let term = dict.word(idx);
                let h = Self::hash_term(term);
                let bucket_off = (h % self.buckets) as u64 * 4;

                // Find the term node in the chain.
                let mut node = sys.read_u32(seg, bucket_off) as u64;
                let mut found = 0u64;
                while node != 0 {
                    let nh = sys.read_u32(seg, node);
                    if nh == h {
                        found = node;
                        break;
                    }
                    node = sys.read_u32(seg, node + 12) as u64; // next term
                }
                let term_node = if found != 0 {
                    found
                } else {
                    // Allocate a term node at the bump pointer.
                    let n = bump;
                    bump += TERM_NODE;
                    sys.write_u32(seg, n, h);
                    sys.write_u32(seg, n + 4, 0); // postings head
                    let old_head = sys.read_u32(seg, bucket_off);
                    sys.write_u32(seg, n + 12, old_head); // next term
                    sys.write_u32(seg, n + 16, 0); // count
                    sys.write_u32(seg, bucket_off, n as u32);
                    n
                };
                // Prepend a posting.
                let p = bump;
                bump += POST_NODE;
                // Message digest word: 14 random bits — enough entropy to
                // hold index pages near the paper's 2:1 (a full random
                // word pushes pages past the 4:3 threshold entirely).
                let fingerprint = (rng.next_u32() & 0x3FFF) | (doc << 14);
                sys.write_u32(seg, p, doc);
                sys.write_u32(seg, p + 4, fingerprint);
                let old = sys.read_u32(seg, term_node + 4);
                sys.write_u32(seg, p + 8, old);
                sys.write_u32(seg, term_node + 4, p as u32);
                let count = sys.read_u32(seg, term_node + 16);
                sys.write_u32(seg, term_node + 16, count + 1);
            }
            if doc % 1000 == 0 {
                checksum = fnv1a(checksum, &bump.to_le_bytes());
            }
        }
        fnv1a(checksum, &bump.to_le_bytes())
    }

    /// Run the query mix; returns a result checksum.
    pub fn run_queries(&self, sys: &mut System, seg: SegId, query_seed: u64) -> u64 {
        let dict = WordList::generate(self.vocabulary, self.seed);
        let mut rng = SplitMix64::new(query_seed);
        let mut checksum = 0u64;
        for _ in 0..self.queries {
            if self.query_cost > Ns::ZERO {
                sys.compute(self.query_cost);
            }
            let u = rng.gen_f64();
            let idx = ((u * u) * dict.len() as f64) as usize % dict.len();
            let term = dict.word(idx);
            let h = Self::hash_term(term);
            let bucket_off = (h % self.buckets) as u64 * 4;
            let mut node = sys.read_u32(seg, bucket_off) as u64;
            let mut hits = 0u32;
            while node != 0 {
                let nh = sys.read_u32(seg, node);
                if nh == h {
                    // Walk up to 40 postings (a result page).
                    let mut p = sys.read_u32(seg, node + 4) as u64;
                    let mut n = 0;
                    while p != 0 && n < 40 {
                        hits = hits.wrapping_add(sys.read_u32(seg, p));
                        p = sys.read_u32(seg, p + 8) as u64;
                        n += 1;
                    }
                    break;
                }
                node = sys.read_u32(seg, node + 12) as u64;
            }
            checksum = fnv1a(checksum, &hits.to_le_bytes());
        }
        checksum
    }

    /// Evict the engine from memory by cycling a scratch segment sized to
    /// physical memory (the "engine having just started" condition of
    /// gold_cold, where its address space is entirely on backing store).
    pub fn flush_memory(&self, sys: &mut System) {
        let bytes = sys.config().user_memory_bytes as u64 + 2 * 1024 * 1024;
        let scratch = sys.create_segment(bytes);
        for p in 0..bytes / 4096 {
            sys.write_u32(scratch, p * 4096, p as u32);
        }
        sys.release_segment(scratch);
    }
}

/// Workload wrapper running one Table 1 gold row end to end; the measured
/// window is handled by the Table 1 harness via clock deltas around the
/// phase methods — `run` here measures the whole thing (used in tests).
#[derive(Debug, Clone)]
pub struct GoldWorkload {
    /// Engine parameters.
    pub app: GoldApp,
    /// Which row.
    pub phase: GoldPhase,
}

impl Workload for GoldWorkload {
    fn name(&self) -> String {
        match self.phase {
            GoldPhase::Create => "gold create".into(),
            GoldPhase::Cold => "gold cold".into(),
            GoldPhase::Warm => "gold warm".into(),
        }
    }

    fn run(&mut self, sys: &mut System) -> WorkloadSummary {
        let seg = sys.create_segment(self.app.segment_bytes());
        let create_sum = self.app.create(sys, seg);
        let checksum = match self.phase {
            GoldPhase::Create => create_sum,
            GoldPhase::Cold => {
                self.app.flush_memory(sys);
                self.app.run_queries(sys, seg, 77)
            }
            GoldPhase::Warm => {
                self.app.flush_memory(sys);
                self.app.run_queries(sys, seg, 77);
                // The paper's warm run repeats the same query set.
                self.app.run_queries(sys, seg, 77)
            }
        };
        WorkloadSummary {
            checksum,
            operations: self.app.queries as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Mode, SimConfig};

    fn small() -> GoldApp {
        GoldApp {
            messages: 800,
            words_per_message: 40,
            vocabulary: 2000,
            buckets: 512,
            queries: 2000,
            seed: 6,
            parse_cost: Ns::ZERO,
            query_cost: Ns::ZERO,
        }
    }

    #[test]
    fn create_and_query_deterministic_across_modes() {
        for phase in [GoldPhase::Create, GoldPhase::Cold] {
            let mut sums = Vec::new();
            for mode in [Mode::Std, Mode::Cc] {
                let mut sys = System::new(SimConfig::decstation(512 * 1024, mode));
                let mut w = GoldWorkload {
                    app: small(),
                    phase,
                };
                sums.push(w.run(&mut sys).checksum);
            }
            assert_eq!(sums[0], sums[1], "{phase:?}");
        }
    }

    #[test]
    fn queries_find_postings() {
        let mut sys = System::new(SimConfig::decstation(4 * 1024 * 1024, Mode::Std));
        let app = small();
        let seg = sys.create_segment(app.segment_bytes());
        app.create(&mut sys, seg);
        let a = app.run_queries(&mut sys, seg, 1);
        let b = app.run_queries(&mut sys, seg, 2);
        // Different query streams give different results; same stream
        // repeats exactly.
        assert_ne!(a, b);
        assert_eq!(app.run_queries(&mut sys, seg, 1), a);
    }

    #[test]
    fn index_pages_compress_worse_than_good_apps() {
        let mut sys = System::new(SimConfig::decstation(256 * 1024, Mode::Cc));
        let mut w = GoldWorkload {
            app: small(),
            phase: GoldPhase::Create,
        };
        w.run(&mut sys);
        let core = sys.core_stats().unwrap();
        assert!(core.compress_attempts > 0);
        let frac = core.mean_kept_fraction();
        // Paper: ~59-60% for gold create/cold ("slightly worse than
        // 2:1"). The fingerprint words keep this off the floor.
        assert!((0.30..0.75).contains(&frac), "gold kept fraction {frac}");
        assert!(
            core.rejected_fraction() > 0.02,
            "gold should have uncompressible pages: {}",
            core.rejected_fraction()
        );
    }
}
