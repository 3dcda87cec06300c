//! The gates that read a clock: what telemetry and request tracing cost,
//! that adaptive codec selection and the recency tier policy pay at the
//! 50th percentile, and what the spill writer's queue costs in resident
//! memory. Debug code runs at another speed, so these run on release
//! codegen only (`cargo test --release -p cc-server --test timed_gates`,
//! which CI runs); `cargo test` in debug skips them. The one test runs
//! them in sequence, alone in its test binary, so no other test shares
//! the CPU or the resident set it reads. The store workloads are the
//! ones the store's own gate tests count (`crates/core/tests/support`).

#[path = "../../core/tests/support/mod.rs"]
mod support;

use cc_compress::CodecPolicy;
use cc_core::store::{CompressedStore, StoreConfig};
use cc_core::tier::TierPolicy;
use cc_server::{Client, Server, ServerConfig};
use cc_telemetry::trace::Tracer;
use cc_util::SplitMix64;
use std::sync::Arc;
use std::time::{Duration, Instant};
use support::{page_for, TempPath, Zipf, PAGE, TIER_POLICIES};

/// What [`paired_rates`] read: each arm's median trial rate, and the
/// median over the pairs of `rate on / rate off`.
struct PairedRates {
    off: f64,
    on: f64,
    on_over_off: f64,
}

impl PairedRates {
    /// Throughput the "on" arm loses, percent of the "off" rate (clamped
    /// at 0: on a noisy host "on" can measure faster).
    fn overhead_pct(&self) -> f64 {
        ((1.0 - self.on_over_off) * 100.0).max(0.0)
    }
}

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// `pairs` adjacent trials of arm 0 ("off") and arm 1 ("on"), strictly
/// interleaved, `trial(arm)` running one short trial against that arm's
/// long-lived state and returning its rate. The host's speed wanders
/// ±10 % over tens of milliseconds, so the arms alternate faster than
/// that and are compared pair by pair, each pair sharing its weather;
/// which arm of a pair runs first alternates. On a 2-vCPU guest, for a
/// true cost of ~0.5 %, the median of pair ratios read 0.03–1.19 % over
/// 40 runs, each arm's fastest trial −3.7–5.0 %, and a fresh store per
/// trial swung the *off* arm alone by ±25 %.
fn paired_rates(pairs: usize, mut trial: impl FnMut(usize) -> f64) -> PairedRates {
    let mut rates = [Vec::new(), Vec::new()];
    let mut ratios = Vec::new();
    for pair in 0..pairs {
        for arm in [pair % 2, (pair + 1) % 2] {
            rates[arm].push(trial(arm));
        }
        ratios.push(rates[1][pair] / rates[0][pair]);
    }
    let [off, on] = rates.map(|mut r| median(&mut r));
    PairedRates {
        off,
        on,
        on_over_off: median(&mut ratios),
    }
}

/// Putting 8 × the budget of fresh keys into a flat spill store grows
/// `VmRSS` by at most 3 × the budget, and the resident gauge never
/// passes the budget: the budget means memory, the writer's queue
/// included.
fn put_only_rss() {
    const BUDGET: usize = 1 << 20;
    const KEYS: u64 = 4096;
    let path = TempPath::new("timed-rss");
    let store = CompressedStore::new(
        StoreConfig::with_spill(BUDGET, &*path).with_tier_policy(TierPolicy::COMPRESS_ALL),
    );
    support::prefill(&store, KEYS);
    store.flush().expect("flush");
    let phase = support::put_only_phase(&store, KEYS, BUDGET);
    drop(store);
    println!(
        "put-only phase: VmRSS +{} B, max resident {} B (budget {BUDGET})",
        phase.rss_growth, phase.max_resident
    );
    assert!(
        phase.max_resident <= BUDGET as u64,
        "put-only phase: saw {} resident with budget {BUDGET}",
        phase.max_resident
    );
    assert!(
        phase.rss_growth <= 3 * BUDGET as u64,
        "VmRSS grew {} B putting 8 x the {BUDGET} B budget (limit 3 x budget)",
        phase.rss_growth
    );
}

/// Telemetry costs at most 5 % of the single-thread zipfian mix's
/// throughput, against the same store with `with_telemetry(false)`.
fn telemetry_overhead() {
    const KEYS: u64 = 4096;
    const PAIRS: usize = 108;
    const OPS: u64 = 60_000 / PAIRS as u64;
    let zipf = Zipf::new(KEYS, 0.99);
    let mut arms = [false, true].map(|telemetry| {
        let store = CompressedStore::new(
            StoreConfig::in_memory(64 << 20)
                .with_shards(1)
                .with_telemetry(telemetry)
                .with_tier_policy(TierPolicy::COMPRESS_ALL),
        );
        support::prefill(&store, KEYS);
        (store, SplitMix64::new(0xBEEF))
    });
    let (mut page, mut out) = (vec![0u8; PAGE], vec![0u8; PAGE]);
    let r = paired_rates(PAIRS, |arm| {
        let (store, rng) = &mut arms[arm];
        let t0 = Instant::now();
        for _ in 0..OPS {
            support::mixed_op(store, &zipf, rng, &mut page, &mut out);
        }
        OPS as f64 / t0.elapsed().as_secs_f64()
    });
    println!(
        "telemetry: overhead {:.2} % ({:.0} ops/s on, {:.0} off)",
        r.overhead_pct(),
        r.on,
        r.off
    );
    assert!(r.overhead_pct() <= 5.0, "telemetry costs more than 5 %");
}

/// Request tracing at the default 1-in-64 sampling costs at most 5 % of
/// a closed-loop client's throughput over loopback, against an untraced
/// server. One long-lived server and connection per arm: a fresh server
/// per trial failed the gate on host noise alone.
fn tracing_overhead() {
    const KEYS: u64 = 1024;
    const PAIRS: usize = 96;
    // Two periods of the 1-in-64 sampling: every traced trial records
    // the same number of requests.
    const OPS: u64 = 128;
    let zipf = Zipf::new(KEYS, 0.99);
    let mut arms = [false, true].map(|traced| {
        let mut cfg = StoreConfig::in_memory(8 << 20);
        if traced {
            let tracer = Tracer::builder()
                .ring_capacity(1 << 13)
                .sink_memory()
                .build();
            cfg = cfg.with_tracer(Arc::new(tracer));
        }
        let store = Arc::new(CompressedStore::new(cfg));
        let server = Server::spawn(store, "127.0.0.1:0", ServerConfig::default()).expect("spawn");
        let mut client = Client::connect(server.local_addr()).expect("connect");
        client
            .set_timeout(Some(Duration::from_secs(30)))
            .expect("timeout");
        (server, client, SplitMix64::new(0xF00D))
    });
    let (mut page, mut out) = (vec![0u8; PAGE], Vec::with_capacity(PAGE));
    let r = paired_rates(PAIRS, |arm| {
        let (_, client, rng) = &mut arms[arm];
        let t0 = Instant::now();
        for _ in 0..OPS {
            let key = zipf.sample(rng);
            match rng.next_u64() % 10 {
                0..=4 => {
                    page_for(key, &mut page);
                    client.put(key, &page).expect("put");
                }
                5..=8 => {
                    client.get(key, &mut out).expect("get");
                }
                _ => {
                    client.del(key).expect("del");
                }
            }
        }
        OPS as f64 / t0.elapsed().as_secs_f64()
    });
    for (server, client, _) in arms {
        drop(client);
        server.shutdown();
    }
    println!(
        "tracing: overhead {:.2} % ({:.0} ops/s traced, {:.0} untraced)",
        r.overhead_pct(),
        r.on,
        r.off
    );
    assert!(r.overhead_pct() <= 5.0, "tracing costs more than 5 %");
}

/// On the pattern-heavy mix, adaptive codec selection puts no slower at
/// p50 than the LZRW1-only baseline.
fn adaptive_put_p50() {
    let [lz, ad] = [CodecPolicy::Lzrw1Only, CodecPolicy::Adaptive]
        .map(|policy| support::codec_trial(policy, 4096, 20_000, 0).put_p50_ns);
    println!("put p50: adaptive {ad} ns, lzrw1-only {lz} ns");
    assert!(ad <= lz, "adaptive put p50 {ad} ns over lzrw1-only {lz} ns");
}

/// On the hot-skewed mix at equal budget, the recency tier policy gets
/// faster at p50 than compress-all: hot hits are copies, not decodes.
/// 2 048 keys compress to about 4 MB, so a 3 MiB budget forces real
/// placement decisions, at the op clock the recency arm's idle windows
/// are sized for.
fn recency_get_p50() {
    let [flat, recency] = [0, 2].map(|arm| {
        let (name, policy) = TIER_POLICIES[arm];
        let path = TempPath::new(&format!("timed-{name}"));
        support::tier_arm(policy, 2048, 3 << 20, 0.99, 8_000, &path).get_p50_ns
    });
    println!("get p50: recency {recency} ns, compress-all {flat} ns");
    assert!(
        recency < flat,
        "recency get p50 {recency} ns not under compress-all {flat} ns"
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "timed: release codegen only")]
fn timed_gates_hold_on_release_codegen() {
    put_only_rss();
    telemetry_overhead();
    tracing_overhead();
    adaptive_put_p50();
    recency_get_p50();
}
