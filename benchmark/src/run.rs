//! One run of one workload: the untraced run that yields the end-to-end
//! metrics, and the traced run that yields the per-layer ones and checks
//! that the workload sits where it was designed to sit.

use crate::bench::{disturbed, out_dir, Bench, Options, Round};
use crate::driver::span_every;
use crate::medium::OpTotals;
use crate::pages::PAGE;
use crate::probes::{codec_times, round_trips, wire_codec_times, CodecTimes};
use crate::report::{Metrics, Outcome};
use crate::stats::{fast_quantile, median, Better, FAST};
use crate::sys;
use crate::trace::{layer_times, write_json};
use crate::workload::{Spec, Target, DESIGN_SECONDS, ROUNDS};
use cc_core::StoreStats;
use std::time::{Duration, Instant};

/// How much of the design a run does.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    pub ops_per_round: u64,
    pub rounds: usize,
    /// Times set-up is done (and timed); the last one is measured on.
    pub setups: usize,
    /// `--quick`: too short to judge, so design points are not checked.
    pub quick: bool,
    /// No round starts once the rounds have taken this long: half as long
    /// again as they should. The work is fixed, so a host at half speed
    /// would otherwise take a run past the time the driver allows it; a
    /// run cut short says so and attempts fewer operations.
    pub rounds_deadline: Duration,
}

impl Size {
    /// The run `--seconds` asks for: the design's rounds, with work scaled
    /// so that they take about that long here.
    pub fn for_seconds(spec: &Spec, seconds: u64) -> Size {
        Size {
            ops_per_round: (spec.ops_per_round * seconds / DESIGN_SECONDS).max(1_000),
            rounds: ROUNDS,
            setups: spec.setups,
            quick: false,
            rounds_deadline: Duration::from_secs(seconds * 3 / 2),
        }
    }

    /// Three rounds of a fiftieth of the design's work each (about 0.3 s),
    /// one set-up.
    pub fn quick(spec: &Spec) -> Size {
        Size {
            ops_per_round: spec.ops_per_round * ROUNDS as u64 / 50,
            rounds: 3,
            setups: 1,
            quick: true,
            rounds_deadline: Duration::from_secs(60),
        }
    }

    pub fn total_ops(&self) -> u64 {
        self.ops_per_round * self.rounds as u64
    }

    /// The warm-up that ends set-up: a fiftieth of the run's work (two
    /// rounds, about 0.3 s).
    pub fn warmup_ops(&self) -> u64 {
        self.total_ops() / 50
    }
}

fn over_rounds(rounds: &[Round], f: impl Fn(&Round) -> f64, better: Better) -> f64 {
    let v: Vec<f64> = rounds.iter().map(f).collect();
    fast_quantile(&v, better, FAST)
}

/// Bytes the store holds per byte the user stored: memory plus live file
/// space. Dead file space is left out; it swings with GC timing and is
/// reported as `spill.dead_ratio_end`.
fn stored_per_user_byte(s: &StoreStats, live_keys: u64) -> f64 {
    (s.resident_bytes + s.bytes_on_spill - s.spill_dead_bytes) as f64
        / (live_keys * PAGE as u64) as f64
}

fn describe(spec: &Spec, seed: u64, size: &Size, traced: bool) {
    println!(
        "ccbench {} seed={seed} trace={} rounds={} ops_per_round={} keys={} budget_mib={} zipf={} get_pct={} \
         closed loop, 1 driver thread, cpus={}",
        spec.name,
        traced as u8,
        size.rounds,
        size.ops_per_round,
        spec.keys,
        spec.budget >> 20,
        spec.zipf_s,
        spec.get_pct,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    println!("  why: {}", spec.why);
}

fn print_rounds(rounds: &[Round]) {
    for (i, r) in rounds.iter().enumerate() {
        println!(
            "  round {:>2}{} {:>10.0} ops/s  get p50 {:>8.2} us  put p50 {:>8.2} us  cpu {:>6.3} us/op  calib {:>5.2} ms",
            i + 1,
            if r.traced { " (traced)" } else { "" },
            r.ops_per_s(),
            r.get.p50_ns / 1e3,
            r.put.p50_ns / 1e3,
            r.cpu_us_per_op(),
            r.calib_ns as f64 / 1e6,
        );
    }
}

/// The untraced run: set-up (timed, repeated), rounds of fixed work, then
/// the space the store ends up using.
pub fn untraced(spec: &'static Spec, seed: u64, size: Size) -> Outcome {
    describe(spec, seed, &size, false);
    let mut setup_s = Vec::new();
    let mut bench = None;
    for _ in 0..size.setups {
        // The previous store, server and spill file go before the next
        // are built, so peak memory is one store's, not two.
        drop(bench.take());
        let t = Instant::now();
        bench = Some(Bench::set_up(
            spec,
            seed,
            size.warmup_ops(),
            Options::SHIPPED,
        ));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut bench = bench.expect("at least one set-up");

    let mut over_budget = false;
    let started = Instant::now();
    let rounds: Vec<Round> = (0..size.rounds)
        .map_while(|i| {
            if i > 0 && started.elapsed() >= size.rounds_deadline {
                return None;
            }
            let r = bench.round(size.ops_per_round, None);
            over_budget |= r.resident_bytes > spec.budget as u64;
            Some(r)
        })
        .collect();
    bench.store.flush().expect("flush after the last round");
    let stats = bench.store.stats();
    over_budget |= stats.resident_bytes > spec.budget as u64;

    let mut m = Metrics::default();
    m.set(
        "ops_per_s",
        over_rounds(&rounds, Round::ops_per_s, Better::Higher),
    );
    m.set(
        "get_p50_us",
        over_rounds(&rounds, |r| r.get.p50_ns / 1e3, Better::Lower),
    );
    m.set(
        "put_p50_us",
        over_rounds(&rounds, |r| r.put.p50_ns / 1e3, Better::Lower),
    );
    m.set(
        "cpu_us_per_op",
        over_rounds(&rounds, Round::cpu_us_per_op, Better::Lower),
    );
    m.set(
        "stored_bytes_per_user_byte",
        stored_per_user_byte(&stats, bench.driver.live_keys()),
    );
    m.set(
        "peak_rss_mb",
        sys::peak_rss_bytes() as f64 / (1 << 20) as f64,
    );
    m.set("setup_s", median(&setup_s));

    let d = &bench.driver;
    let calib: Vec<f64> = rounds.iter().map(|r| r.calib_ns as f64).collect();
    print_rounds(&rounds);
    println!(
        "  rounds_done={}/{} attempted={} failed={} wrong_bytes={} over_budget={over_budget} get_samples={} \
         put_samples={} op_stream_hash={:#018x} live_keys={} disturbed={} setups_s={:.3?}",
        rounds.len(),
        size.rounds,
        d.attempted,
        d.failed,
        d.wrong_bytes,
        rounds.iter().map(|r| r.get.n).sum::<u64>(),
        rounds.iter().map(|r| r.put.n).sum::<u64>(),
        d.op_stream_hash(),
        d.live_keys(),
        disturbed(&calib),
        setup_s,
    );
    if spec.target == Target::StoreSpill {
        println!(
            "  spill file on {} (guest page cache: these are the sandbox's latencies, not a device's), {} bytes, {} dead",
            sys::filesystem_of(&out_dir()),
            stats.bytes_on_spill,
            stats.spill_dead_bytes
        );
    }
    Outcome {
        correct: d.wrong_bytes == 0 && !over_budget,
        attempted: d.attempted,
        failed: d.failed,
        metrics: m,
    }
}

/// `(workload, per-layer metric, true for "at least" / false for "at most",
/// limit)`: where the traced run must find each workload, or exit non-zero.
const DESIGN_POINTS: [(&str, &str, bool, f64); 7] = [
    ("store_hot_read", "store.hit_hot_share", true, 0.70),
    (
        "store_hot_read",
        "compress.est_share_of_driver_pct",
        false,
        15.0,
    ),
    (
        "store_put_codec",
        "compress.est_share_of_driver_pct",
        true,
        40.0,
    ),
    ("store_spill_churn", "store.hit_cold_share", true, 0.30),
    ("store_spill_churn", "spill.gc_runs", true, 3.0),
    ("store_spill_churn", "medium.writes", true, 1.0),
    ("wire_pipelined", "server.store_share_pct", false, 35.0),
];

/// Counter differences over the measured rounds.
fn delta(after: &StoreStats, before: &StoreStats, f: impl Fn(&StoreStats) -> u64) -> f64 {
    (f(after) - f(before)) as f64
}

fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// The traced run: rounds alternate untraced and traced (so tracing
/// overhead is measured against the same minutes of host weather), then
/// each layer is probed on its own.
pub fn traced(spec: &'static Spec, seed: u64, size: Size) -> Outcome {
    describe(spec, seed, &size, true);
    // Rounds of half length, alternately untraced and traced: about the
    // work of the untraced run, and as many adjacent pairs as it has
    // rounds to take the tracing overhead from. The probes that follow
    // run apart from the rounds and need more than a short round to
    // settle: a twenty-sixth of the run's work each (about 0.8 s).
    let n = size.ops_per_round / 2;
    let probe_n = size.total_ops() / 26;
    let opts = Options {
        count_medium: true,
        ..Options::SHIPPED
    };
    let mut b = Bench::set_up(spec, seed, size.warmup_ops(), opts);
    b.driver.span_every = span_every(size.total_ops());
    let rss_overhead = b.rss_overhead_bytes_per_entry;
    let stats0 = b.store.stats();
    let medium_totals = |b: &Bench| {
        b.medium
            .as_ref()
            .map(|m| [m.write_at.totals(), m.read_at.totals(), m.flush.totals()])
    };
    let medium0 = medium_totals(&b);

    let mut over_budget = false;
    let n_rounds = 2 * (size.rounds - 1);
    let started = Instant::now();
    let rounds: Vec<Round> = (1..=n_rounds as u32)
        .map_while(|i| {
            // Only between pairs, so every traced round keeps its partner.
            if i > 1 && i % 2 == 1 && started.elapsed() >= size.rounds_deadline {
                return None;
            }
            let r = b.round(n, (i % 2 == 0).then_some(i));
            over_budget |= r.resident_bytes > spec.budget as u64;
            Some(r)
        })
        .collect();
    let t = Instant::now();
    b.store.flush().expect("flush after the last round");
    let flush_ms = t.elapsed().as_secs_f64() * 1e3;
    let stats1 = b.store.stats();
    let medium1 = medium_totals(&b);
    let t = Instant::now();
    b.store.demote_now();
    let demote_now_ms = t.elapsed().as_secs_f64() * 1e3;

    // Unpipelined round trips, then the server's shutdown.
    // Key 13 holds a text page: LZRW1 on PUT, a decompress on GET.
    const PROBE_KEY: u64 = 13;
    let probe_page = b.driver.current_page(PROBE_KEY).to_vec();
    let mut rtt = [0.0; 3];
    let mut connect_ms = 0.0;
    if let Some(w) = &mut b.wire {
        connect_ms = w.connect_ns as f64 / 1e6;
        rtt = round_trips(&mut w.client, PROBE_KEY, &probe_page).expect("round-trip probe");
    }
    let shutdown_ms = b.shut_down_server() as f64 / 1e6;

    let clock_ns = b.driver.tracer.read_cost_ns();
    let mut spans = std::mem::take(&mut b.driver.tracer.spans);
    if let Some(m) = &b.medium {
        spans.extend(m.spans());
    }
    let trace_path = out_dir().join(format!("trace-{}.json", spec.name));
    write_json(&trace_path, spec.name, seed, &spans).expect("write the trace");
    let layers = layer_times(&spans);
    let layer_mean = |name: &str| layers.get(name).map_or(0.0, |l| l.mean_ns());

    // Each layer on its own.
    let codec = codec_times(b.driver.pool());
    let wire_codec = if spec.target == Target::Wire {
        wire_codec_times(&probe_page)
    } else {
        Default::default()
    };
    let driver_ns = Bench::driver_ns_per_op(spec, seed, probe_n);
    let failed = b.driver.failed;
    let (attempted, wrong_bytes) = (b.driver.attempted, b.driver.wrong_bytes);
    drop(b);
    // The same stream with and without store telemetry, interleaved, best
    // of two each; on the wire workload the store is driven bare, which
    // also gives the store's share of a wire operation.
    let replay = |telemetry: bool| {
        let opts = Options {
            telemetry,
            bare_store: spec.target == Target::Wire,
            count_medium: false,
        };
        Bench::replay_ns_per_op(spec, seed, probe_n, opts)
    };
    let (mut with_tel, mut without_tel) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..2 {
        with_tel = with_tel.min(replay(true));
        without_tel = without_tel.min(replay(false));
    }

    // Totals over the measured rounds.
    let all = |f: &dyn Fn(&Round) -> u64| rounds.iter().map(f).sum::<u64>() as f64;
    let (ops, gets, puts) = (all(&|r| r.ops), all(&|r| r.gets), all(&|r| r.puts));
    let wall_ns = all(&|r| r.wall_ns);
    let (plain, with_spans): (Vec<Round>, Vec<Round>) =
        rounds.iter().copied().partition(|r| !r.traced);
    let d = |f: fn(&StoreStats) -> u64| delta(&stats1, &stats0, f);
    let user_bytes = puts * PAGE as f64;

    let mut m = Metrics::default();

    // harness.*
    let calib: Vec<f64> = rounds.iter().map(|r| r.calib_ns as f64).collect();
    m.set("harness.calib_ns", fast_quantile(&calib, Better::Lower, 4));
    let rates: Vec<f64> = rounds.iter().map(Round::ops_per_s).collect();
    let spread = rates.iter().copied().fold(0.0, f64::max)
        - rates.iter().copied().fold(f64::INFINITY, f64::min);
    m.set("harness.rounds_spread_pct", 100.0 * spread / median(&rates));
    m.set("harness.driver_ns_per_op", driver_ns);
    // Each traced round against the untraced round just before it: the
    // pair shares its minute of host weather, the median pair is typical.
    let pair_ratios: Vec<f64> = plain
        .iter()
        .zip(&with_spans)
        .map(|(u, t)| t.ops_per_s() / u.ops_per_s())
        .collect();
    m.set(
        "harness.trace_overhead_pct",
        100.0 * (1.0 - median(&pair_ratios)),
    );
    // Reconcile the traced rounds: sampled call spans (less the clock read
    // each one includes) scaled to every op, plus the driver's own share,
    // against the wall clock.
    let traced_ops: f64 = with_spans.iter().map(|r| r.ops as f64).sum();
    let traced_wall: f64 = with_spans.iter().map(|r| r.wall_ns as f64).sum();
    let sampled_ops = layers.get("driver.op").map_or(0.0, |l| l.count as f64);
    let call_ns: f64 = ["store.put", "store.get", "client.send", "client.recv"]
        .iter()
        .filter_map(|n| layers.get(n))
        .map(|l| l.total_ns as f64 - clock_ns * l.count as f64)
        .sum();
    let attributed = share(call_ns, sampled_ops) * traced_ops + driver_ns * traced_ops;
    let unattributed_pct = 100.0 * (1.0 - share(attributed, traced_wall));
    m.set("harness.unattributed_pct", unattributed_pct);

    // driver.*
    m.set(
        "driver.get_mean_us",
        over_rounds(&rounds, |r| r.get.mean_ns / 1e3, Better::Lower),
    );
    m.set(
        "driver.put_mean_us",
        over_rounds(&rounds, |r| r.put.mean_ns / 1e3, Better::Lower),
    );
    m.set(
        "driver.get_p99_us",
        over_rounds(&rounds, |r| r.get.p99_ns / 1e3, Better::Lower),
    );
    m.set(
        "driver.put_p99_us",
        over_rounds(&rounds, |r| r.put.p99_ns / 1e3, Better::Lower),
    );
    m.set(
        "driver.get_max_us",
        rounds.iter().map(|r| r.get.max_ns).fold(0.0, f64::max) / 1e3,
    );
    m.set(
        "driver.put_max_us",
        rounds.iter().map(|r| r.put.max_ns).fold(0.0, f64::max) / 1e3,
    );
    let driver_cpu = |r: &Round| r.driver_cpu_ns as f64 / 1e3 / r.ops as f64;
    m.set(
        "driver.cpu_us_per_op",
        over_rounds(&rounds, driver_cpu, Better::Lower),
    );
    m.set(
        "background.cpu_us_per_op",
        over_rounds(
            &rounds,
            |r| r.cpu_us_per_op() - driver_cpu(r),
            Better::Lower,
        ),
    );
    m.set(
        "driver.ctx_switches_per_kop",
        all(&|r| r.ctx_switches) * 1e3 / ops,
    );

    // compress.*
    let CodecTimes {
        probe_ns,
        samefilled_ns,
        bdi_ns,
        lzrw1_ns,
        bdi_decomp_ns,
        lzrw1_decomp_ns,
        adaptive_ns,
        ..
    } = codec;
    m.set("compress.probe_ns", probe_ns);
    m.set("compress.samefilled_ns", samefilled_ns);
    m.set("compress.bdi_ns", bdi_ns);
    m.set("compress.lzrw1_ns", lzrw1_ns);
    m.set("compress.bdi_decomp_ns", bdi_decomp_ns);
    m.set("compress.lzrw1_decomp_ns", lzrw1_decomp_ns);
    m.set("compress.adaptive_ns", adaptive_ns);
    m.set("compress.adaptive_ratio", codec.adaptive_ratio);
    m.set("compress.reject_share", codec.reject_share);
    m.set("compress.fallback_share", codec.fallback_share);
    // Every PUT pays the same-filled scan and the probe; what it pays
    // after that is what the store's own counters say it ran.
    let (puts_bdi, puts_lz) = (d(|s| s.puts_bdi), d(|s| s.puts_lzrw1));
    let est_compress_ns = puts * (samefilled_ns + probe_ns)
        + (puts_bdi + d(|s| s.codec_fallbacks)) * bdi_ns
        + puts_lz * codec.lzrw1_admitted_ns
        + d(|s| s.stored_raw) * codec.lzrw1_rejected_ns
        + d(|s| s.demoted_hot) * adaptive_ns;
    let decomp_ns = share(
        puts_bdi * bdi_decomp_ns + puts_lz * lzrw1_decomp_ns,
        puts_bdi + puts_lz,
    );
    let est_decompress_ns = (d(|s| s.hits_memory) + d(|s| s.hits_spill)) * decomp_ns;
    let put_mean_ns = m.get("driver.put_mean_us").expect("set above") * 1e3;
    let est_put_ns = share(est_compress_ns, puts);
    m.set(
        "compress.est_share_of_put_pct",
        100.0 * share(est_put_ns, put_mean_ns),
    );
    m.set(
        "compress.est_share_of_driver_pct",
        100.0 * share(est_compress_ns + est_decompress_ns, wall_ns),
    );

    // store.*
    m.set(
        "store.get_hot_p50_ns",
        over_rounds(&rounds, |r| r.get_hot.p50_ns, Better::Lower),
    );
    m.set(
        "store.get_warm_p50_us",
        over_rounds(&rounds, |r| r.get_warm.p50_ns / 1e3, Better::Lower),
    );
    m.set(
        "store.get_cold_p50_us",
        over_rounds(&rounds, |r| r.get_cold.p50_ns / 1e3, Better::Lower),
    );
    m.set("store.hit_hot_share", share(d(|s| s.hits_hot), gets));
    m.set("store.hit_warm_share", share(d(|s| s.hits_memory), gets));
    m.set("store.hit_cold_share", share(d(|s| s.hits_spill), gets));
    m.set("store.miss_share", share(d(|s| s.misses), gets));
    m.set("store.puts_hot_share", share(d(|s| s.puts_hot), puts));
    m.set("store.puts_bdi_share", share(puts_bdi, puts));
    m.set("store.puts_lzrw1_share", share(puts_lz, puts));
    m.set("store.same_filled_share", share(d(|s| s.same_filled), puts));
    // Over the wire a PUT's time is its time in the window and a GET's
    // tier is unseen, so the store's own share is only known off it.
    let wire = spec.target == Target::Wire;
    m.set(
        "store.self_put_ns",
        if wire { 0.0 } else { put_mean_ns - est_put_ns },
    );
    let warm_mean_ns = over_rounds(&rounds, |r| r.get_warm.mean_ns, Better::Lower);
    m.set(
        "store.self_get_warm_ns",
        if warm_mean_ns > 0.0 {
            warm_mean_ns - decomp_ns
        } else {
            0.0
        },
    );
    m.set(
        "store.evictions_per_put",
        share(d(|s| s.spilled) + d(|s| s.shed_pages), puts),
    );
    m.set("store.shed_pages", d(|s| s.shed_pages));
    m.set("store.rss_overhead_bytes_per_entry", rss_overhead);
    m.set("store.telemetry_overhead_ns_per_op", with_tel - without_tel);

    // tier.*
    let (promoted, refused) = (d(|s| s.promotions), d(|s| s.promotions_rejected));
    m.set("tier.promotions_per_kget", 1e3 * share(promoted, gets));
    m.set(
        "tier.promotions_rejected_share",
        share(refused, promoted + refused),
    );
    m.set(
        "tier.demoted_hot_per_kop",
        1e3 * share(d(|s| s.demoted_hot), ops),
    );
    m.set(
        "tier.demoted_warm_per_kop",
        1e3 * share(d(|s| s.demoted_warm), ops),
    );
    m.set("tier.demoter_passes", d(|s| s.demoter_passes));
    m.set("tier.demote_now_ms", demote_now_ms);

    // medium.* and spill.*: zero wherever there is no spill file.
    let [writes, reads, flushes] = match (medium0, medium1) {
        (Some(before), Some(after)) => [0, 1, 2].map(|i| after[i].since(before[i])),
        _ => [OpTotals::default(); 3],
    };
    m.set("medium.writes", writes.calls as f64);
    m.set(
        "medium.write_bytes_mean",
        share(writes.bytes as f64, writes.calls as f64),
    );
    m.set(
        "medium.write_busy_us_mean",
        share(writes.busy_ns as f64, writes.calls as f64) / 1e3,
    );
    m.set("medium.reads", reads.calls as f64);
    m.set(
        "medium.read_busy_us_mean",
        share(reads.busy_ns as f64, reads.calls as f64) / 1e3,
    );
    m.set("medium.flushes", flushes.calls as f64);
    m.set(
        "medium.bytes_written_per_user_byte",
        share(writes.bytes as f64, user_bytes),
    );
    let spills = spec.target == Target::StoreSpill;
    m.set(
        "spill.batch_factor",
        share(d(|s| s.spilled), d(|s| s.spill_batches)),
    );
    m.set("spill.gc_runs", d(|s| s.gc_runs));
    m.set(
        "spill.gc_bytes_relocated_per_user_byte",
        share(d(|s| s.gc_bytes_relocated), user_bytes),
    );
    m.set("spill.gc_pause_max_ms", stats1.gc_pause_max_ns as f64 / 1e6);
    m.set("spill.flush_ms", if spills { flush_ms } else { 0.0 });
    m.set(
        "spill.dead_ratio_end",
        share(stats1.spill_dead_bytes as f64, stats1.bytes_on_spill as f64),
    );
    m.set("spill.io_retries", d(|s| s.io_retries));

    // proto.*, frame.*, client.*, server.*: zero off the wire.
    m.set("proto.encode_put_ns", wire_codec.encode_put_ns);
    m.set("proto.decode_put_ns", wire_codec.decode_put_ns);
    m.set("proto.encode_get_ns", wire_codec.encode_get_ns);
    m.set("frame.parse_ns", wire_codec.frame_parse_ns);
    m.set("client.send_ns", layer_mean("client.send"));
    m.set("client.recv_ns", layer_mean("client.recv"));
    m.set("server.rtt_ping_p50_us", rtt[0]);
    m.set("server.rtt_get_p50_us", rtt[1]);
    m.set("server.rtt_put_p50_us", rtt[2]);
    let wire_ns_per_op = 1e9 / over_rounds(&rounds, Round::ops_per_s, Better::Higher);
    let store_share_pct = if wire {
        100.0 * with_tel / wire_ns_per_op
    } else {
        0.0
    };
    m.set(
        "server.wire_overhead_us_per_op",
        if wire {
            (wire_ns_per_op - with_tel) / 1e3
        } else {
            0.0
        },
    );
    m.set("server.store_share_pct", store_share_pct);
    m.set("server.connect_ms", connect_ms);
    m.set("server.shutdown_ms", shutdown_ms);

    // Where each workload must sit for its numbers to mean what the
    // README says they mean.
    let mut missed: Vec<String> = Vec::new();
    if !spills && stats1.spilled + writes.calls + reads.calls + flushes.calls != 0 {
        missed.push(format!(
            "{} pages spilled and {} medium calls without a spill file",
            stats1.spilled,
            writes.calls + reads.calls + flushes.calls
        ));
    }
    if !size.quick {
        for &(_, metric, at_least, limit) in DESIGN_POINTS.iter().filter(|p| p.0 == spec.name) {
            let v = m.get(metric).expect("design points name measured metrics");
            if (at_least && v < limit) || (!at_least && v > limit) {
                let relation = if at_least { "below" } else { "above" };
                missed.push(format!("{metric} is {v:.3}, {relation} {limit}"));
            }
        }
    }

    print_rounds(&rounds);
    let reconciled = 100.0 * share(attributed, traced_wall);
    println!(
        "  rounds_done={}/{n_rounds} attempted={attempted} failed={failed} wrong_bytes={wrong_bytes} \
         over_budget={over_budget} spans={} disturbed={} trace={}",
        rounds.len(),
        spans.len(),
        disturbed(&calib),
        trace_path.display(),
    );
    println!(
        "  reconcile: sampled calls scaled to all ops + driver share = {reconciled:.1}% of traced wall time \
         (unattributed {unattributed_pct:.1}%)"
    );
    for (name, l) in &layers {
        println!(
            "  span {name:<18} n={:<7} mean {:>10.0} ns  self {:>10.0} ns",
            l.count,
            l.mean_ns(),
            share(l.self_ns as f64, l.count as f64)
        );
    }
    if spills {
        println!(
            "  spill file on {}: guest page cache, so the sandbox's latencies, not a device's",
            sys::filesystem_of(&out_dir())
        );
    }
    for what in &missed {
        println!("  DESIGN POINT MISSED: {what}");
    }
    Outcome {
        correct: wrong_bytes == 0 && !over_budget && missed.is_empty(),
        attempted,
        failed,
        metrics: m,
    }
}
