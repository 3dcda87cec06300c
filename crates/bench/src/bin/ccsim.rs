//! `ccsim` — a command-line front end for the simulator.
//!
//! Runs any paper workload (or the synthetic thrasher) under any machine /
//! device / policy configuration and prints the run report, optionally
//! comparing std vs cc. The tool a downstream user reaches for first.
//!
//! ```text
//! ccsim [options]
//!   --workload NAME     thrasher | compare | isca | sort-partial |
//!                       sort-random | gold-create | gold-cold | gold-warm
//!                       (default thrasher)
//!   --memory SIZE       user memory, e.g. 6M, 14M, 512K (default 6M)
//!   --space SIZE        thrasher address space (default 12M)
//!   --passes N          thrasher passes (default 3)
//!   --ro                thrasher read-only (default read-write)
//!   --mode MODE         std | cc | both (default both)
//!   --disk NAME         rz57 | mobile | ethernet | wireless (default rz57)
//!   --codec NAME        lzrw1 | lzss | rle | null (default lzrw1)
//!   --bias X            cc_age_scale (default 0.15)
//!   --threshold N:D     keep-compressed threshold (default 4:3)
//!   --no-span           forbid fragments spanning file blocks
//!   --no-readahead      disable swap readahead
//!   --adaptive N        adaptive disable after N rejects (default off)
//!   --compress-file-cache  enable the §6 file-cache extension
//!   --scale X           scale workload size by X (default 1.0)
//!   --seed N            workload seed
//! ```

use cc_compress::ThresholdPolicy;
use cc_sim::disk::DiskParams;
use cc_sim::workloads::{
    compare::CompareApp,
    gold::{GoldApp, GoldPhase, GoldWorkload},
    isca::IscaApp,
    sortapp::{SortApp, SortInput},
    thrasher::Thrasher,
    Workload,
};
use cc_sim::{CodecKind, Mode, SimConfig, System};
use cc_util::Ns;

#[derive(Debug)]
struct Args {
    workload: String,
    memory: u64,
    space: u64,
    passes: u32,
    ro: bool,
    mode: String,
    disk: String,
    codec: String,
    bias: f64,
    threshold: (u32, u32),
    no_span: bool,
    no_readahead: bool,
    adaptive: u32,
    compress_file_cache: bool,
    scale: f64,
    seed: u64,
}

fn parse_size(s: &str) -> Result<u64, String> {
    let s = s.trim();
    let (num, mult) = match s.chars().last() {
        Some('K') | Some('k') => (&s[..s.len() - 1], 1024u64),
        Some('M') | Some('m') => (&s[..s.len() - 1], 1024 * 1024),
        Some('G') | Some('g') => (&s[..s.len() - 1], 1024 * 1024 * 1024),
        _ => (s, 1),
    };
    num.parse::<u64>()
        .map(|n| n * mult)
        .map_err(|e| format!("bad size {s:?}: {e}"))
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: "thrasher".into(),
        memory: 6 * 1024 * 1024,
        space: 12 * 1024 * 1024,
        passes: 3,
        ro: false,
        mode: "both".into(),
        disk: "rz57".into(),
        codec: "lzrw1".into(),
        bias: 0.15,
        threshold: (4, 3),
        no_span: false,
        no_readahead: false,
        adaptive: 0,
        compress_file_cache: false,
        scale: 1.0,
        seed: 0x5EED,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value("--workload")?,
            "--memory" => args.memory = parse_size(&value("--memory")?)?,
            "--space" => args.space = parse_size(&value("--space")?)?,
            "--passes" => {
                args.passes = value("--passes")?
                    .parse()
                    .map_err(|e| format!("bad passes: {e}"))?
            }
            "--ro" => args.ro = true,
            "--mode" => args.mode = value("--mode")?,
            "--disk" => args.disk = value("--disk")?,
            "--codec" => args.codec = value("--codec")?,
            "--bias" => {
                args.bias = value("--bias")?
                    .parse()
                    .map_err(|e| format!("bad bias: {e}"))?
            }
            "--threshold" => {
                let v = value("--threshold")?;
                let (n, d) = v
                    .split_once(':')
                    .ok_or_else(|| format!("threshold must be N:D, got {v:?}"))?;
                args.threshold = (
                    n.parse().map_err(|e| format!("bad threshold: {e}"))?,
                    d.parse().map_err(|e| format!("bad threshold: {e}"))?,
                );
            }
            "--no-span" => args.no_span = true,
            "--no-readahead" => args.no_readahead = true,
            "--adaptive" => {
                args.adaptive = value("--adaptive")?
                    .parse()
                    .map_err(|e| format!("bad adaptive: {e}"))?
            }
            "--compress-file-cache" => args.compress_file_cache = true,
            "--scale" => {
                args.scale = value("--scale")?
                    .parse()
                    .map_err(|e| format!("bad scale: {e}"))?
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("bad seed: {e}"))?
            }
            "--help" | "-h" => {
                println!("{}", HELP);
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?} (try --help)")),
        }
    }
    Ok(args)
}

const HELP: &str = "ccsim: run a compression-cache simulation
  --workload NAME   thrasher | compare | isca | sort-partial | sort-random |
                    gold-create | gold-cold | gold-warm   (default thrasher)
  --memory SIZE     user memory (default 6M)      --space SIZE  thrasher space (default 12M)
  --passes N        thrasher passes (default 3)   --ro          thrasher read-only
  --mode MODE       std | cc | both (default both)
  --disk NAME       rz57 | mobile | ethernet | wireless
  --codec NAME      lzrw1 | lzss | rle | null
  --bias X          cc_age_scale (default 0.15)   --threshold N:D (default 4:3)
  --no-span --no-readahead --adaptive N --compress-file-cache
  --scale X         scale workload size           --seed N";

fn build_config(a: &Args, mode: Mode) -> SimConfig {
    let mut cfg = SimConfig::decstation(a.memory as usize, mode);
    cfg.seed = a.seed;
    cfg.disk = match a.disk.as_str() {
        "rz57" => DiskParams::rz57(),
        "mobile" => DiskParams::mobile_hdd(),
        "ethernet" => DiskParams::ethernet_10mbps(),
        "wireless" => DiskParams::wireless_2mbps(),
        other => {
            eprintln!("unknown disk {other:?}");
            std::process::exit(2);
        }
    };
    cfg.cc.codec = match a.codec.as_str() {
        "lzrw1" => CodecKind::Lzrw1 {
            table_bytes: 16 * 1024,
        },
        "lzss" => CodecKind::Lzss,
        "rle" => CodecKind::Rle,
        "null" => CodecKind::Null,
        other => {
            eprintln!("unknown codec {other:?}");
            std::process::exit(2);
        }
    };
    cfg.cc.cc_age_scale = a.bias;
    cfg.cc.threshold = ThresholdPolicy::new(a.threshold.0, a.threshold.1);
    cfg.cc.allow_span = !a.no_span;
    cfg.cc.swap_readahead = !a.no_readahead;
    cfg.cc.adaptive_disable_after = a.adaptive;
    cfg.cc.compress_file_cache = a.compress_file_cache;
    cfg
}

fn build_workload(a: &Args) -> Box<dyn Workload> {
    let s = a.scale;
    let scaled = |x: u64| ((x as f64 * s) as u64).max(1);
    match a.workload.as_str() {
        "thrasher" => {
            let mut t = Thrasher::figure3(scaled(a.space), !a.ro);
            t.passes = a.passes;
            Box::new(t)
        }
        "compare" => {
            let mut w = CompareApp::table1();
            w.text_len = scaled(w.text_len as u64) as usize;
            w.seed = a.seed;
            Box::new(w)
        }
        "isca" => {
            let mut w = IscaApp::table1();
            w.memory_blocks = scaled(w.memory_blocks);
            w.references = scaled(w.references);
            w.seed = a.seed;
            Box::new(w)
        }
        "sort-partial" | "sort-random" => {
            let input = if a.workload == "sort-partial" {
                SortInput::Partial
            } else {
                SortInput::Random
            };
            let mut w = SortApp::table1(input);
            w.text_bytes = scaled(w.text_bytes as u64) as usize;
            w.seed = a.seed;
            Box::new(w)
        }
        "gold-create" | "gold-cold" | "gold-warm" => {
            let phase = match a.workload.as_str() {
                "gold-create" => GoldPhase::Create,
                "gold-cold" => GoldPhase::Cold,
                _ => GoldPhase::Warm,
            };
            let mut app = GoldApp::table1();
            app.messages = scaled(app.messages as u64) as u32;
            app.queries = scaled(app.queries as u64) as u32;
            app.seed = a.seed;
            Box::new(GoldWorkload { app, phase })
        }
        other => {
            eprintln!("unknown workload {other:?} (try --help)");
            std::process::exit(2);
        }
    }
}

fn run_one(a: &Args, mode: Mode) -> (Ns, cc_sim::SystemReport, u64) {
    let mut sys = System::new(build_config(a, mode));
    let mut w = build_workload(a);
    let summary = w.run(&mut sys);
    (sys.now(), sys.report(), summary.checksum)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ccsim: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "ccsim: workload={} memory={} disk={} codec={} bias={}",
        args.workload,
        cc_util::fmt::bytes(args.memory),
        args.disk,
        args.codec,
        args.bias
    );

    match args.mode.as_str() {
        "std" => {
            let (t, report, _) = run_one(&args, Mode::Std);
            println!("\n{}", report.render());
            println!("elapsed: {t}");
        }
        "cc" => {
            let (t, report, _) = run_one(&args, Mode::Cc);
            println!("\n{}", report.render());
            println!("elapsed: {t}");
        }
        "both" => {
            let (t_std, r_std, sum_std) = run_one(&args, Mode::Std);
            let (t_cc, r_cc, sum_cc) = run_one(&args, Mode::Cc);
            assert_eq!(sum_std, sum_cc, "modes computed different results!");
            println!("\n{}", r_std.render());
            println!("{}", r_cc.render());
            println!(
                "speedup (std/cc): {:.2}x   ({} -> {})",
                t_std.as_ns() as f64 / t_cc.as_ns().max(1) as f64,
                t_std,
                t_cc
            );
        }
        other => {
            eprintln!("unknown mode {other:?} (std | cc | both)");
            std::process::exit(2);
        }
    }
}
