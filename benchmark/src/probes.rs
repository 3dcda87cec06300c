//! Direct calls into single layers, timed on their own after the traced
//! rounds: the codecs over the workload's page pool, the protocol and
//! frame codecs over one PUT, and unpipelined round trips.

use crate::pages::{Pool, PAGE};
use crate::stats::percentile;
use cc_compress::{
    probe_bdi, same_filled_pattern, Bdi, CodecId, CodecPolicy, CodecSet, Compressor, Lzrw1,
    ThresholdPolicy,
};
use cc_server::frame::{self, parse_frame};
use cc_server::{Client, ClientError, Request};
use std::hint::black_box;
use std::time::Instant;

/// Mean ns per page of each codec step over the pool in the proportions
/// keys hold it. A codec is timed over the pages adaptive selection sends
/// to it.
#[derive(Debug, Default, Clone, Copy)]
pub struct CodecTimes {
    pub probe_ns: f64,
    pub samefilled_ns: f64,
    /// BDI compress, over the pages the probe routes to BDI.
    pub bdi_ns: f64,
    /// LZRW1 compress, over the pages the probe routes to LZRW1.
    pub lzrw1_ns: f64,
    /// The part of `lzrw1_ns` pages that pass the threshold …
    pub lzrw1_admitted_ns: f64,
    /// … and the part that fail it (noise), which cost more and are
    /// counted as `stored_raw`, not `puts_lzrw1`.
    pub lzrw1_rejected_ns: f64,
    pub bdi_decomp_ns: f64,
    pub lzrw1_decomp_ns: f64,
    /// `CodecSet::compress_with_policy(Adaptive)`, probe included.
    pub adaptive_ns: f64,
    /// Page bytes over sealed bytes under adaptive selection.
    pub adaptive_ratio: f64,
    pub reject_share: f64,
    pub fallback_share: f64,
}

/// The fastest of five timings of `pass`, in ns: the fastest is the one
/// the host disturbed least.
fn best_of_five_ns(mut pass: impl FnMut()) -> f64 {
    (0..5)
        .map(|_| {
            let t = Instant::now();
            pass();
            t.elapsed().as_nanos() as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// ns per page of `f` over `pages`.
fn ns_per_page<'a>(pages: &[&'a [u8]], mut f: impl FnMut(&'a [u8])) -> f64 {
    if pages.is_empty() {
        return 0.0;
    }
    let pass = || {
        for &p in pages {
            f(black_box(p));
        }
    };
    best_of_five_ns(pass) / pages.len() as f64
}

pub fn codec_times(pool: &Pool) -> CodecTimes {
    let threshold = ThresholdPolicy::default();
    let admit = threshold.max_compressed_len(PAGE);
    let (mut bdi, mut lz, mut set) = (Bdi::new(), Lzrw1::new(), CodecSet::new());
    let (mut sealed, mut plain) = (Vec::new(), Vec::new());
    let mix = pool.in_key_proportion();

    // Route every page as the store's PUT would, to learn which codec
    // seals it, what it seals to, and how often the probe was wrong.
    let (mut to_bdi, mut to_lz, mut rejected) = (Vec::new(), Vec::new(), Vec::new());
    let (mut sealed_bytes, mut fallbacks) = (0usize, 0usize);
    for &page in &mix {
        let sel = set.compress_with_policy(CodecPolicy::Adaptive, threshold, page, &mut sealed);
        sealed_bytes += sel.len;
        fallbacks += sel.fell_back as usize;
        match sel.codec {
            CodecId::Bdi => to_bdi.push(page),
            CodecId::Lzrw1 => to_lz.push(page),
            _ => rejected.push(page),
        }
    }
    let bdi_blocks: Vec<Vec<u8>> = to_bdi
        .iter()
        .map(|p| {
            bdi.compress(p, &mut sealed);
            sealed.clone()
        })
        .collect();
    let lz_blocks: Vec<Vec<u8>> = to_lz
        .iter()
        .map(|p| {
            lz.compress(p, &mut sealed);
            sealed.clone()
        })
        .collect();
    fn as_slices(blocks: &[Vec<u8>]) -> Vec<&[u8]> {
        blocks.iter().map(Vec::as_slice).collect()
    }

    let lzrw1_admitted_ns = ns_per_page(&to_lz, |p| {
        black_box(lz.compress(p, &mut sealed));
    });
    let lzrw1_rejected_ns = ns_per_page(&rejected, |p| {
        black_box(lz.compress(p, &mut sealed));
    });
    let (n_lz, n_rej) = (to_lz.len() as f64, rejected.len() as f64);
    CodecTimes {
        probe_ns: ns_per_page(&mix, |p| {
            black_box(probe_bdi(p, admit));
        }),
        samefilled_ns: ns_per_page(&mix, |p| {
            black_box(same_filled_pattern(p));
        }),
        bdi_ns: ns_per_page(&to_bdi, |p| {
            black_box(bdi.compress(p, &mut sealed));
        }),
        lzrw1_ns: (lzrw1_admitted_ns * n_lz + lzrw1_rejected_ns * n_rej) / (n_lz + n_rej).max(1.0),
        lzrw1_admitted_ns,
        lzrw1_rejected_ns,
        bdi_decomp_ns: ns_per_page(&as_slices(&bdi_blocks), |b| {
            bdi.decompress(b, &mut plain, PAGE)
                .expect("own BDI block decodes");
        }),
        lzrw1_decomp_ns: ns_per_page(&as_slices(&lz_blocks), |b| {
            lz.decompress(b, &mut plain, PAGE)
                .expect("own LZRW1 block decodes");
        }),
        adaptive_ns: ns_per_page(&mix, |p| {
            black_box(set.compress_with_policy(CodecPolicy::Adaptive, threshold, p, &mut sealed));
        }),
        adaptive_ratio: (mix.len() * PAGE) as f64 / sealed_bytes as f64,
        reject_share: n_rej / mix.len() as f64,
        fallback_share: fallbacks as f64 / mix.len() as f64,
    }
}

/// ns per call of the protocol and frame codecs on one request.
#[derive(Debug, Default, Clone, Copy)]
pub struct WireCodecTimes {
    pub encode_put_ns: f64,
    pub decode_put_ns: f64,
    pub encode_get_ns: f64,
    pub frame_parse_ns: f64,
}

pub fn wire_codec_times(page: &[u8]) -> WireCodecTimes {
    const CALLS: usize = 20_000;
    fn per_call(mut f: impl FnMut()) -> f64 {
        let pass = || {
            for _ in 0..CALLS {
                f();
            }
        };
        best_of_five_ns(pass) / CALLS as f64
    }
    let put = Request::Put { key: 7, page };
    let mut body = Vec::new();
    let encode_put_ns = per_call(|| {
        body.clear();
        black_box(&put).encode(&mut body);
        black_box(&body);
    });
    let decode_put_ns = per_call(|| {
        black_box(Request::decode(black_box(&body)).expect("own PUT decodes"));
    });
    let mut framed = frame::header(body.len(), 9).to_vec();
    framed.extend_from_slice(&body);
    let frame_parse_ns = per_call(|| {
        black_box(
            parse_frame(black_box(&framed), frame::DEFAULT_MAX_FRAME).expect("own frame parses"),
        );
    });
    let mut get_body = Vec::new();
    let encode_get_ns = per_call(|| {
        get_body.clear();
        black_box(Request::Get { key: 7 }).encode(&mut get_body);
        black_box(&get_body);
    });
    WireCodecTimes {
        encode_put_ns,
        decode_put_ns,
        encode_get_ns,
        frame_parse_ns,
    }
}

/// Median round trip, in µs, of PING, GET and PUT with nothing else in
/// flight: the window-1 latency the pipelined workload hides.
pub fn round_trips(client: &mut Client, key: u64, page: &[u8]) -> Result<[f64; 3], ClientError> {
    const CALLS: usize = 5_000;
    fn p50_us(
        client: &mut Client,
        mut call: impl FnMut(&mut Client) -> Result<(), ClientError>,
    ) -> Result<f64, ClientError> {
        let mut ns = Vec::with_capacity(CALLS);
        for _ in 0..CALLS {
            let t = Instant::now();
            call(client)?;
            ns.push(t.elapsed().as_nanos() as u32);
        }
        ns.sort_unstable();
        Ok(percentile(&ns, 50.0) as f64 / 1e3)
    }
    let mut out = Vec::new();
    let ping = p50_us(client, |c| c.ping())?;
    let put = p50_us(client, |c| c.put(key, page))?;
    let get = p50_us(client, |c| c.get(key, &mut out).map(|_| ()))?;
    Ok([ping, get, put])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codec_probe_sees_the_design_mix() {
        let t = codec_times(&Pool::generate(1));
        // 15 % of keys are noise and fail the threshold; nothing else does.
        assert!((t.reject_share - 0.15).abs() < 1e-9, "{}", t.reject_share);
        assert_eq!(t.fallback_share, 0.0);
        assert!(
            t.adaptive_ratio > 1.5 && t.adaptive_ratio < 4.0,
            "{}",
            t.adaptive_ratio
        );
        for ns in [
            t.probe_ns,
            t.samefilled_ns,
            t.bdi_ns,
            t.lzrw1_ns,
            t.bdi_decomp_ns,
            t.lzrw1_decomp_ns,
            t.adaptive_ns,
            t.lzrw1_admitted_ns,
            t.lzrw1_rejected_ns,
        ] {
            assert!(ns > 0.0 && ns.is_finite());
        }
        assert!(t.probe_ns < t.lzrw1_ns);
    }

    #[test]
    fn wire_codec_probe_times_every_step() {
        let t = wire_codec_times(&[3u8; PAGE]);
        for ns in [
            t.encode_put_ns,
            t.decode_put_ns,
            t.encode_get_ns,
            t.frame_parse_ns,
        ] {
            assert!(ns > 0.0 && ns.is_finite());
        }
    }
}
