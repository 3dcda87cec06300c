//! Cache-line padding.

/// `T` alone on its cache lines: aligned (and so sized) to 128 bytes,
/// two 64-byte lines, because adjacent-line prefetch pulls lines in
/// pairs. Per-shard and per-stripe state that different threads write
/// sits in one of these so that neighbours never false-share.
#[repr(align(128))]
#[derive(Debug, Default)]
pub struct Padded<T>(pub T);
