//! The on-file extent format: a self-verifying header (magic, lengths,
//! generation, codec id, CRC-32) in front of every spilled payload.
//! The writer encodes extents; cold reads and recovery verify them.

#[cfg(doc)]
use super::StoreError;
use cc_util::Crc32;

/// Magic leading every on-file extent header. The low nibble is the
/// format version: `..E001` was the first, codec-less layout (20-byte
/// header, CRC over the payload only); `..E002` added the codec id byte
/// and widened the CRC to cover the header fields too. Old-format
/// extents fail the magic check and surface as [`StoreError::Corrupt`]
/// instead of being decoded with a guessed codec.
const EXTENT_MAGIC: u32 = 0xCC5E_E002;

/// Bytes of self-verifying header preceding every spilled payload:
/// `magic: u32 | payload_len: u32 | gen: u64 | codec: u8 | pad: [u8; 3] |
/// crc: u32`, all little-endian. The CRC covers the first
/// [`EXTENT_CRC_OFFSET`] header bytes *and* the payload, so a flipped
/// codec id is a verification failure — decoding with the wrong codec is
/// impossible by construction, not merely unlikely.
pub(crate) const EXTENT_HEADER: usize = 24;

/// Offset of the CRC field inside the header; everything before it is
/// covered by the CRC.
const EXTENT_CRC_OFFSET: usize = 20;

/// Append `payload`'s extent (header + payload) to `buf`. The CRC is
/// computed here, at batch-commit time — the last moment the writer
/// still holds the payload bytes it is about to trust to the medium.
pub(crate) fn encode_extent(buf: &mut Vec<u8>, gen: u64, codec: u8, payload: &[u8]) {
    let start = buf.len();
    buf.extend_from_slice(&EXTENT_MAGIC.to_le_bytes());
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(&gen.to_le_bytes());
    buf.push(codec);
    buf.extend_from_slice(&[0u8; 3]);
    let mut h = Crc32::new();
    h.update(&buf[start..start + EXTENT_CRC_OFFSET]);
    h.update(payload);
    buf.extend_from_slice(&h.finish().to_le_bytes());
    buf.extend_from_slice(payload);
}

/// Check `ext` (a full extent as read back) against the generation and
/// codec id the entry map says live there, and hand back its payload.
/// Any mismatch — magic/version, length, generation, codec, or CRC over
/// header + payload — is `None`: the bytes must not be decompressed. The
/// header fields are compared first, so a misdirected or stale read
/// costs no checksum pass. The codec is checked twice over: the header
/// byte must equal the entry's recorded id, *and* the CRC covers that
/// byte, so neither a flipped header nor a stale entry can route the
/// payload to the wrong decoder.
pub(crate) fn verify_extent(ext: &[u8], gen: u64, codec: u8) -> Option<&[u8]> {
    let (header, payload) = ext.split_at_checked(EXTENT_HEADER)?;
    let magic = u32::from_le_bytes(header[0..4].try_into().expect("4-byte slice"));
    let plen = u32::from_le_bytes(header[4..8].try_into().expect("4-byte slice")) as usize;
    let hgen = u64::from_le_bytes(header[8..16].try_into().expect("8-byte slice"));
    let hcodec = header[16];
    if magic != EXTENT_MAGIC || hgen != gen || hcodec != codec || plen != payload.len() {
        return None;
    }
    let crc = u32::from_le_bytes(
        header[EXTENT_CRC_OFFSET..]
            .try_into()
            .expect("4-byte slice"),
    );
    let mut h = Crc32::new();
    h.update(&header[..EXTENT_CRC_OFFSET]);
    h.update(payload);
    (crc == h.finish()).then_some(payload)
}
