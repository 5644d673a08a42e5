//! Byte-level framing shared by the three on-disk formats — the binary
//! event file ([`crate::io`]), `tempopr.tcsr.v1` ([`crate::storage`]) and
//! `tempopr.ckpt.v2` (`tempopr-core`'s checkpoint module), each of which
//! keeps its own field layout and error type: [`crc32`], the LEB128 /
//! zigzag varints, the bounds-checked little-endian [`Reader`], the
//! sealed-header rule ([`sealed_header`], [`open_header`]) and the
//! `len u32 | crc32 u32 | payload` record frame ([`record`],
//! [`Reader::record`]).

use std::fmt;

// --- CRC32 (IEEE, reflected) -------------------------------------------

/// Slicing-by-8 tables: `t[k][i]` is the register after byte `i` and `k`
/// zero bytes — `8 (k + 1)` shift steps of `i`; `t[0]` is the byte table.
const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut k = 0;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut step = 0;
            while step < 8 * (k + 1) {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
                step += 1;
            }
            t[k][i] = c;
            i += 1;
        }
        k += 1;
    }
    t
}

static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

/// CRC-32 (IEEE 802.3, reflected) over `bytes`, eight bytes a step.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = !0u32;
    let mut chunks = bytes.chunks_exact(8);
    for w in &mut chunks {
        // Byte `k` (the register folded in) has `7 - k` bytes after it.
        let w = [w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7]];
        let x = u64::from(c) ^ u64::from_le_bytes(w);
        c = (0..8).fold(0, |acc, k| acc ^ t[7 - k][(x >> (8 * k)) as usize & 0xff]);
    }
    for &b in chunks.remainder() {
        c = (c >> 8) ^ t[0][((c ^ u32::from(b)) & 0xff) as usize];
    }
    !c
}

// --- Varint codec -------------------------------------------------------

/// Appends `x` as an LEB128 varint.
pub(crate) fn put_uvarint(buf: &mut Vec<u8>, mut x: u64) {
    while x >= 0x80 {
        buf.push(x as u8 | 0x80);
        x >>= 7;
    }
    buf.push(x as u8);
}

/// Appends `v` zigzag-mapped, so small magnitudes of either sign stay short.
pub(crate) fn put_ivarint(buf: &mut Vec<u8>, v: i64) {
    put_uvarint(buf, ((v << 1) ^ (v >> 63)) as u64);
}

// --- Reader -------------------------------------------------------------

/// Why a [`Reader`] refused; each format maps it onto its own error type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// A read wanted more bytes than remain.
    Short,
    /// A varint does not fit the integer it is read as.
    Overflow,
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FrameError::Short => "short read",
            FrameError::Overflow => "varint overflows its integer",
        })
    }
}

impl std::error::Error for FrameError {}

/// A little-endian pull reader over a byte slice: every read is
/// bounds-checked, and one past the end is a [`FrameError`], never a panic.
#[derive(Debug, Clone, Copy)]
pub struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

/// One fixed-width little-endian read per integer type. These and
/// [`Reader::bytes`] are forced inline, as the part codec and the
/// checkpoint reader call them a field at a time; the event reader decodes
/// its fixed-width records a block at a time without them.
macro_rules! le_reads {
    ($($t:ident),*) => {$(
        #[doc = concat!("A little-endian `", stringify!($t), "`.")]
        #[inline(always)]
        pub fn $t(&mut self) -> Result<$t, FrameError> {
            let mut a = [0u8; std::mem::size_of::<$t>()];
            a.copy_from_slice(self.bytes(std::mem::size_of::<$t>())?);
            Ok($t::from_le_bytes(a))
        }
    )*};
}

impl<'a> Reader<'a> {
    /// A reader at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, at: 0 }
    }

    /// Bytes not read yet.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.at
    }

    /// The next `n` bytes.
    #[inline(always)]
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        let taken = self.buf[self.at..].get(..n).ok_or(FrameError::Short)?;
        self.at += n;
        Ok(taken)
    }

    le_reads!(u8, u16, u32, u64, i64);

    /// An LEB128 varint of at most 64 bits.
    #[inline]
    pub(crate) fn uvarint(&mut self) -> Result<u64, FrameError> {
        let (mut x, mut shift) = (0u64, 0u32);
        loop {
            let b = self.u8()?;
            // The tenth byte holds bit 63 alone, with no continuation.
            if shift == 63 && b > 1 {
                return Err(FrameError::Overflow);
            }
            x |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(x);
            }
            shift += 7;
        }
    }

    /// A zigzag-mapped varint.
    #[inline]
    pub(crate) fn ivarint(&mut self) -> Result<i64, FrameError> {
        let u = self.uvarint()?;
        Ok(((u >> 1) as i64) ^ -((u & 1) as i64))
    }

    /// A varint read as a count or an index.
    #[inline]
    pub(crate) fn uvarint_usize(&mut self) -> Result<usize, FrameError> {
        usize::try_from(self.uvarint()?).map_err(|_| FrameError::Overflow)
    }

    /// The payload of the next [`record`] frame, or `None` — reading
    /// nothing — when the frame is cut short, declares a payload under
    /// `min_len` bytes or fails its CRC: the torn-tail rule, under which
    /// [`Reader::remaining`] then counts the discarded tail.
    pub fn record(&mut self, min_len: usize) -> Option<&'a [u8]> {
        let mut r = *self;
        let (len, crc) = (r.u32().ok()? as usize, r.u32().ok()?);
        let payload = r.bytes(len).ok()?;
        if len < min_len || crc32(payload) != crc {
            return None;
        }
        *self = r;
        Some(payload)
    }
}

// --- Sealed headers and record frames -------------------------------------

/// Why [`open_header`] refused a header: the first check that failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeaderError {
    /// Not the format's magic (or too short to hold magic, version and CRC).
    Magic,
    /// A format version this build does not speak.
    Version(u16),
    /// The CRC-32 does not match the bytes before it.
    Crc,
}

/// The sealed header `magic | version u16 | fields | crc32 u32`, its CRC
/// over every byte before it.
pub fn sealed_header(magic: [u8; 4], version: u16, fields: &[u8]) -> Vec<u8> {
    let mut b = Vec::with_capacity(10 + fields.len());
    b.extend_from_slice(&magic);
    b.extend_from_slice(&version.to_le_bytes());
    b.extend_from_slice(fields);
    seal(&mut b);
    b
}

/// Appends the CRC-32 of every byte in `buf`, sealing it.
pub fn seal(buf: &mut Vec<u8>) {
    buf.extend_from_slice(&crc32(buf).to_le_bytes());
}

/// A reader over the bytes a [`seal`]ed block covers, or `None` when the
/// block is shorter than its CRC or the CRC does not match them.
pub(crate) fn unseal(block: &[u8]) -> Option<Reader<'_>> {
    let (body, crc) = block.split_at(block.len().checked_sub(4)?);
    (Reader::new(crc).u32() == Ok(crc32(body))).then(|| Reader::new(body))
}

/// Checks a whole sealed header in the order magic, version, CRC — so a
/// version bump is never reported as corruption — and returns a reader over
/// its fields, between the version and the CRC.
pub fn open_header(header: &[u8], magic: [u8; 4], version: u16) -> Result<Reader<'_>, HeaderError> {
    if header.len() < 10 || header[..4] != magic {
        return Err(HeaderError::Magic);
    }
    let found = u16::from_le_bytes([header[4], header[5]]);
    if found != version {
        return Err(HeaderError::Version(found));
    }
    let fields = unseal(header).ok_or(HeaderError::Crc)?;
    Ok(Reader { at: 6, ..fields })
}

/// `payload` framed as `len u32 | crc32(payload) u32 | payload`.
pub fn record(payload: &[u8]) -> Vec<u8> {
    let mut f = Vec::with_capacity(8 + payload.len());
    f.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    f.extend_from_slice(&crc32(payload).to_le_bytes());
    f.extend_from_slice(payload);
    f
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrip_edge_values() {
        for x in [0u64, 1, 127, 128, 300, u64::from(u32::MAX), u64::MAX] {
            let mut buf = Vec::new();
            put_uvarint(&mut buf, x);
            let mut r = Reader::new(&buf);
            assert_eq!(r.uvarint(), Ok(x));
            assert_eq!(r.remaining(), 0);
        }
        for v in [0i64, -1, 1, i64::MIN, i64::MAX, -123456789] {
            let mut buf = Vec::new();
            put_ivarint(&mut buf, v);
            assert_eq!(Reader::new(&buf).ivarint(), Ok(v));
        }
    }

    #[test]
    fn truncated_varint_is_typed_error() {
        assert_eq!(Reader::new(&[0x80, 0x80]).uvarint(), Err(FrameError::Short));
        // Ten bytes whose last carries more than bit 63.
        let mut long = [0xffu8; 10];
        long[9] = 0x02;
        assert_eq!(Reader::new(&long).uvarint(), Err(FrameError::Overflow));
    }

    /// Every fixed-width read of every prefix of a 19-byte buffer: a read
    /// succeeds while its bytes fit, the first that does not is `Short`,
    /// and a refused read consumes nothing.
    #[test]
    fn reader_returns_short_at_every_width_and_cut() {
        let buf: Vec<u8> = (0..19).collect();
        for cut in 0..=buf.len() {
            for (width, signed) in [(1, false), (2, false), (4, false), (8, false), (8, true)] {
                let mut r = Reader::new(&buf[..cut]);
                for k in 0..=cut / width {
                    let before = r.remaining();
                    let got = match (width, signed) {
                        (1, _) => r.u8().map(u64::from),
                        (2, _) => r.u16().map(u64::from),
                        (4, _) => r.u32().map(u64::from),
                        (_, false) => r.u64(),
                        (_, true) => r.i64().map(|x| x as u64),
                    };
                    if (k + 1) * width <= cut {
                        let at = k * width;
                        let mut want = [0u8; 8];
                        want[..width].copy_from_slice(&buf[at..at + width]);
                        assert_eq!(got, Ok(u64::from_le_bytes(want)), "cut {cut} width {width}");
                    } else {
                        assert_eq!(got, Err(FrameError::Short), "cut {cut} width {width} k {k}");
                        assert_eq!(r.remaining(), before);
                    }
                }
            }
            for n in 0..=buf.len() {
                let got = Reader::new(&buf[..cut]).bytes(n);
                assert_eq!(got.ok(), (n <= cut).then(|| &buf[..n]), "cut {cut} n {n}");
            }
        }
    }

    /// Every combination of a wrong magic, a wrong version and a wrong CRC
    /// (and a header too short to hold them): the check reports the first
    /// wrong field in the order magic, version, CRC.
    #[test]
    fn sealed_header_checks_magic_then_version_then_crc() {
        const MAGIC: [u8; 4] = *b"TEST";
        let fields = [7u8, 0, 0, 0, 9];
        for bad_magic in [false, true] {
            for bad_version in [false, true] {
                for bad_crc in [false, true] {
                    let magic = if bad_magic { *b"TEsT" } else { MAGIC };
                    let version = if bad_version { 3 } else { 2 };
                    let mut h = sealed_header(magic, version, &fields);
                    assert_eq!(h.len(), 10 + fields.len());
                    if bad_crc {
                        *h.last_mut().unwrap() ^= 1;
                    }
                    let want = if bad_magic {
                        Err(HeaderError::Magic)
                    } else if bad_version {
                        Err(HeaderError::Version(3))
                    } else if bad_crc {
                        Err(HeaderError::Crc)
                    } else {
                        Ok((7, 9))
                    };
                    let got = open_header(&h, MAGIC, 2).map(|mut r| {
                        let got = (r.u32().unwrap(), r.u8().unwrap());
                        assert_eq!(r.remaining(), 0);
                        got
                    });
                    assert_eq!(
                        got, want,
                        "magic {bad_magic} version {bad_version} crc {bad_crc}"
                    );
                }
            }
        }
        let h = sealed_header(MAGIC, 2, &[]);
        assert!(open_header(&h, MAGIC, 2).is_ok());
        for cut in 0..h.len() {
            assert!(open_header(&h[..cut], MAGIC, 2).is_err(), "cut {cut}");
        }
        assert_eq!(
            open_header(&h[..9], MAGIC, 2).err(),
            Some(HeaderError::Magic)
        );
    }

    /// The byte-at-a-time CRC-32 the slicing-by-8 loop replaced.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in bytes {
            c = (c >> 8) ^ CRC_TABLES[0][((c ^ u32::from(b)) & 0xff) as usize];
        }
        !c
    }

    #[test]
    fn crc32_equals_the_bytewise_loop_at_every_length_and_alignment() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut buf = vec![0u8; (1 << 20) + 8];
        for b in &mut buf {
            // xorshift64: any fixed pseudo-random bytes do.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *b = (x >> 32) as u8;
        }
        for offset in 0..8 {
            for len in 0..=64 {
                let s = &buf[offset..offset + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "offset {offset} len {len}");
            }
            let s = &buf[offset..offset + (1 << 20)];
            assert_eq!(crc32(s), crc32_bytewise(s), "offset {offset}, 1 MiB");
        }
        // The oracle is the standard CRC, not merely self-consistent.
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
    }
}
