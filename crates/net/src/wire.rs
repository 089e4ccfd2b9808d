//! Low-level wire primitives: LEB128 varints, zigzag signed integers,
//! length-prefixed strings, a bounds-checked `Reader`, and the `Wire`
//! trait every field and message type of the protocol implements once.
//!
//! Every decoder in this crate is **total**: arbitrary (truncated,
//! corrupt, adversarial) input produces a [`WireError`], never a panic
//! and never an unbounded allocation. Length fields are validated
//! against the bytes actually remaining before anything is reserved.

use std::fmt;

/// Protocol version stamped into every frame.
pub const PROTOCOL_VERSION: u8 = 1;

/// Hard cap on one frame's body, bytes. Larger length prefixes are
/// rejected before any allocation happens.
pub(crate) const MAX_FRAME_LEN: usize = 16 << 20;

/// Maximum nesting depth for recursive payloads (values, filters).
pub(crate) const MAX_DEPTH: usize = 48;

/// Decoding failure. `Truncated` doubles as "need more bytes" for
/// streaming callers; every other variant is a hard protocol error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Input ended before the value did.
    Truncated,
    /// A length prefix exceeds `MAX_FRAME_LEN`.
    TooLarge(u64),
    /// The frame announces a protocol version we do not speak.
    Version(u8),
    /// An enum discriminant is out of range.
    Tag { what: &'static str, tag: u8 },
    /// A string field holds invalid UTF-8.
    Utf8,
    /// A varint ran past 10 bytes.
    VarintOverflow,
    /// Recursive payload nests deeper than `MAX_DEPTH`.
    Depth,
    /// A scalar field is outside its legal range (e.g. prefix len > 32).
    Range(&'static str),
    /// The frame body decoded cleanly but bytes were left over.
    Trailing(usize),
    /// A checkpoint file that is not `FARMCKP2`; names what was found.
    Checkpoint(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "wire: input truncated"),
            WireError::TooLarge(n) => write!(f, "wire: frame of {n} bytes exceeds cap"),
            WireError::Version(v) => write!(f, "wire: unsupported protocol version {v}"),
            WireError::Tag { what, tag } => write!(f, "wire: bad {what} tag {tag}"),
            WireError::Utf8 => write!(f, "wire: invalid utf-8 in string"),
            WireError::VarintOverflow => write!(f, "wire: varint overflow"),
            WireError::Depth => write!(f, "wire: payload nests too deep"),
            WireError::Range(what) => write!(f, "wire: {what} out of range"),
            WireError::Trailing(n) => write!(f, "wire: {n} trailing bytes after frame"),
            WireError::Checkpoint(found) => write!(f, "wire: refused checkpoint: {found}"),
        }
    }
}

impl std::error::Error for WireError {}

/// CRC-32 (IEEE 802.3, polynomial `0xEDB88320`) lookup table, built at
/// compile time so checksumming stays dependency-free.
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE) of `bytes` — the per-record integrity check framing
/// `FARMCKP2` checkpoint entries.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xffff_ffffu32;
    for &b in bytes {
        c = CRC32_TABLE[((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
    }
    !c
}

/// Appends an unsigned LEB128 varint (1–10 bytes).
pub(crate) fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Appends a zigzag-encoded signed varint.
pub(crate) fn put_ivarint(out: &mut Vec<u8>, v: i64) {
    put_varint(out, ((v << 1) ^ (v >> 63)) as u64);
}

/// Appends an IEEE-754 double as 8 little-endian bytes.
pub(crate) fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// Appends a length-prefixed UTF-8 string.
pub(crate) fn put_str(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// Appends a bool as one byte.
pub(crate) fn put_bool(out: &mut Vec<u8>, b: bool) {
    out.push(b as u8);
}

/// Bounds-checked cursor over a received frame body.
#[derive(Debug)]
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Recursive decodes currently open (see [`Reader::nested`]).
    depth: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader {
            buf,
            pos: 0,
            depth: 0,
        }
    }

    /// Runs one level of a self-nesting decode (values, filter
    /// formulas). The bound lives here so that no decoder threads a
    /// depth argument, and none can forget to.
    pub(crate) fn nested<T>(
        &mut self,
        level: impl FnOnce(&mut Self) -> Result<T, WireError>,
    ) -> Result<T, WireError> {
        if self.depth >= MAX_DEPTH {
            return Err(WireError::Depth);
        }
        self.depth += 1;
        let out = level(self);
        self.depth -= 1;
        out
    }

    /// Bytes not yet consumed.
    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Bytes consumed so far.
    pub(crate) fn consumed(&self) -> usize {
        self.pos
    }

    pub(crate) fn u8(&mut self) -> Result<u8, WireError> {
        let b = *self.buf.get(self.pos).ok_or(WireError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    pub(crate) fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(WireError::Tag {
                what: "bool",
                tag: t,
            }),
        }
    }

    pub(crate) fn varint(&mut self) -> Result<u64, WireError> {
        let mut v: u64 = 0;
        for shift in 0..10 {
            let byte = self.u8()?;
            // The 10th byte may only carry the final bit of a u64.
            if shift == 9 && byte > 1 {
                return Err(WireError::VarintOverflow);
            }
            v |= ((byte & 0x7f) as u64) << (shift * 7);
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(WireError::VarintOverflow)
    }

    pub(crate) fn ivarint(&mut self) -> Result<i64, WireError> {
        let z = self.varint()?;
        Ok(((z >> 1) as i64) ^ -((z & 1) as i64))
    }

    pub(crate) fn f64(&mut self) -> Result<f64, WireError> {
        let bytes = self.take(8)?;
        let mut arr = [0u8; 8];
        arr.copy_from_slice(bytes);
        Ok(f64::from_bits(u64::from_le_bytes(arr)))
    }

    /// A length prefix that must be satisfiable by the remaining bytes,
    /// assuming each element costs at least `min_elem_bytes`.
    pub(crate) fn len_prefix(&mut self, min_elem_bytes: usize) -> Result<usize, WireError> {
        let n = self.varint()?;
        let need = n.saturating_mul(min_elem_bytes.max(1) as u64);
        if need > self.remaining() as u64 {
            return Err(WireError::Truncated);
        }
        Ok(n as usize)
    }

    pub(crate) fn str(&mut self) -> Result<String, WireError> {
        let n = self.len_prefix(1)?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::Utf8)
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Fails unless the whole buffer was consumed.
    pub(crate) fn finish(&self) -> Result<(), WireError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(WireError::Trailing(n)),
        }
    }
}

/// Scans the varint length prefix of the frame at the front of `buf`:
/// `Ok(None)` — the prefix itself is still incomplete; `Ok(Some((header,
/// len)))` — the body is the `len` bytes after the first `header`;
/// `Err(_)` — an overlong or oversized prefix, after which the stream
/// cannot be resynchronised. Every frame reader goes through here.
pub(crate) fn frame_prefix(buf: &[u8]) -> Result<Option<(usize, usize)>, WireError> {
    let mut r = Reader::new(buf);
    match r.varint() {
        Ok(len) if len > MAX_FRAME_LEN as u64 => Err(WireError::TooLarge(len)),
        Ok(len) => Ok(Some((r.consumed(), len as usize))),
        Err(WireError::Truncated) => Ok(None),
        Err(e) => Err(e),
    }
}

/// A type with a wire form. Everything the protocol carries — scalars,
/// containers, the declared messages of `frame.rs`, snapshots —
/// implements this once, so an encoder and its decoder cannot drift
/// apart and no list decoder types an element size by hand.
pub(crate) trait Wire: Sized {
    /// Fewest bytes any value of the type encodes to; what a list
    /// decoder multiplies its claimed length by before allocating.
    const MIN_LEN: usize;

    /// Appends the encoding.
    fn put(&self, out: &mut Vec<u8>);

    /// Decodes one value; `what` names the field in a
    /// [`WireError::Range`].
    fn get(r: &mut Reader<'_>, what: &'static str) -> Result<Self, WireError>;
}

impl Wire for u64 {
    const MIN_LEN: usize = 1;
    fn put(&self, out: &mut Vec<u8>) {
        put_varint(out, *self);
    }
    fn get(r: &mut Reader<'_>, _: &'static str) -> Result<u64, WireError> {
        r.varint()
    }
}

/// Zigzag-folded, then the same varint.
impl Wire for i64 {
    const MIN_LEN: usize = 1;
    fn put(&self, out: &mut Vec<u8>) {
        put_ivarint(out, *self);
    }
    fn get(r: &mut Reader<'_>, _: &'static str) -> Result<i64, WireError> {
        r.ivarint()
    }
}

/// Narrower integers travel as the same varint and are range-checked
/// on the way in.
macro_rules! narrow_varint {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            const MIN_LEN: usize = 1;
            fn put(&self, out: &mut Vec<u8>) {
                put_varint(out, u64::from(*self));
            }
            fn get(r: &mut Reader<'_>, what: &'static str) -> Result<$t, WireError> {
                <$t>::try_from(r.varint()?).map_err(|_| WireError::Range(what))
            }
        }
    )*};
}

narrow_varint!(u16, u32);

impl Wire for f64 {
    const MIN_LEN: usize = 8;
    fn put(&self, out: &mut Vec<u8>) {
        put_f64(out, *self);
    }
    fn get(r: &mut Reader<'_>, _: &'static str) -> Result<f64, WireError> {
        r.f64()
    }
}

impl Wire for [f64; 4] {
    const MIN_LEN: usize = 4 * f64::MIN_LEN;
    fn put(&self, out: &mut Vec<u8>) {
        self.iter().for_each(|v| v.put(out));
    }
    fn get(r: &mut Reader<'_>, _: &'static str) -> Result<[f64; 4], WireError> {
        Ok([r.f64()?, r.f64()?, r.f64()?, r.f64()?])
    }
}

impl Wire for bool {
    const MIN_LEN: usize = 1;
    fn put(&self, out: &mut Vec<u8>) {
        put_bool(out, *self);
    }
    fn get(r: &mut Reader<'_>, _: &'static str) -> Result<bool, WireError> {
        r.bool()
    }
}

impl Wire for String {
    const MIN_LEN: usize = 1;
    fn put(&self, out: &mut Vec<u8>) {
        put_str(out, self);
    }
    fn get(r: &mut Reader<'_>, _: &'static str) -> Result<String, WireError> {
        r.str()
    }
}

impl<T: Wire> Wire for Box<T> {
    const MIN_LEN: usize = T::MIN_LEN;
    fn put(&self, out: &mut Vec<u8>) {
        self.as_ref().put(out);
    }
    fn get(r: &mut Reader<'_>, what: &'static str) -> Result<Box<T>, WireError> {
        T::get(r, what).map(Box::new)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    const MIN_LEN: usize = A::MIN_LEN + B::MIN_LEN;
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
    }
    fn get(r: &mut Reader<'_>, what: &'static str) -> Result<(A, B), WireError> {
        Ok((A::get(r, what)?, B::get(r, what)?))
    }
}

/// Varint count, then the elements. The count is checked against the
/// bytes actually left (`count × T::MIN_LEN`), and nothing is reserved
/// for it: the list grows as its items decode. Nested lists may each
/// claim nearly all the bytes left, so a reservation sized by the claim
/// would hold those bytes' worth once per level; grown, a list holds
/// at most twice the items its bytes have backed.
impl<T: Wire> Wire for Vec<T> {
    const MIN_LEN: usize = 1;
    fn put(&self, out: &mut Vec<u8>) {
        put_varint(out, self.len() as u64);
        self.iter().for_each(|item| item.put(out));
    }
    fn get(r: &mut Reader<'_>, what: &'static str) -> Result<Vec<T>, WireError> {
        let n = r.len_prefix(T::MIN_LEN)?;
        (0..n).map(|_| T::get(r, what)).collect()
    }
}

/// A field of a *trailing optional extension*: fields appended to a
/// message after its first release. The group is written only when
/// some field differs from its default and read only when bytes
/// remain, all fields or none — so the common case stays byte-identical
/// to the revision before the extension, in both directions.
pub(crate) trait Ext: Default + PartialEq {
    /// True when the field alone would not make the group travel.
    fn is_default(&self) -> bool {
        *self == Self::default()
    }
    fn put_ext(&self, out: &mut Vec<u8>);
    fn get_ext(r: &mut Reader<'_>, what: &'static str) -> Result<Self, WireError>;
}

impl Ext for u64 {
    fn put_ext(&self, out: &mut Vec<u8>) {
        self.put(out);
    }
    fn get_ext(r: &mut Reader<'_>, what: &'static str) -> Result<u64, WireError> {
        u64::get(r, what)
    }
}

/// An optional extension field has no presence tag — the remaining
/// bytes are the presence signal — so `None` *is* the absent group and
/// the field must be the only one of its group.
impl<T: Wire + PartialEq> Ext for Option<T> {
    fn put_ext(&self, out: &mut Vec<u8>) {
        if let Some(v) = self {
            v.put(out);
        }
    }
    fn get_ext(r: &mut Reader<'_>, what: &'static str) -> Result<Option<T>, WireError> {
        T::get(r, what).map(Some)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_round_trips_across_widths() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut r = Reader::new(&buf);
            assert_eq!(r.varint().unwrap(), v);
            r.finish().unwrap();
        }
    }

    #[test]
    fn ivarint_round_trips_signed_extremes() {
        for v in [0i64, -1, 1, i64::MIN, i64::MAX, -300, 300] {
            let mut buf = Vec::new();
            put_ivarint(&mut buf, v);
            assert_eq!(Reader::new(&buf).ivarint().unwrap(), v);
        }
    }

    #[test]
    fn overlong_varint_is_rejected() {
        let buf = [0xff; 11];
        assert_eq!(Reader::new(&buf).varint(), Err(WireError::VarintOverflow));
    }

    #[test]
    fn truncated_reads_fail_cleanly() {
        let mut buf = Vec::new();
        put_str(&mut buf, "hello");
        for cut in 0..buf.len() {
            let got = Reader::new(&buf[..cut]).str();
            assert_eq!(got, Err(WireError::Truncated), "cut at {cut}");
        }
    }

    #[test]
    fn length_prefix_cannot_force_allocation() {
        // Claims a 2^40-element list with 3 bytes of input.
        let mut buf = Vec::new();
        put_varint(&mut buf, 1 << 40);
        let got = Reader::new(&buf).len_prefix(1);
        assert_eq!(got, Err(WireError::Truncated));
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Reference values from the IEEE 802.3 polynomial (zlib's crc32).
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414f_a339
        );
    }

    #[test]
    fn crc32_detects_single_bit_flips() {
        let data = b"FARMCKP2 record body".to_vec();
        let base = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), base, "flip at {byte}:{bit} undetected");
            }
        }
    }

    #[test]
    fn bad_utf8_is_an_error_not_a_panic() {
        let mut buf = Vec::new();
        put_varint(&mut buf, 2);
        buf.extend_from_slice(&[0xc3, 0x28]);
        assert_eq!(Reader::new(&buf).str(), Err(WireError::Utf8));
    }
}
