//! The one JSON, searched: parse ∘ render is the identity for both
//! writers over generated documents (`parse_inverts_both_writers`, so a
//! document this module wrote survives parse → pretty byte for byte),
//! rendering is a fixed point even where values are not (whole floats
//! re-read as integers), and the parser is total on mutated documents.

use farm_telemetry::Json;
use proptest::collection::vec;
use proptest::prelude::*;

/// Strings that exercise every escape the writer knows, multi-byte
/// UTF-8 and characters outside the BMP.
fn text() -> impl Strategy<Value = String> {
    const SPECIAL: [char; 10] = [
        '"', '\\', '\n', '\r', '\t', '\u{1}', '\u{1f}', 'é', '\u{ffff}', '😀',
    ];
    let ch = prop_oneof![
        (0x20u32..0x7f).prop_map(|c| char::from_u32(c).expect("ascii")),
        (0..SPECIAL.len()).prop_map(|i| SPECIAL[i]),
    ];
    vec(ch, 0..12).prop_map(String::from_iter)
}

/// Scalars in the form the parser yields them: non-negative integers as
/// `U64`, negative ones as `I64`, floats only where the text needs one.
fn scalar() -> BoxedStrategy<Json> {
    prop_oneof![
        Just(Json::Null),
        any::<bool>().prop_map(Json::Bool),
        any::<u64>().prop_map(Json::U64),
        Just(Json::U64(u64::MAX)),
        Just(Json::U64((1 << 53) + 1)),
        any::<i64>().prop_map(|n| u64::try_from(n).map_or(Json::I64(n), Json::U64)),
        Just(Json::I64(i64::MIN)),
        any::<u64>()
            .prop_map(f64::from_bits)
            .prop_filter("finite, fractional", |x| x.is_finite() && x.fract() != 0.0)
            .prop_map(Json::F64),
        (-1.0e6..1.0e6)
            .prop_filter("fractional", |x: &f64| x.fract() != 0.0)
            .prop_map(Json::F64),
        text().prop_map(Json::Str),
    ]
    .boxed()
}

fn document(depth: u32) -> BoxedStrategy<Json> {
    if depth == 0 {
        return scalar();
    }
    prop_oneof![
        scalar(),
        vec(document(depth - 1), 0..4).prop_map(Json::Arr),
        vec((text(), document(depth - 1)), 0..4).prop_map(Json::Obj),
    ]
    .boxed()
}

proptest! {
    #[test]
    fn parse_inverts_both_writers(doc in document(4)) {
        prop_assert_eq!(Json::parse(&doc.to_string()).as_ref(), Ok(&doc));
        prop_assert_eq!(Json::parse(&doc.pretty()).as_ref(), Ok(&doc));
    }

    /// Any float at all — whole ones re-read as integers, non-finite ones
    /// as `null` — still renders to text that re-reads to the same text.
    #[test]
    fn rendering_is_a_fixed_point(bits in vec(any::<u64>(), 1..8)) {
        let doc = Json::Arr(bits.into_iter().map(|b| Json::F64(f64::from_bits(b))).collect());
        let text = doc.to_string();
        let back = Json::parse(&text).expect("rendered text parses");
        prop_assert_eq!(back.to_string(), text);
    }

    /// ROADMAP 5(d), first parser: mutated documents are `Ok` or `Err`,
    /// never a panic, and whatever parses renders to something that
    /// parses again.
    #[test]
    fn parser_is_total_on_mutated_documents(
        doc in document(3),
        pretty in any::<bool>(),
        edits in vec((any::<usize>(), any::<u8>(), 0u8..4), 1..6),
    ) {
        let mut bytes = if pretty { doc.pretty() } else { doc.to_string() }.into_bytes();
        for (at, byte, kind) in edits {
            let at = at % (bytes.len() + 1);
            match kind {
                0 if at < bytes.len() => bytes[at] = byte,
                1 => bytes.insert(at, byte),
                2 if at < bytes.len() => drop(bytes.remove(at)),
                _ => bytes.truncate(at),
            }
        }
        if let Ok(parsed) = Json::parse(&String::from_utf8_lossy(&bytes)) {
            prop_assert!(Json::parse(&parsed.to_string()).is_ok());
        }
    }
}

#[test]
fn non_finite_numbers_render_as_null() {
    let doc = Json::Arr(vec![
        f64::NAN.into(),
        f64::INFINITY.into(),
        f64::NEG_INFINITY.into(),
    ]);
    assert_eq!(doc.to_string(), "[null,null,null]");
}
