//! Property tests for the JSON codec's string path: whatever
//! `escape_into` writes, `parse` reads back unchanged — multibyte UTF-8,
//! control characters, and runs of `"` and `\` included — whether the
//! string stands alone, sits inside an object between other fields, or was
//! escaped by a different (all-`\uXXXX`) encoder.

use aqo_obs::json::{escape_into, parse, JsonValue};
use proptest::prelude::*;

/// Strings mixing every class the scanner treats differently: plain ASCII
/// runs, control characters, the two delimiters (often repeated), and one-
/// to four-byte UTF-8 scalars.
fn nasty_string() -> impl Strategy<Value = String> {
    prop::collection::vec((0u8..7, any::<u32>()), 0..48).prop_map(|parts| {
        let mut s = String::new();
        for (kind, x) in parts {
            let pick = |lo: u32, hi: u32| char::from_u32(lo + x % (hi - lo)).unwrap_or('?');
            match kind {
                0 => s.push(pick(0x20, 0x7f)),
                1 => s.push(pick(0, 0x20)),
                2 => s.extend(std::iter::repeat_n('"', 1 + x as usize % 3)),
                3 => s.extend(std::iter::repeat_n('\\', 1 + x as usize % 3)),
                4 => s.push(pick(0x80, 0x800)),
                5 => s.push(pick(0xe000, 0x10000)),
                _ => s.push(pick(0x10000, 0x110000)),
            }
        }
        s
    })
}

/// An encoder unlike `escape_into`: every basic-plane scalar as `\uXXXX`,
/// the rest raw. The parser must read mixed escapes and raw runs alike.
fn escape_all(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        if (c as u32) < 0x10000 {
            out.push_str(&format!("\\u{:04x}", c as u32));
        } else {
            out.push(c);
        }
    }
    out.push('"');
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn json_string_round_trips(s in nasty_string()) {
        let mut enc = String::new();
        escape_into(&mut enc, &s);
        prop_assert_eq!(parse(&enc), Ok(JsonValue::Str(s)));
    }

    #[test]
    fn json_string_round_trips_inside_an_object(a in nasty_string(), b in nasty_string()) {
        prop_assume!(a != "n" && a != "t");
        let mut doc = String::from("{");
        escape_into(&mut doc, &a);
        doc.push_str(": ");
        escape_into(&mut doc, &b);
        doc.push_str(", \"n\": 7, \"t\": ");
        escape_into(&mut doc, &a);
        doc.push('}');
        let parsed = parse(&doc).unwrap();
        prop_assert_eq!(parsed.get(&a).and_then(JsonValue::as_str), Some(b.as_str()));
        prop_assert_eq!(parsed.get("n").and_then(JsonValue::as_u64), Some(7));
        prop_assert_eq!(parsed.get("t").and_then(JsonValue::as_str), Some(a.as_str()));
    }

    #[test]
    fn json_string_reads_unicode_escapes(s in nasty_string()) {
        prop_assert_eq!(parse(&escape_all(&s)), Ok(JsonValue::Str(s)));
    }

    #[test]
    fn json_unterminated_string_is_an_error(s in nasty_string()) {
        let mut enc = String::new();
        escape_into(&mut enc, &s);
        enc.pop();
        prop_assert!(parse(&enc).is_err());
    }
}
