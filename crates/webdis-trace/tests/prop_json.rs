//! Property tests for the shared JSON codec: `parse` returns (never
//! panics) on arbitrary and damaged input, and every value it can
//! represent survives `render` → `parse` unchanged.

use proptest::prelude::*;
use webdis_trace::json::{decode_record, parse, Value};

/// Characters biased toward the ones the escaper and parser treat
/// specially: quotes, backslashes, ASCII controls, and multi-byte
/// scalars.
fn any_char() -> impl Strategy<Value = char> {
    prop_oneof![(0u8..0x80).prop_map(char::from), any::<char>()]
}

fn text() -> impl Strategy<Value = String> {
    prop::collection::vec(any_char(), 0..8).prop_map(|cs| cs.into_iter().collect())
}

fn value() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        any::<u64>().prop_map(Value::Num),
        (0u64..10).prop_map(Value::Num),
        any::<bool>().prop_map(Value::Bool),
        text().prop_map(Value::Str),
    ];
    leaf.prop_recursive(4, 32, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..4).prop_map(Value::Arr),
            prop::collection::vec((text(), inner), 0..4)
                .prop_map(|fields| Value::Obj(fields.into_iter().collect())),
        ]
    })
}

/// Parsing and trace decoding may fail on `s`, but must return.
fn must_return(s: &str) {
    let _ = parse(s);
    let _ = decode_record(s);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn render_then_parse_is_the_identity(v in value()) {
        let text = v.render();
        prop_assert_eq!(parse(&text), Ok(v), "{}", text);
    }

    #[test]
    fn parse_returns_on_arbitrary_strings(
        s in prop::collection::vec(
            prop_oneof![
                any_char(),
                prop_oneof![
                    Just('{'), Just('}'), Just('['), Just(']'), Just('"'), Just(':'),
                    Just(','), Just('\\'), Just('u'), Just('0'), Just('9'), Just('t'),
                ],
            ],
            0..48,
        )
    ) {
        must_return(&s.into_iter().collect::<String>());
    }

    #[test]
    fn parse_returns_on_truncated_and_flipped_encodings(
        v in value(),
        flip_at in any::<usize>(),
        mask in 1u8..=255,
    ) {
        let text = v.render();
        for cut in (0..text.len()).filter(|&i| text.is_char_boundary(i)) {
            must_return(&text[..cut]);
        }
        let mut bytes = text.into_bytes();
        let at = flip_at % bytes.len();
        bytes[at] ^= mask;
        must_return(&String::from_utf8_lossy(&bytes));
    }
}
