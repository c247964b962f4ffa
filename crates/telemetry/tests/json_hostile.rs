//! `Json::parse` on hostile input: whatever the bytes, a parse returns a
//! value or a `JsonError`, never a panic or a stack overflow.

use gepeto_telemetry::json::Json;
use proptest::prelude::*;

/// The bytes that steer the parser: brackets, quotes, escapes and the
/// first letters of literals and numbers.
const SYNTAX: &[u8] = b"[]{}\":,\\/ntfrbu0123456789-+.eE \t\n";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    fn arbitrary_bytes_never_panic_the_parser(
        bytes in prop::collection::vec(any::<u8>(), 0..96),
    ) {
        // Most bytes drawn from the syntax, the rest raw (multi-byte and
        // invalid sequences the lossy decode turns into U+FFFD).
        let steered: Vec<u8> = bytes
            .iter()
            .map(|&b| if b < 192 { SYNTAX[usize::from(b) % SYNTAX.len()] } else { b })
            .collect();
        for input in [&bytes, &steered] {
            let text = String::from_utf8_lossy(input);
            if let Err(e) = Json::parse(&text) {
                prop_assert!(e.offset <= text.len(), "{e} in {text:?}");
            }
        }
    }
}
