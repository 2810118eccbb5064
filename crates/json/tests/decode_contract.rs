//! The decode contract of `Json::parse`, pinned byte for byte.
//!
//! Request handlers forward parse errors verbatim into 400 bodies
//! (`invalid JSON body: <error>`), so the exact error string for each
//! malformed document is part of the wire contract. The table below
//! records it, including the parser's lenient corners (`1.`, `-.5` and
//! `01` are accepted because the number text goes through `str::parse`).

use wp_json::Json;

/// `(document, exact error)` for malformed input.
const MALFORMED: &[(&str, &str)] = &[
    // Empty and truncated documents.
    ("", "unexpected end of input"),
    ("   ", "unexpected end of input"),
    ("[", "unexpected end of input"),
    ("[1,", "unexpected end of input"),
    ("{\"a\":", "unexpected end of input"),
    ("{", "expected '\"' at byte 1"),
    ("[1, 2", "expected ',' or ']' at byte 5"),
    ("{\"a\" 1}", "expected ':' at byte 5"),
    ("{\"a\":1", "expected ',' or '}' at byte 6"),
    ("{\"a\":1,}", "expected '\"' at byte 7"),
    ("nul", "unexpected character 'n' at byte 0"),
    ("tru", "unexpected character 't' at byte 0"),
    ("@", "unexpected character '@' at byte 0"),
    // Truncated or malformed numbers.
    ("-", "invalid number '-' at byte 0"),
    ("[-]", "invalid number '-' at byte 1"),
    ("1e", "invalid number '1e' at byte 0"),
    ("1e+", "invalid number '1e+' at byte 0"),
    ("[2.5E-]", "invalid number '2.5E-' at byte 1"),
    ("-e5", "invalid number '-e5' at byte 0"),
    ("--1", "invalid number '-' at byte 0"),
    ("1.5.2", "trailing characters at byte 3"),
    // Escapes.
    ("\"\\x\"", "invalid escape at byte 2"),
    ("\"\\", "invalid escape at byte 2"),
    ("\"\\u12\"", "truncated \\u escape"),
    ("\"\\u12G4\"", "invalid \\u escape at byte 3"),
    ("\"\\u12é\"", "invalid \\u escape at byte 3"),
    ("\"\\u123é\"", "invalid \\u escape at byte 3"),
    ("\"\\udc00\"", "invalid \\u escape at byte 7"),
    // Surrogates.
    ("\"\\ud800\"", "unpaired surrogate at byte 7"),
    ("\"\\ud800x\"", "unpaired surrogate at byte 7"),
    ("\"\\ud800\\u0041\"", "invalid low surrogate at byte 13"),
    ("\"\\ud83d\\u12\"", "truncated \\u escape"),
    // Control bytes and unterminated strings.
    ("\"a\u{1}b\"", "unescaped control byte at 2"),
    ("\"é\nü\"", "unescaped control byte at 3"),
    ("\"abc", "unterminated string"),
    ("\"統", "unterminated string"),
    ("\"a\\\"", "unterminated string"),
    // Trailing data, including multi-byte text right after a value.
    ("[1] trailing", "trailing characters at byte 4"),
    ("1é", "trailing characters at byte 1"),
    ("[1é]", "expected ',' or ']' at byte 2"),
    ("{\"k\":2ü}", "expected ',' or '}' at byte 6"),
    ("\"é\"ü", "trailing characters at byte 4"),
    ("null null", "trailing characters at byte 5"),
];

#[test]
fn malformed_documents_fail_with_exact_errors() {
    for (doc, want) in MALFORMED {
        match Json::parse(doc) {
            Ok(v) => panic!("{doc:?} parsed as {v:?}, expected error {want:?}"),
            Err(got) => assert_eq!(&got, want, "error for {doc:?}"),
        }
    }
}

/// Nesting is bounded at 128 levels (serde_json's default), so no body
/// can overflow a serving thread's stack. The rows are built at run time
/// because the documents are long.
#[test]
fn nesting_past_the_depth_limit_fails_with_exact_error() {
    let rows = [
        ("[".repeat(129), "nesting deeper than 128 at byte 128"),
        ("[".repeat(100_000), "nesting deeper than 128 at byte 128"),
        (
            format!("{{\"runs\":{}", "[".repeat(128)),
            "nesting deeper than 128 at byte 135",
        ),
        ("{\"a\":".repeat(129), "nesting deeper than 128 at byte 640"),
    ];
    for (doc, want) in &rows {
        assert_eq!(&Json::parse(doc).unwrap_err(), want, "{}", &doc[..20]);
    }
    let deepest = format!("{}{}", "[".repeat(128), "]".repeat(128));
    assert!(Json::parse(&deepest).is_ok(), "128 levels must parse");
}

#[test]
fn lenient_numbers_keep_parsing() {
    for (doc, want) in [
        ("1.", 1.0),
        ("-.5", -0.5),
        ("-0", -0.0),
        ("01", 1.0),
        ("1E2", 100.0),
        ("2.5e-1", 0.25),
        ("1e400", f64::INFINITY),
    ] {
        let got = Json::parse(doc).unwrap().as_f64().unwrap();
        assert_eq!(got.to_bits(), want.to_bits(), "{doc}");
    }
}

/// Multi-byte UTF-8 directly beside escapes, quotes, keys and the
/// ends of numbers decodes exactly and survives a compact round trip.
#[test]
fn multibyte_text_beside_escapes_quotes_and_numbers_round_trips() {
    let text = "{\"é\":\"ü\\\"統\\\\😀\\n\",\"ß\":[1.5,\"é\"],\"😀\":-2e3,\
                \"\\u00e9x\":\"\\ud83d\\ude00ü\\t\",\"統計\":\"\\\"é\\\"\"}";
    let want = Json::Obj(vec![
        ("é".into(), Json::Str("ü\"統\\😀\n".into())),
        (
            "ß".into(),
            Json::Arr(vec![Json::Num(1.5), Json::Str("é".into())]),
        ),
        ("😀".into(), Json::Num(-2000.0)),
        ("éx".into(), Json::Str("😀ü\t".into())),
        ("統計".into(), Json::Str("\"é\"".into())),
    ]);
    let parsed = Json::parse(text).unwrap();
    assert_eq!(parsed, want);
    let compact = parsed.compact();
    assert_eq!(
        compact,
        "{\"é\":\"ü\\\"統\\\\😀\\n\",\"ß\":[1.5,\"é\"],\"😀\":-2000,\
         \"éx\":\"😀ü\\t\",\"統計\":\"\\\"é\\\"\"}"
    );
    assert_eq!(Json::parse(&compact).unwrap(), want);
    assert_eq!(Json::parse(&parsed.pretty()).unwrap(), want);
}
