//! The parser's nesting bound: a document nested deeper than
//! `mop_json::MAX_DEPTH` is a parse error, never a stack overflow. Every
//! protocol frame of the control plane goes through `from_str`, so one
//! line of `[` must not be able to abort the process.

use mop_json::{from_str, Value, MAX_DEPTH};

const BOMB: usize = 200_000;

#[test]
fn two_hundred_thousand_open_brackets_are_a_parse_error() {
    let input = "[".repeat(BOMB);
    let err = from_str(&input).unwrap_err();
    assert!(err.message.contains("nesting"), "{err}");
    assert_eq!(err.offset, MAX_DEPTH, "the error points at the first bracket too deep");
}

#[test]
fn two_hundred_thousand_nested_objects_are_a_parse_error() {
    let input = "{\"a\":".repeat(BOMB);
    let err = from_str(&input).unwrap_err();
    assert!(err.message.contains("nesting"), "{err}");
}

#[test]
fn the_limit_itself_still_parses() {
    let at_limit = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
    let mut value = &from_str(&at_limit).unwrap();
    let mut depth = 0;
    while let Value::Array(items) = value {
        depth += 1;
        match items.first() {
            Some(inner) => value = inner,
            None => break,
        }
    }
    assert_eq!(depth, MAX_DEPTH);

    let over = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
    assert!(from_str(&over).is_err());
    let objects = format!("{}1{}", "{\"a\":".repeat(MAX_DEPTH), "}".repeat(MAX_DEPTH));
    assert!(from_str(&objects).is_ok());
    let objects = format!("{}1{}", "{\"a\":".repeat(MAX_DEPTH + 1), "}".repeat(MAX_DEPTH + 1));
    assert!(from_str(&objects).is_err());
}
