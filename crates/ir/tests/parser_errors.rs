//! Parser error-path coverage: every failure class reports the offending
//! line (and, where the token is known, a column). One test per class.

use nzomp_ir::parser::{parse_module, parse_module_strict, ParseError};

fn expect_err(text: &str) -> ParseError {
    match parse_module(text) {
        Err(e) => e,
        Ok(_) => panic!("expected parse error for:\n{text}"),
    }
}

#[test]
fn bad_type_reports_line_and_col() {
    let text = "define void @f(i64 %arg0) {\n\
                bb0:\n\
                \x20 %0 = Add.q7 %arg0, i64 1\n\
                \x20 ret void\n\
                }\n";
    let e = expect_err(text);
    assert_eq!(e.line, 3, "{e}");
    assert!(e.col > 0, "expected a column for the bad type token: {e}");
    assert!(e.message.contains("unknown type"), "{e}");
}

#[test]
fn bad_block_ref_reports_line() {
    let text = "define void @f() {\n\
                bb0:\n\
                \x20 br bbQ\n\
                }\n";
    let e = expect_err(text);
    assert_eq!(e.line, 3, "{e}");
    assert!(e.message.contains("bad block reference"), "{e}");
}

#[test]
fn unknown_opcode_reports_line() {
    let text = "define void @f() {\n\
                bb0:\n\
                \x20 %0 = zorp %arg0\n\
                \x20 ret void\n\
                }\n";
    let e = expect_err(text);
    assert_eq!(e.line, 3, "{e}");
    assert!(e.message.contains("unknown opcode"), "{e}");
}

#[test]
fn malformed_header_reports_line() {
    let text = "\n\ndefine void f() {\nbb0:\n  ret void\n}\n";
    let e = expect_err(text);
    assert_eq!(e.line, 3, "{e}");
    assert!(e.message.contains("malformed header"), "{e}");
}

#[test]
fn duplicate_function_reports_second_definition_line() {
    let text = "define void @f() {\n\
                bb0:\n\
                \x20 ret void\n\
                }\n\
                define void @f() {\n\
                bb0:\n\
                \x20 ret void\n\
                }\n";
    let e = expect_err(text);
    assert_eq!(e.line, 5, "{e}");
    assert!(e.message.contains("duplicate symbol @f"), "{e}");
    assert!(e.message.contains("line 1"), "{e}");
}

#[test]
fn duplicate_global_reports_line() {
    let text = "@g = shared [8 x i8] init=zero linkage=internal\n\
                @g = shared [8 x i8] init=zero linkage=internal\n";
    let e = expect_err(text);
    assert_eq!(e.line, 2, "{e}");
    assert!(e.message.contains("duplicate symbol @g"), "{e}");
}

#[test]
fn global_function_collision_is_rejected() {
    let text = "@f = global [8 x i8] init=zero linkage=internal\n\
                define void @f() {\n\
                bb0:\n\
                \x20 ret void\n\
                }\n";
    let e = expect_err(text);
    assert_eq!(e.line, 2, "{e}");
    assert!(e.message.contains("already defined as a global"), "{e}");
}

#[test]
fn duplicate_result_id_is_rejected() {
    let text = "define void @f() {\n\
                bb0:\n\
                \x20 %0 = thread.id()\n\
                \x20 %0 = block.id()\n\
                \x20 ret void\n\
                }\n";
    let e = expect_err(text);
    assert_eq!(e.line, 4, "{e}");
    assert!(e.message.contains("duplicate result id"), "{e}");
}

#[test]
fn unknown_value_reports_use_line() {
    let text = "define void @f(ptr %arg0) {\n\
                bb0:\n\
                \x20 store i64 %9, %arg0\n\
                \x20 ret void\n\
                }\n";
    let e = expect_err(text);
    assert_eq!(e.line, 3, "{e}");
    assert!(e.message.contains("unknown value %9"), "{e}");
}

#[test]
fn missing_terminator_reports_line() {
    let text = "define void @f() {\n\
                bb0:\n\
                \x20 %0 = thread.id()\n\
                }\n";
    let e = expect_err(text);
    assert_eq!(e.line, 4, "{e}");
    assert!(e.message.contains("no terminator"), "{e}");
}

/// External text must never unwind the parser: each of these made the
/// old header or global parser slice a string by positions taken from the
/// input (`)` before `(`, `]` before `[`, a hex digit pair cutting a
/// multi-byte character).
#[test]
fn hostile_punctuation_is_a_typed_error() {
    for text in [
        "declare void @f)(",
        "declare void @f() ] [",
        "@g = global [2 x i8] init=hex:a\u{e9} linkage=internal",
    ] {
        let e = expect_err(text);
        assert_eq!(e.line, 1, "{text:?}: {e}");
        assert!(e.col > 0, "{text:?}: expected a column: {e}");
    }
}

/// The printer lists every block in index order, so a label names its own
/// position; sizing the block table from the label would let one line of
/// input allocate four billion blocks.
#[test]
fn out_of_order_block_label_is_rejected() {
    let text = "define void @f() {\n\
                bb4294967295:\n\
                \x20 ret void\n\
                }\n";
    let e = expect_err(text);
    assert_eq!(e.line, 2, "{e}");
    assert!(e.message.contains("expected bb0"), "{e}");
}

#[test]
fn result_id_on_a_void_instruction_is_rejected() {
    let text = "define void @f(ptr %arg0) {\n\
                bb0:\n\
                \x20 %0 = store i64 i64 1, %arg0\n\
                \x20 ret void\n\
                }\n";
    let e = expect_err(text);
    assert_eq!(e.line, 3, "{e}");
    assert!(e.message.contains("void instruction"), "{e}");
}

/// `name` is part of the grammar: a symbol the printer could not write
/// back unambiguously is refused where it is read.
#[test]
fn bad_symbol_name_reports_line_and_col() {
    for text in [
        "@a b = global [8 x i8] init=zero linkage=internal",
        "declare void @f[1]()",
        "declare void @()",
    ] {
        let e = expect_err(text);
        assert_eq!(e.line, 1, "{text:?}: {e}");
        assert!(e.message.contains("bad symbol name"), "{text:?}: {e}");
    }
    let e = expect_err("; module a\rb\n");
    assert_eq!((e.line, e.col), (1, 10), "{e}");
    assert!(e.message.contains("bad module name"), "{e}");
}

/// An intrinsic's operand list is free-form to the parser; its length is
/// the verifier's business, so a wrong count never reaches a device.
#[test]
fn intrinsic_operand_count_is_rejected_by_the_verifier() {
    for (line, needle) in [
        ("%0 = malloc()", "malloc takes 1 operand(s), found 0"),
        ("free()", "free takes 1 operand(s), found 0"),
        ("assume()", "assume takes 1 operand(s), found 0"),
        ("%0 = thread.id(%arg0, %arg1)", "thread.id takes 0 operand(s), found 2"),
    ] {
        let text = format!("define void @f(i64 %arg0, i64 %arg1) {{\nbb0:\n  {line}\n  ret void\n}}\n");
        let m = parse_module(&text).unwrap_or_else(|e| panic!("{line:?} must parse: {e}"));
        let e = nzomp_ir::verify_module(&m).expect_err(line);
        assert_eq!(e.func, "f", "{e}");
        assert!(e.message.contains(needle), "{line:?}: {e}");
    }
}

#[test]
fn unsupported_version_is_rejected() {
    let e = expect_err("; nzomp-ir v99\n; module m\n");
    assert_eq!(e.line, 1, "{e}");
    assert!(e.message.contains("unsupported format version v99"), "{e}");
}

#[test]
fn malformed_version_header_is_rejected() {
    let e = expect_err("; nzomp-ir vintage\n");
    assert_eq!(e.line, 1, "{e}");
    assert!(e.message.contains("malformed version header"), "{e}");
}

#[test]
fn strict_mode_requires_header() {
    let text = "; module m\ndefine void @f() {\nbb0:\n  ret void\n}\n";
    // Lenient parse accepts it...
    assert!(parse_module(text).is_ok());
    // ...strict parse demands the version header first.
    let e = match parse_module_strict(text) {
        Err(e) => e,
        Ok(_) => panic!("strict mode accepted headerless input"),
    };
    assert_eq!(e.line, 1, "{e}");
    assert!(e.message.contains("nzomp-ir v1"), "{e}");
    // With the header, strict parse succeeds.
    let with = format!("; nzomp-ir v1\n{text}");
    assert!(parse_module_strict(&with).is_ok());
}

#[test]
fn display_includes_line_and_col() {
    let e = ParseError {
        line: 7,
        col: 0,
        message: "boom".into(),
    };
    assert_eq!(e.to_string(), "parse error at line 7: boom");
    let e = ParseError {
        line: 7,
        col: 12,
        message: "boom".into(),
    };
    assert_eq!(e.to_string(), "parse error at line 7, col 12: boom");
}
