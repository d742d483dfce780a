//! The `ccsql` binary's error output: every error ends in exactly one
//! newline, whether the command failed with a one-line message or with
//! a multi-line report that already ends in one.

use std::process::{Command, Output};

fn ccsql(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ccsql"))
        .args(args)
        .output()
        .expect("run ccsql")
}

#[test]
fn a_one_line_error_ends_in_a_newline() {
    let out = ccsql(&["mc", "--threads", "0"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(out.stdout.is_empty());
    assert_eq!(
        String::from_utf8(out.stderr).unwrap(),
        "--threads expects a number of at least 1, got 0\n"
    );
}

#[test]
fn a_failing_zoo_report_ends_in_one_newline() {
    // The undrainable MOESIF sibling under a clean pack's name: its
    // specmc stage fails, so the zoo's expectations do not hold.
    let dir = std::env::temp_dir().join(format!("ccsql-stderr-zoo-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let pack = format!(
        "{}/../../specs/bedrock_moesif_buggy.ccsql",
        env!("CARGO_MANIFEST_DIR")
    );
    std::fs::copy(pack, dir.join("moesif.ccsql")).unwrap();
    let out = ccsql(&["zoo", &dir.display().to_string(), "--quick"]);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(
        err.ends_with("expectations BROKEN\n  moesif: clean pack failed specmc\n"),
        "{err}"
    );
    assert!(!err.ends_with("\n\n"), "{err:?}");
}
