//! Input-robustness probe: seeded mutants of every spec pack go through
//! the CLI's library entry point, and no command may panic. Malformed
//! spec text must end in an error the CLI reports, never in an unwind.
//!
//! A fixed-seed splitmix64 mutator derives five mutants per pack, one
//! of each kind: byte substitution, token drop, line drop, line
//! duplication and truncation. Every mutant is linted and solved, and
//! every mutant that parses also goes through `flows`, `mc --spec` and
//! `sim --spec`, whether or not `solve` accepts it. That is safe because
//! every stage solves under the solver's row budget: a mutant whose
//! constraints are all gone fails with a budget error instead of
//! materialising an unconstrained cross product.

use ccsql_suite::obs::SplitMix64;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

const KINDS: [&str; 5] = [
    "substitute",
    "drop-token",
    "drop-line",
    "dup-line",
    "truncate",
];

/// Characters a substitution writes: the spec grammar's punctuation,
/// whitespace and identifier characters.
const ALPHABET: &[char] = &[
    '=', ',', '(', ')', '?', ':', '"', '#', '\n', ' ', 'a', 'Z', '0',
];

fn pick(rng: &mut SplitMix64, n: usize) -> usize {
    rng.gen_range_u64(n.max(1) as u64) as usize
}

/// Apply mutation `kind` (one of [`KINDS`]) to `text`.
fn mutate(text: &str, kind: &str, rng: &mut SplitMix64) -> String {
    let chars: Vec<char> = text.chars().collect();
    let lines: Vec<&str> = text.split_inclusive('\n').collect();
    match kind {
        "substitute" => {
            let mut out = chars;
            let at = pick(rng, out.len());
            out[at] = ALPHABET[pick(rng, ALPHABET.len())];
            out.into_iter().collect()
        }
        "drop-token" => {
            // Byte ranges of the whitespace-separated tokens.
            let mut tokens = Vec::new();
            let mut start = None;
            for (i, c) in text.char_indices() {
                match (c.is_whitespace(), start) {
                    (false, None) => start = Some(i),
                    (true, Some(s)) => {
                        tokens.push(s..i);
                        start = None;
                    }
                    _ => {}
                }
            }
            if let Some(s) = start {
                tokens.push(s..text.len());
            }
            let cut = tokens[pick(rng, tokens.len())].clone();
            format!("{}{}", &text[..cut.start], &text[cut.end..])
        }
        "drop-line" => {
            let mut out = lines;
            out.remove(pick(rng, out.len()));
            out.concat()
        }
        "dup-line" => {
            let mut out = lines;
            let at = pick(rng, out.len());
            out.insert(at, out[at]);
            out.concat()
        }
        "truncate" => chars[..pick(rng, chars.len())].iter().collect(),
        other => unreachable!("unknown mutation {other}"),
    }
}

/// Run one CLI command under `catch_unwind`: `Ok` with whether the
/// command succeeded, `Err` with the panic message.
fn run(args: &[&str]) -> Result<bool, String> {
    let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
    catch_unwind(AssertUnwindSafe(|| ccsql_cli::run(&args).is_ok())).map_err(|p| {
        p.downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    })
}

fn packs() -> Vec<PathBuf> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("specs");
    let mut packs: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("specs/ exists")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "ccsql"))
        .collect();
    packs.sort();
    packs
}

#[test]
fn spec_mutants_never_panic_the_cli() {
    let dir = std::env::temp_dir().join(format!("ccsql-mutants-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let mut rng = SplitMix64::new(0x5eed_5eed);
    let (mut mutants, mut solved, mut unparsable, mut staged) = (0, 0, 0, 0);
    let mut panics = Vec::new();
    for pack in packs() {
        let text = std::fs::read_to_string(&pack).unwrap();
        let stem = pack.file_stem().unwrap().to_string_lossy().into_owned();
        for kind in KINDS {
            let mutant = mutate(&text, kind, &mut rng);
            let path = dir.join(format!("{stem}-{kind}.ccsql"));
            std::fs::write(&path, &mutant).unwrap();
            let p = path.to_str().unwrap();
            mutants += 1;
            let parses = catch_unwind(|| ccsql_suite::relalg::parse_specfile(&mutant).is_ok());
            unparsable += usize::from(matches!(parses, Ok(false)));
            let mut check = |args: &[&str]| {
                run(args).unwrap_or_else(|msg| {
                    panics.push(format!("{} on {stem}/{kind}: {msg}", args[0]));
                    false
                })
            };
            check(&["lint", p]);
            solved += usize::from(check(&["solve", p]));
            if matches!(parses, Ok(true)) {
                staged += 1;
                check(&["flows", p]);
                check(&["mc", "--spec", p, "--nodes", "2"]);
                check(&["sim", "--spec", p, "--ops", "200"]);
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        panics.is_empty(),
        "the CLI panicked:\n{}",
        panics.join("\n")
    );
    assert_eq!(mutants, 5 * packs().len());
    assert!(solved > 0, "no mutant solved");
    assert!(
        staged > solved,
        "the later stages ran only on mutants `solve` accepts"
    );
    assert!(
        unparsable > 0,
        "every mutant parsed: the parser's errors went untested"
    );
}
