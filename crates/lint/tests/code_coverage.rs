//! Exhaustiveness of the diagnostic-code surface.
//!
//! Every code in `Code::ALL` must carry a canonical severity and a
//! non-empty description, appear as a row in the README's diagnostic
//! table, and be exercised by at least one test outside its
//! definition site — so a code can never be added without docs and a
//! triggering test, and never retired while docs still advertise it.

use certify_lint::{Code, Severity};
use std::fs;
use std::path::{Path, PathBuf};

/// The README at the repository root, resolved from this crate.
fn readme() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../README.md");
    fs::read_to_string(&path).expect("README.md at the repository root")
}

/// All `.rs` files under the lint crate's `src/` and `tests/`.
fn lint_sources() -> Vec<(PathBuf, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut out = Vec::new();
    for dir in ["src", "tests"] {
        collect(&root.join(dir), &mut out);
    }
    out
}

fn collect(dir: &Path, out: &mut Vec<(PathBuf, String)>) {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)
        .expect("readable source dir")
        .map(|e| e.expect("dir entry").path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            let source = fs::read_to_string(&path).expect("readable source file");
            out.push((path, source));
        }
    }
}

#[test]
fn every_code_has_a_severity_and_description() {
    assert!(Code::ALL.len() >= 41, "codes must not silently disappear");
    for &code in Code::ALL {
        assert!(
            matches!(code.severity(), Severity::Error | Severity::Warning),
            "{code:?}"
        );
        let describe = code.describe();
        assert!(
            describe.len() > 20 && describe.ends_with('.'),
            "{code:?} needs a real description, got `{describe}`"
        );
        let name = code.as_str();
        assert!(
            !name.is_empty()
                && name
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-'),
            "{code:?} string form `{name}` must be kebab-case"
        );
    }
}

#[test]
fn every_code_has_a_readme_table_row() {
    let readme = readme();
    for &code in Code::ALL {
        let row = format!("| `{}` |", code.as_str());
        assert!(
            readme.contains(&row),
            "README diagnostic table is missing a row for `{}`",
            code.as_str()
        );
        // The row's severity column must agree with the code's.
        let sev = match code.severity() {
            Severity::Error => "E",
            Severity::Warning => "W",
        };
        let full = format!("| `{}` | {sev} |", code.as_str());
        assert!(
            readme.contains(&full),
            "README row for `{}` disagrees with its canonical severity {sev}",
            code.as_str()
        );
    }
}

#[test]
fn every_code_is_exercised_outside_its_definition() {
    let sources = lint_sources();
    for &code in Code::ALL {
        let needle = format!("Code::{code:?}");
        let hits = sources
            .iter()
            .filter(|(path, source)| !path.ends_with("diagnostic.rs") && source.contains(&needle))
            .count();
        assert!(
            hits > 0,
            "`{needle}` is never referenced outside diagnostic.rs — \
             it has no triggering test"
        );
    }
}
