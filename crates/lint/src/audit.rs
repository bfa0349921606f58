//! Pass 3 — the determinism source audit.
//!
//! The framework's whole claim rests on seeded determinism: the same
//! scenario and seed must produce byte-identical trial results on any
//! machine, in any process, at any time. That property dies quietly —
//! someone reaches for a `HashMap` (seeded iteration order), a wall
//! clock, OS entropy, or an ambient environment read, and trials stop
//! replaying. This pass is a plain text scan over the trial-hot-path
//! crates that refuses known nondeterminism sources outright, with a
//! committed allowlist (`determinism-allow.txt`) for the audited
//! exceptions. It runs in CI beside `fmt` and `clippy`.
//!
//! Deliberately dumb: no parsing, no type resolution — just token
//! matching on comment-stripped source lines, stopping at each file's
//! `#[cfg(test)]` module (test code may use clocks and maps freely).
//! Dumb scanners are predictable: a contributor can always see *why*
//! a line fired and either fix it or allowlist it with a comment.

use crate::diagnostic::{Code, Diagnostic};
use std::fs;
use std::path::{Path, PathBuf};

/// The forbidden tokens and why each breaks replay determinism.
pub const FORBIDDEN_TOKENS: &[(&str, &str)] = &[
    ("HashMap", "iteration order is randomly seeded per process"),
    ("HashSet", "iteration order is randomly seeded per process"),
    ("SystemTime", "wall-clock reads differ per run"),
    ("Instant::now", "monotonic-clock reads differ per run"),
    ("thread_rng", "OS-entropy RNG breaks seeded replay"),
    ("rand::random", "OS-entropy RNG breaks seeded replay"),
    ("OsRng", "OS-entropy RNG breaks seeded replay"),
    ("std::env::", "ambient environment reads differ per host"),
    (
        "thread::sleep",
        "real-time delays stall replay and differ per run",
    ),
];

/// Crate directories excluded from the scan: `lint` is the auditor
/// itself (its token table would trip the scan).
const EXCLUDED_CRATES: &[&str] = &["lint"];

/// Repository-root-relative directories the repo-wide audit scans in
/// addition to the crate sources: the examples, the bench binaries
/// (real programs whose clock reads must be deliberate), and the
/// facade crate.
const EXTRA_SCAN_DIRS: &[&str] = &["examples", "src", "crates/bench/benches"];

/// One parsed allowlist entry.
#[derive(Debug, Clone, PartialEq, Eq)]
struct AllowEntry {
    /// Path suffix the entry applies to (e.g. `board/src/ram.rs`).
    path_suffix: String,
    /// The forbidden token being allowed there.
    token: String,
    /// Whether any scanned line consumed this entry.
    used: bool,
    /// Line number in the allowlist file (for diagnostics).
    line: usize,
}

/// The committed allowlist this build is audited with.
pub const DEFAULT_ALLOWLIST: &str = include_str!("../determinism-allow.txt");

/// Parses an allowlist: one `path-suffix token` pair per line, `#`
/// comments (inline or whole-line) and blank lines ignored.
fn parse_allowlist(text: &str, out: &mut Vec<Diagnostic>) -> Vec<AllowEntry> {
    let mut entries = Vec::new();
    for (line_no, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        match (parts.next(), parts.next(), parts.next()) {
            (Some(path_suffix), Some(token), None) => entries.push(AllowEntry {
                path_suffix: path_suffix.to_string(),
                token: token.to_string(),
                used: false,
                line: line_no + 1,
            }),
            _ => out.push(Diagnostic::new(
                Code::AuditMalformedAllow,
                format!("determinism-allow.txt:{}", line_no + 1),
                format!("cannot parse `{line}` as `<path-suffix> <token>`"),
            )),
        }
    }
    entries
}

/// Scans one file's source text, pushing a diagnostic per forbidden
/// token occurrence not covered by the allowlist. `display_path` is
/// the path shown in spans and matched against allowlist suffixes
/// (always `/`-separated).
fn scan_source(
    display_path: &str,
    source: &str,
    allow: &mut [AllowEntry],
    out: &mut Vec<Diagnostic>,
) {
    for (line_no, raw) in source.lines().enumerate() {
        // Test modules sit at the end of each file (repo convention);
        // everything from `#[cfg(test)]` on is test-only code.
        if raw.trim_start().starts_with("#[cfg(test)]") {
            break;
        }
        // Strip line comments (this also drops doc comments, which may
        // legitimately *mention* HashMap).
        let code = raw.split("//").next().unwrap_or("");
        for &(token, why) in FORBIDDEN_TOKENS {
            if !code.contains(token) {
                continue;
            }
            let allowed = allow
                .iter_mut()
                .find(|entry| entry.token == token && display_path.ends_with(&entry.path_suffix));
            if let Some(entry) = allowed {
                entry.used = true;
            } else {
                out.push(Diagnostic::new(
                    Code::AuditForbiddenToken,
                    format!("{display_path}:{}", line_no + 1),
                    format!("`{token}`: {why}"),
                ));
            }
        }
    }
}

/// Collects the `.rs` files under `dir` (recursively), sorted for
/// stable diagnostic order.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut names: Vec<PathBuf> = fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    names.sort();
    for path in names {
        if path.is_dir() {
            rust_files(&path, out)?;
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Scans every non-excluded crate's `src/` under `crates_root`,
/// displaying paths relative to `crates_root`.
fn scan_crates(crates_root: &Path, allow: &mut [AllowEntry], out: &mut Vec<Diagnostic>) {
    let crate_dirs = match fs::read_dir(crates_root) {
        Ok(iter) => {
            let mut dirs: Vec<PathBuf> = iter
                .filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| p.is_dir())
                .filter(|p| {
                    let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
                    !EXCLUDED_CRATES.contains(&name)
                })
                .collect();
            dirs.sort();
            dirs
        }
        Err(err) => {
            out.push(Diagnostic::new(
                Code::AuditIo,
                crates_root.display().to_string(),
                format!("cannot read the crates directory: {err}"),
            ));
            return;
        }
    };

    for crate_dir in crate_dirs {
        let src = crate_dir.join("src");
        if !src.is_dir() {
            continue;
        }
        let mut files = Vec::new();
        if let Err(err) = rust_files(&src, &mut files) {
            out.push(Diagnostic::new(
                Code::AuditIo,
                src.display().to_string(),
                format!("cannot walk the source tree: {err}"),
            ));
            continue;
        }
        for file in files {
            let display: String = file
                .strip_prefix(crates_root)
                .unwrap_or(&file)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            match fs::read_to_string(&file) {
                Ok(source) => scan_source(&display, &source, allow, out),
                Err(err) => out.push(Diagnostic::new(
                    Code::AuditIo,
                    display,
                    format!("cannot read source file: {err}"),
                )),
            }
        }
    }
}

/// Scans one repo-root-relative directory (if it exists), displaying
/// paths relative to `repo_root` (e.g. `examples/quickstart.rs`).
fn scan_dir(repo_root: &Path, rel: &str, allow: &mut [AllowEntry], out: &mut Vec<Diagnostic>) {
    let dir = repo_root.join(rel);
    if !dir.is_dir() {
        return;
    }
    let mut files = Vec::new();
    if let Err(err) = rust_files(&dir, &mut files) {
        out.push(Diagnostic::new(
            Code::AuditIo,
            dir.display().to_string(),
            format!("cannot walk the source tree: {err}"),
        ));
        return;
    }
    for file in files {
        let display: String = file
            .strip_prefix(repo_root)
            .unwrap_or(&file)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        match fs::read_to_string(&file) {
            Ok(source) => scan_source(&display, &source, allow, out),
            Err(err) => out.push(Diagnostic::new(
                Code::AuditIo,
                display,
                format!("cannot read source file: {err}"),
            )),
        }
    }
}

/// Flags every allowlist entry no scanned line consumed.
fn report_unused(allow: &[AllowEntry], out: &mut Vec<Diagnostic>) {
    for entry in allow {
        if !entry.used {
            out.push(Diagnostic::new(
                Code::AuditUnusedAllow,
                format!("determinism-allow.txt:{}", entry.line),
                format!(
                    "allowlist entry `{} {}` matched nothing and should be removed",
                    entry.path_suffix, entry.token
                ),
            ));
        }
    }
}

/// Audits every non-excluded crate under `crates_root` (a `crates/`
/// directory) with the given allowlist text. Crates-only: the
/// repo-wide entry point is [`audit_repo`].
pub fn audit_tree_with_allowlist(crates_root: &Path, allowlist: &str) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut allow = parse_allowlist(allowlist, &mut out);
    scan_crates(crates_root, &mut allow, &mut out);
    report_unused(&allow, &mut out);
    out
}

/// Audits the whole repository — crate sources plus the examples,
/// bench binaries and facade crate — with the given allowlist text.
pub fn audit_repo_with_allowlist(repo_root: &Path, allowlist: &str) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut allow = parse_allowlist(allowlist, &mut out);
    scan_crates(&repo_root.join("crates"), &mut allow, &mut out);
    for rel in EXTRA_SCAN_DIRS {
        scan_dir(repo_root, rel, &mut allow, &mut out);
    }
    report_unused(&allow, &mut out);
    out
}

/// Audits the whole repository with the committed allowlist — the CI
/// entry point.
pub fn audit_repo(repo_root: &Path) -> Vec<Diagnostic> {
    audit_repo_with_allowlist(repo_root, DEFAULT_ALLOWLIST)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagnostic::has_errors;

    fn codes(diags: &[Diagnostic]) -> Vec<Code> {
        diags.iter().map(|d| d.code).collect()
    }

    #[test]
    fn the_repo_tree_audits_clean() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .unwrap();
        let diags = audit_repo(root);
        assert!(
            diags.is_empty(),
            "determinism audit failed:\n{}",
            diags
                .iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }

    #[test]
    fn forbidden_tokens_fire_outside_tests_only() {
        let mut out = Vec::new();
        let source = "use std::collections::HashMap;\n\
                      let t = SystemTime::now(); // bad\n\
                      // a comment mentioning thread_rng is fine\n\
                      #[cfg(test)]\n\
                      mod tests { use std::collections::HashSet; }\n";
        scan_source("core/src/x.rs", source, &mut [], &mut out);
        assert_eq!(
            codes(&out),
            vec![Code::AuditForbiddenToken, Code::AuditForbiddenToken]
        );
        assert!(out[0].message.contains("HashMap"));
        assert_eq!(out[1].span, "core/src/x.rs:2");
        assert!(has_errors(&out));
    }

    #[test]
    fn sleep_and_os_entropy_tokens_fire() {
        let mut out = Vec::new();
        let source = "std::thread::sleep(d);\nlet mut rng = OsRng;\n";
        scan_source("core/src/x.rs", source, &mut [], &mut out);
        assert_eq!(
            codes(&out),
            vec![Code::AuditForbiddenToken, Code::AuditForbiddenToken]
        );
        assert!(out.iter().any(|d| d.message.contains("thread::sleep")));
        assert!(out.iter().any(|d| d.message.contains("OsRng")));
    }

    #[test]
    fn allowlist_suppresses_and_tracks_use() {
        let mut out = Vec::new();
        let mut allow = parse_allowlist(
            "core/src/x.rs HashMap # audited: deterministic hasher\n\
             core/src/y.rs SystemTime\n",
            &mut out,
        );
        assert!(out.is_empty());
        scan_source(
            "core/src/x.rs",
            "use std::collections::HashMap;\n",
            &mut allow,
            &mut out,
        );
        assert!(out.is_empty(), "allowlisted token still fired: {out:?}");
        assert!(allow[0].used);
        assert!(!allow[1].used);
    }

    #[test]
    fn malformed_allowlist_lines_are_errors() {
        let mut out = Vec::new();
        let entries = parse_allowlist("one-field-only\na b c\n# fine\n", &mut out);
        assert!(entries.is_empty());
        assert_eq!(
            codes(&out),
            vec![Code::AuditMalformedAllow, Code::AuditMalformedAllow]
        );
        assert_eq!(out[0].span, "determinism-allow.txt:1");
    }

    #[test]
    fn unused_allow_entries_and_unreadable_roots_are_reported() {
        let missing = Path::new("/nonexistent/certify-lint-audit");
        let diags = audit_tree_with_allowlist(missing, "ghost/src/z.rs HashMap\n");
        // An unreadable root is an I/O error, and the entry it never
        // scanned against still reports as unused.
        assert_eq!(codes(&diags), vec![Code::AuditIo, Code::AuditUnusedAllow]);

        let real = Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap();
        let diags = audit_tree_with_allowlist(real, "ghost/src/z.rs HashMap\n");
        assert!(diags
            .iter()
            .any(|d| d.code == Code::AuditUnusedAllow && d.span == "determinism-allow.txt:1"));
    }
}
