//! The structured diagnostic every lint pass emits.
//!
//! A [`Diagnostic`] names *what* rule fired ([`Code`], a stable
//! machine-readable identifier), *how bad* it is ([`Severity`]) and
//! *where* (a span string — a scenario field path like
//! `mem_spec.target.regions[1]` for spec lints, a `file:line` location
//! for source audits). Severity is canonical per code: callers gate on
//! [`Severity::Error`] (the coordinator refuses the handshake, CI
//! fails the build) and surface [`Severity::Warning`] as advice.

use certify_core::json::Json;
use std::fmt;

/// How bad a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Suspicious but runnable: the campaign executes, though parts of
    /// the spec are dead weight or guarantee skipped injections.
    Warning,
    /// The spec (or schema, or source tree) is broken: a campaign run
    /// from it would be silently meaningless or the build is unsound.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

macro_rules! codes {
    ($( $variant:ident = ($str:literal, $severity:ident, $doc:literal) ),* $(,)?) => {
        /// Stable identifiers for every rule a lint pass can fire.
        ///
        /// The string form ([`Code::as_str`]) is part of the tool's
        /// output contract (JSON reports, CI logs, the README table);
        /// renaming one is a breaking change.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub enum Code {
            $(#[doc = $doc] $variant,)*
        }

        impl Code {
            /// Every code, in declaration order.
            pub const ALL: &'static [Code] = &[$(Code::$variant,)*];

            /// The stable string identifier.
            pub fn as_str(self) -> &'static str {
                match self { $(Code::$variant => $str,)* }
            }

            /// The canonical severity of this rule.
            pub fn severity(self) -> Severity {
                match self { $(Code::$variant => Severity::$severity,)* }
            }

            /// What the rule checks (the README table's description).
            pub fn describe(self) -> &'static str {
                match self { $(Code::$variant => $doc,)* }
            }
        }
    };
}

codes! {
    // -- scenario / spec analyzer -----------------------------------
    SpecZeroSteps = ("spec-zero-steps", Error,
        "The scenario's trial horizon is zero steps: no trial can observe anything."),
    SpecEmptyTargets = ("spec-empty-targets", Error,
        "An injection spec targets no handlers: its cadence can never advance."),
    SpecZeroRate = ("spec-zero-rate", Error,
        "An injection rate of zero can never fire (the engine builders reject it too)."),
    SpecUnsatisfiableRate = ("spec-unsatisfiable-rate", Error,
        "The rate exceeds every plausible filtered-call count for the trial horizon: \
         no injection can ever fire."),
    SpecCpuOutOfRange = ("spec-cpu-out-of-range", Error,
        "The CPU filter names a CPU the platform does not have: no call ever matches."),
    SpecZeroInjectionCap = ("spec-zero-injection-cap", Warning,
        "max_injections is zero: the spec is armed but can never inject."),
    WindowInverted = ("window-inverted", Error,
        "An injection window's start is not before its end (the builders reject this too)."),
    WindowDead = ("window-dead", Warning,
        "An injection window opens at or after the trial horizon: it never arms."),
    WindowAllDead = ("window-all-dead", Error,
        "Every window of a non-empty window list is dead or inverted: the spec never arms."),
    WindowOverlap = ("window-overlap", Warning,
        "Two injection windows overlap: legal, but the overlap is redundant."),
    MemEmptyRegions = ("mem-empty-regions", Error,
        "A memory target samples from no regions."),
    MemRegionTooSmall = ("mem-region-too-small", Error,
        "A target region spans fewer than four bytes: no 32-bit word fits."),
    MemRegionWraps = ("mem-region-wraps", Error,
        "A target region wraps the 32-bit address space."),
    MemRegionOutsideRam = ("mem-region-outside-ram", Warning,
        "A RAM-word target region lies entirely outside DRAM: every sample there is a \
         guaranteed skipped injection."),
    MemRegionStraddlesRam = ("mem-region-straddles-ram", Warning,
        "A RAM-word target region partly leaves DRAM: samples there may skip."),
    MemNoVictimCell = ("mem-no-victim-cell", Warning,
        "The model needs a non-root victim cell but the script never creates one: every \
         descriptor attack is a guaranteed skipped injection."),
    ScriptEmpty = ("script-empty", Warning,
        "The management script has no operations: the root workload does nothing."),
    ScriptRestartOutOfBounds = ("script-restart-out-of-bounds", Warning,
        "A restart op jumps past the end of the script, which silently ends it."),
    MixedPhaseLock = ("mixed-phase-lock", Warning,
        "Register and memory specs share targets, CPU filter and rate with no phase \
         jitter: both injectors fire on exactly the same calls."),
    // -- shard partitions -------------------------------------------
    PartitionEmptyRange = ("partition-empty-range", Warning,
        "A shard range covers zero trials: the worker is spawned for nothing."),
    PartitionOverlap = ("partition-overlap", Error,
        "A shard range re-covers trials of an earlier range: rows would collide."),
    PartitionGap = ("partition-gap", Error,
        "The shard ranges leave trials of the campaign uncovered."),
    PartitionOutOfBounds = ("partition-out-of-bounds", Error,
        "A shard range extends past the campaign's trial space."),
    // -- codec schema auditor ---------------------------------------
    SchemaMismatch = ("schema-mismatch", Error,
        "A wire type's canonical encoding no longer matches its golden fingerprint: tag \
         layout, field order or width changed — a cross-version protocol break."),
    SchemaMissingGolden = ("schema-missing-golden", Error,
        "A wire type has no golden fingerprint: regenerate the schema table."),
    SchemaUnknownGolden = ("schema-unknown-golden", Error,
        "The golden table pins a witness the current code no longer produces."),
    SchemaMalformedGolden = ("schema-malformed-golden", Error,
        "A golden-table line is unparseable."),
    // -- determinism source audit -----------------------------------
    AuditForbiddenToken = ("audit-forbidden-token", Error,
        "A trial-hot-path source file uses a known nondeterminism source (seeded-hash \
         containers, wall clocks, OS entropy, ambient environment reads)."),
    AuditUnusedAllow = ("audit-unused-allow", Error,
        "An allowlist entry matched nothing: it is stale and should be removed."),
    AuditMalformedAllow = ("audit-malformed-allow", Error,
        "An allowlist line is unparseable."),
    AuditIo = ("audit-io", Error,
        "The source tree could not be read."),
    // -- certificate interpreter ------------------------------------
    CertCellOpWithoutEnable = ("cert-cell-op-without-enable", Error,
        "The script reaches a cell create before any enable: the hypervisor cannot \
         service the operation."),
    CertCellOpWithoutCreate = ("cert-cell-op-without-create", Error,
        "The script reaches a cell load/start/shutdown/destroy while no created cell \
         exists on any path to it."),
    CertDoubleCreate = ("cert-double-create", Warning,
        "The script reaches a second cell create while the first cell still exists."),
    CertStartWithoutLoad = ("cert-start-without-load", Warning,
        "The script starts the cell without loading an image since its creation: the \
         guest enters at whatever the cell RAM happens to contain."),
    CertWaitWithoutOffline = ("cert-wait-without-offline", Warning,
        "The script waits for a CPU to park without having requested it offline: the \
         wait polls forever against a CPU that never parks."),
    CertUnreachableOp = ("cert-unreachable-op", Warning,
        "A script operation can never execute: the symbolic walk never reaches it."),
    CertMonitorWithoutHeartbeat = ("cert-monitor-without-heartbeat", Warning,
        "The script runs the heartbeat safety monitor but the RTOS workload publishes \
         no heartbeat: every monitored window is a guaranteed alarm."),
    CertRegionUnmapped = ("cert-region-unmapped", Warning,
        "A memory target region is cell-backed in the derived topology but the script \
         never creates the cell: corruption there is unobservable by any guest."),
    CertScriptEndsBeforeWindow = ("cert-script-ends-before-window", Warning,
        "The script goes quiet before the earliest injection window opens: only idle \
         background traffic can drive the cadence inside it."),
    CertZeroBudget = ("cert-zero-budget", Error,
        "The certified injection budget is zero: the abstract interpreter proves no \
         injection can ever fire."),
}

/// One finding of a lint pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Canonical severity of [`Diagnostic::code`].
    pub severity: Severity,
    /// Which rule fired.
    pub code: Code,
    /// Where: a scenario field path (`spec.windows[1]`), a partition
    /// index (`partition[2]`), a witness name, or `file:line`.
    pub span: String,
    /// Human-readable detail.
    pub message: String,
}

impl Diagnostic {
    /// A diagnostic for `code` at `span`, with the code's canonical
    /// severity.
    pub fn new(code: Code, span: impl Into<String>, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            severity: code.severity(),
            code,
            span: span.into(),
            message: message.into(),
        }
    }

    /// This diagnostic as a JSON object (for `certify-lint --json`).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("severity", Json::str(self.severity.to_string())),
            ("code", Json::str(self.code.as_str())),
            ("span", Json::str(self.span.clone())),
            ("message", Json::str(self.message.clone())),
        ])
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] {}: {}",
            self.severity,
            self.code.as_str(),
            self.span,
            self.message
        )
    }
}

/// Whether any diagnostic is [`Severity::Error`] — the gate the
/// coordinator, the worker handshake and CI all use.
pub fn has_errors(diagnostics: &[Diagnostic]) -> bool {
    diagnostics.iter().any(|d| d.severity == Severity::Error)
}

/// A diagnostic list as a JSON array.
pub fn diagnostics_to_json(diagnostics: &[Diagnostic]) -> Json {
    Json::Arr(diagnostics.iter().map(Diagnostic::to_json).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn code_strings_are_unique_and_kebab() {
        let mut seen = std::collections::BTreeSet::new();
        for &code in Code::ALL {
            let s = code.as_str();
            assert!(seen.insert(s), "duplicate code string {s}");
            assert!(
                s.chars().all(|c| c.is_ascii_lowercase() || c == '-'),
                "{s} is not kebab-case"
            );
            assert!(!code.describe().is_empty());
        }
    }

    #[test]
    fn display_and_json_carry_the_code() {
        let d = Diagnostic::new(Code::SpecZeroRate, "spec.rate", "rate is zero");
        assert_eq!(d.severity, Severity::Error);
        assert_eq!(
            d.to_string(),
            "error[spec-zero-rate] spec.rate: rate is zero"
        );
        assert_eq!(
            d.to_json().render(),
            "{\"severity\":\"error\",\"code\":\"spec-zero-rate\",\
             \"span\":\"spec.rate\",\"message\":\"rate is zero\"}"
        );
    }

    #[test]
    fn error_gate_ignores_warnings() {
        let warn = Diagnostic::new(Code::WindowDead, "spec.windows[0]", "dead");
        let err = Diagnostic::new(Code::WindowAllDead, "spec.windows", "all dead");
        assert!(!has_errors(std::slice::from_ref(&warn)));
        assert!(has_errors(&[warn, err]));
        assert!(!has_errors(&[]));
    }
}
