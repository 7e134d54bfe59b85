//! The rule catalog and the token-pattern checker.
//!
//! Every rule exists to protect one contract: **a sweep/telemetry export
//! is a pure function of its spec** — byte-identical for any `--jobs`
//! value, across interrupt/resume, and from machine to machine. The
//! determinism rules (D...) remove the classic leak paths (hash-order
//! iteration, wall clocks, ad-hoc RNG seeding, environment reads); the
//! panic-safety rules (P...) keep library paths typed-error-only so the
//! harness's `catch_unwind` isolation stays an emergency net, not a
//! control-flow mechanism.

use crate::config::{LintConfig, RuleConfig, Scope};
use crate::findings::{AllowSite, Finding};
use crate::lexer::{Token, TokenKind};

/// Static description of one rule.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    pub id: &'static str,
    pub summary: &'static str,
    pub hint: &'static str,
    pub default_scope: Scope,
    pub default_allow_fns: &'static [&'static str],
    /// Result-path sink fn names for the interprocedural taint rules.
    pub default_sinks: &'static [&'static str],
}

/// The compiled-in catalog. `lint.toml` can disable rules, change their
/// scope, or restrict their paths — but the IDs and semantics live here.
pub fn catalog() -> &'static [Rule] {
    const CATALOG: &[Rule] = &[
        Rule {
            id: "D001",
            summary: "iteration-order-dependent hash collection",
            hint: "use BTreeMap/BTreeSet (or an index-sorted merge) so export, report and \
                   checkpoint bytes cannot depend on hash iteration order",
            default_scope: Scope::All,
            default_allow_fns: &[],
            default_sinks: &[],
        },
        Rule {
            id: "D002",
            summary: "wall-clock read in result-affecting code",
            hint: "read wall time through lpm_telemetry::wall_now (the one sanctioned, \
                   allow-annotated entry point); it may only feed stderr diagnostics, \
                   profiling side channels and the zeroed-on-export cycles/sec field",
            default_scope: Scope::Lib,
            default_allow_fns: &["wall_now"],
            default_sinks: &[],
        },
        Rule {
            id: "D003",
            summary: "RNG constructed outside a sanctioned seed-derivation helper",
            hint: "route all stream seeding through derive_stream/rng_for/salted_rng so every \
                   random stream is a pure function of the point seed, never of call order",
            default_scope: Scope::Lib,
            default_allow_fns: &["derive_stream", "rng_for", "salted_rng"],
            default_sinks: &[],
        },
        Rule {
            id: "D004",
            summary: "environment- or date-dependent value in library code",
            hint: "thread configuration through typed options instead of env reads; exports \
                   must not embed dates, hostnames or environment state",
            default_scope: Scope::Lib,
            default_allow_fns: &[],
            default_sinks: &[],
        },
        Rule {
            id: "D005",
            summary: "unbounded mpsc channel in long-running service code",
            hint: "use std::sync::mpsc::sync_channel(capacity): an unbounded channel() turns \
                   a stalled consumer into unbounded memory growth, while a bounded one \
                   surfaces overload as backpressure the admission layer can reject typed",
            default_scope: Scope::All,
            default_allow_fns: &[],
            default_sinks: &[],
        },
        Rule {
            id: "D006",
            summary: "raw std::fs mutation outside the Vfs fault layer",
            hint: "route durable writes through lpm_vfs::Vfs (create/append/rename/sync_dir) \
                   so storage-fault schedules and the crash-consistency oracle cover the \
                   path; a raw fs::write/rename or File handle bypasses every injected fault",
            default_scope: Scope::Lib,
            default_allow_fns: &[],
            default_sinks: &[],
        },
        Rule {
            id: "P001",
            summary: "panicking call in non-test library code",
            hint: "return a typed error (SimError/LpmError/ParseError) instead; if the panic \
                   is a documented API contract or a proven invariant, annotate it with \
                   `// lpm-lint: allow(P001) <reason>`",
            default_scope: Scope::Lib,
            default_allow_fns: &[],
            default_sinks: &[],
        },
        Rule {
            id: "P002",
            summary: "`as` integer cast on counter/cycle arithmetic",
            hint: "use From/TryFrom (u64::from for widening, try_into for narrowing) or a \
                   documented saturating helper; silent `as` truncation corrupts counters \
                   exactly when runs get interesting",
            default_scope: Scope::Lib,
            default_allow_fns: &[],
            default_sinks: &[],
        },
        Rule {
            id: "F001",
            summary: "wall-clock taint reaching a result-path sink through helper calls",
            hint: "a fn that reads the wall clock (however indirectly) must not be reachable \
                   from export/report/fingerprint/journal writers; route the read through \
                   wall_now and keep it off the result path — the why chain in the finding \
                   is the call path to sever",
            default_scope: Scope::Lib,
            default_allow_fns: &["wall_now"],
            default_sinks: &[
                "to_csv",
                "to_jsonl",
                "to_json",
                "to_text",
                "fingerprint",
                "append",
                "atomic_write_with",
                "persist_manifest",
            ],
        },
        Rule {
            id: "F002",
            summary: "RNG construction reaching a result-path sink outside sanctioned helpers",
            hint: "every random stream on a result path must be derived via \
                   derive_stream/rng_for/salted_rng from the point seed; an RNG constructed \
                   anywhere else and laundered through helpers makes exports depend on call \
                   order — follow the why chain and reseed at the source",
            default_scope: Scope::Lib,
            default_allow_fns: &["derive_stream", "rng_for", "salted_rng"],
            default_sinks: &[
                "to_csv",
                "to_jsonl",
                "to_json",
                "to_text",
                "fingerprint",
                "append",
                "atomic_write_with",
                "persist_manifest",
            ],
        },
        Rule {
            id: "C001",
            summary: "concurrency hazard: blocking while a lock/scope is live, or lock-order \
                      inversion",
            hint: "drop the MutexGuard before any bounded send/recv/join (or drop the channel \
                   endpoint before breaking out of a scope's drain loop), and acquire locks \
                   in one global order — DESIGN.md §9 documents the PR 6 deadlock this rule \
                   reconstructs",
            default_scope: Scope::Lib,
            default_allow_fns: &[],
            default_sinks: &[],
        },
        Rule {
            id: "U001",
            summary: "unsafe code outside the audited inventory",
            hint: "every `unsafe` must carry `// lpm-lint: allow(U001) <reason>` naming the \
                   invariant that makes it sound; today the only audited site is the serve \
                   signal FFI module",
            default_scope: Scope::All,
            default_allow_fns: &[],
            default_sinks: &[],
        },
        Rule {
            id: "A001",
            summary: "malformed lpm-lint allow annotation",
            hint: "write `// lpm-lint: allow(RULE) <reason>` — the reason is mandatory and \
                   the rule ID must exist",
            default_scope: Scope::All,
            default_allow_fns: &[],
            default_sinks: &[],
        },
    ];
    CATALOG
}

/// Look up a catalog rule by ID.
pub fn rule_by_id(id: &str) -> Option<&'static Rule> {
    catalog().iter().find(|r| r.id == id)
}

/// Hash-ordered collection type names (D001).
const HASH_COLLECTIONS: &[&str] = &[
    "HashMap",
    "HashSet",
    "FxHashMap",
    "FxHashSet",
    "AHashMap",
    "AHashSet",
];

/// RNG constructor names (D003; shared with the F002 taint pass).
pub(crate) const RNG_CONSTRUCTORS: &[&str] = &[
    "seed_from_u64",
    "from_seed",
    "from_entropy",
    "thread_rng",
    "new_rng",
];

/// Panicking call names reached via `.` or `::` (P001).
const PANICKY_METHODS: &[&str] = &["unwrap", "expect"];

/// Panicking macro names (P001).
const PANICKY_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Integer cast targets (P002).
const INT_TYPES: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
];

/// Raw filesystem mutators after `fs::` (D006). Reads (`read_to_string`,
/// `read_dir`, `metadata`) stay legal — the Vfs contract covers durable
/// mutation; `eio-read` coverage rides on the crate's own read helpers.
const FS_MUTATORS: &[&str] = &[
    "write",
    "rename",
    "create_dir_all",
    "create_dir",
    "remove_file",
    "remove_dir_all",
    "copy",
    "hard_link",
];

/// Raw file-handle constructors after `File::` (D006). Any write or
/// fsync on such a handle is invisible to fault schedules, so the
/// handle's construction is the finding — there is no need to (and no
/// token-level way to) flag `.sync_all()` on the handle itself, which
/// would also hit the sanctioned `VfsFile` sync calls.
const FILE_CONSTRUCTORS: &[&str] = &["create", "create_new", "open"];

/// Date-like type names (D004).
const DATE_TYPES: &[&str] = &["DateTime", "NaiveDate", "NaiveDateTime", "Utc", "Local"];

/// Environment-reading function names after `env::` (D004).
const ENV_READS: &[&str] = &["var", "var_os", "vars", "vars_os"];

/// Per-file lint outcome before allow filtering.
pub struct FileLint {
    pub findings: Vec<Finding>,
    pub allows: Vec<AllowSite>,
}

/// Lint one file's source text.
///
/// `rel` is the workspace-relative path (used for per-rule path gating);
/// `in_tests_dir` marks files under a `tests/` directory, which
/// `Scope::Lib` rules skip wholesale.
pub fn lint_source(rel: &str, src: &str, cfg: &LintConfig, in_tests_dir: bool) -> FileLint {
    let tokens = crate::lexer::lex(src);
    lint_tokens(rel, &tokens, cfg, in_tests_dir)
}

/// Lint one file's token stream. The scanner lexes each file once and
/// shares the tokens between this pass and the parse/call-graph passes.
pub fn lint_tokens(rel: &str, tokens: &[Token], cfg: &LintConfig, in_tests_dir: bool) -> FileLint {
    // Pass 1: allow annotations and the set of lines that carry code.
    let mut allows: Vec<AllowSite> = Vec::new();
    let mut bad_allows: Vec<Finding> = Vec::new();
    let mut code_lines: Vec<usize> = Vec::new();
    for t in tokens {
        match &t.kind {
            TokenKind::Comment(text) => {
                parse_allow_comment(rel, t.line, text, &mut allows, &mut bad_allows);
            }
            _ => code_lines.push(t.line),
        }
    }
    code_lines.dedup();
    // Resolve each allow to the code line it covers: its own line when
    // the comment trails code, else the first code line after it.
    for a in &mut allows {
        if code_lines.binary_search(&a.line).is_ok() {
            a.target_line = a.line;
        } else {
            let next = code_lines.partition_point(|&l| l <= a.line);
            a.target_line = code_lines.get(next).copied().unwrap_or(a.line);
        }
    }

    // Pass 2: pattern matching over code tokens with region tracking.
    // `use X as Y` renames resolve back to X outside of use statements,
    // so an aliased constructor cannot launder past a matcher.
    let aliases = crate::parse::alias_map(tokens);
    let code: Vec<&Token> = tokens
        .iter()
        .filter(|t| !matches!(t.kind, TokenKind::Comment(_)))
        .collect();

    let mut findings: Vec<Finding> = Vec::new();
    let rule_cfg = |id: &str| cfg.rule_for(id, rel);
    let mut emit = |id: &str, line: usize, message: String, in_test: bool| {
        let Some(rc) = rule_cfg(id) else { return };
        if rc.scope == Scope::Lib && (in_tests_dir || in_test) {
            return;
        }
        let hint = rule_by_id(id).map(|r| r.hint).unwrap_or_default();
        findings.push(Finding {
            rule: id.to_string(),
            file: rel.to_string(),
            line,
            message,
            hint: hint.to_string(),
        });
    };

    let mut depth = 0usize;
    let mut test_stack: Vec<usize> = Vec::new();
    let mut fn_stack: Vec<(usize, String)> = Vec::new();
    let mut pending_test = false;
    let mut pending_fn: Option<String> = None;
    let mut in_use = false;

    let ident_at = |i: usize| -> Option<&str> { code.get(i).and_then(|t| t.ident()) };
    let punct_at = |i: usize, c: char| -> bool { code.get(i).is_some_and(|t| t.is_punct(c)) };

    let mut i = 0usize;
    while i < code.len() {
        let t = code[i];
        let in_test = !test_stack.is_empty();

        // Attributes: scan `#[...]` as a unit, mark test regions, and
        // skip the contents (attribute arguments are not code paths).
        if t.is_punct('#') && punct_at(i + 1, '[') {
            let mut j = i + 2;
            let mut brackets = 1usize;
            let mut has_test = false;
            while j < code.len() && brackets > 0 {
                if punct_at(j, '[') {
                    brackets += 1;
                } else if punct_at(j, ']') {
                    brackets -= 1;
                } else if ident_at(j) == Some("test") {
                    has_test = true;
                }
                j += 1;
            }
            if has_test {
                pending_test = true;
            }
            i = j;
            continue;
        }

        match &t.kind {
            TokenKind::Punct('{') => {
                depth += 1;
                if pending_test {
                    test_stack.push(depth);
                    pending_test = false;
                }
                if let Some(name) = pending_fn.take() {
                    fn_stack.push((depth, name));
                }
            }
            TokenKind::Punct('}') => {
                if test_stack.last() == Some(&depth) {
                    test_stack.pop();
                }
                if fn_stack.last().map(|(d, _)| *d) == Some(depth) {
                    fn_stack.pop();
                }
                depth = depth.saturating_sub(1);
            }
            TokenKind::Punct(';') => {
                in_use = false;
                // An attribute or fn signature without a body (trait
                // methods, `#[cfg(test)] use ...;`) binds to nothing.
                pending_test = false;
                pending_fn = None;
            }
            TokenKind::Ident(word) => match if in_use {
                word.as_str()
            } else {
                crate::parse::resolve(&aliases, word)
            } {
                "use" => in_use = true,
                "fn" => {
                    if let Some(name) = ident_at(i + 1) {
                        pending_fn = Some(name.to_string());
                    }
                }
                w if HASH_COLLECTIONS.contains(&w) => {
                    emit(
                        "D001",
                        t.line,
                        format!("{w} is iteration-order nondeterministic"),
                        in_test,
                    );
                }
                "Instant"
                    if punct_at(i + 1, ':')
                        && punct_at(i + 2, ':')
                        && ident_at(i + 3) == Some("now") =>
                {
                    // The sanctioned-entry-point escape: a constructor
                    // inside an allow_fns function (lpm-prof's
                    // `wall_now`) is the one legal raw clock read.
                    let in_allowed_fn = rule_cfg("D002").is_some_and(|rc: &RuleConfig| {
                        fn_stack
                            .iter()
                            .any(|(_, f)| rc.allow_fns.iter().any(|a| a == f))
                    });
                    if !in_allowed_fn {
                        emit(
                            "D002",
                            t.line,
                            "Instant::now() reads the wall clock".to_string(),
                            in_test,
                        );
                    }
                }
                "SystemTime" if !in_use => {
                    let in_allowed_fn = rule_cfg("D002").is_some_and(|rc: &RuleConfig| {
                        fn_stack
                            .iter()
                            .any(|(_, f)| rc.allow_fns.iter().any(|a| a == f))
                    });
                    if !in_allowed_fn {
                        emit(
                            "D002",
                            t.line,
                            "SystemTime reads the wall clock".to_string(),
                            in_test,
                        );
                    }
                }
                w if RNG_CONSTRUCTORS.contains(&w) && !in_use => {
                    let is_definition = i > 0 && ident_at(i - 1) == Some("fn");
                    let in_allowed_fn = rule_cfg("D003").is_some_and(|rc: &RuleConfig| {
                        fn_stack
                            .iter()
                            .any(|(_, f)| rc.allow_fns.iter().any(|a| a == f))
                    });
                    if !is_definition && !in_allowed_fn {
                        emit(
                            "D003",
                            t.line,
                            format!("RNG constructed via {w} outside a sanctioned helper"),
                            in_test,
                        );
                    }
                }
                "env"
                    if punct_at(i + 1, ':')
                        && punct_at(i + 2, ':')
                        && ident_at(i + 3).is_some_and(|f| ENV_READS.contains(&f)) =>
                {
                    let f = ident_at(i + 3).unwrap_or_default();
                    emit(
                        "D004",
                        t.line,
                        format!("env::{f} makes results environment-dependent"),
                        in_test,
                    );
                }
                "fs" if !in_use
                    && punct_at(i + 1, ':')
                    && punct_at(i + 2, ':')
                    && ident_at(i + 3).is_some_and(|f| FS_MUTATORS.contains(&f)) =>
                {
                    let f = ident_at(i + 3).unwrap_or_default();
                    emit(
                        "D006",
                        t.line,
                        format!("raw fs::{f} bypasses the storage-fault layer"),
                        in_test,
                    );
                }
                "File"
                    if !in_use
                        && punct_at(i + 1, ':')
                        && punct_at(i + 2, ':')
                        && ident_at(i + 3).is_some_and(|f| FILE_CONSTRUCTORS.contains(&f)) =>
                {
                    let f = ident_at(i + 3).unwrap_or_default();
                    emit(
                        "D006",
                        t.line,
                        format!("raw File::{f} handle is invisible to fault schedules"),
                        in_test,
                    );
                }
                "OpenOptions" if !in_use => {
                    emit(
                        "D006",
                        t.line,
                        "raw OpenOptions handle is invisible to fault schedules".to_string(),
                        in_test,
                    );
                }
                "env" | "option_env" if punct_at(i + 1, '!') => {
                    emit(
                        "D004",
                        t.line,
                        format!("{word}! bakes build-environment state into the binary"),
                        in_test,
                    );
                }
                "channel" if !in_use && (i == 0 || ident_at(i - 1) != Some("fn")) => {
                    // A call: `channel(` or the turbofish `channel::<T>(`.
                    let mut j = i + 1;
                    if punct_at(j, ':') && punct_at(j + 1, ':') && punct_at(j + 2, '<') {
                        let mut angle = 1usize;
                        j += 3;
                        while j < code.len() && angle > 0 {
                            if punct_at(j, '<') {
                                angle += 1;
                            } else if punct_at(j, '>') {
                                angle -= 1;
                            }
                            j += 1;
                        }
                    }
                    if punct_at(j, '(') {
                        emit(
                            "D005",
                            t.line,
                            "unbounded mpsc::channel() has no backpressure".to_string(),
                            in_test,
                        );
                    }
                }
                w if DATE_TYPES.contains(&w) && !in_use => {
                    emit(
                        "D004",
                        t.line,
                        format!("date-like type {w} in library code"),
                        in_test,
                    );
                }
                w if PANICKY_METHODS.contains(&w)
                    && punct_at(i + 1, '(')
                    && i > 0
                    && (punct_at(i - 1, '.') || punct_at(i - 1, ':')) =>
                {
                    emit(
                        "P001",
                        t.line,
                        format!(".{w}() panics on the error path"),
                        in_test,
                    );
                }
                w if PANICKY_MACROS.contains(&w)
                    && punct_at(i + 1, '!')
                    // `core::panic::...` the module path, not the macro.
                    && (i == 0 || !punct_at(i - 1, ':')) =>
                {
                    emit("P001", t.line, format!("{w}! in library code"), in_test);
                }
                "as" if !in_use && ident_at(i + 1).is_some_and(|ty| INT_TYPES.contains(&ty)) => {
                    let ty = ident_at(i + 1).unwrap_or_default();
                    emit(
                        "P002",
                        t.line,
                        format!("`as {ty}` silently truncates/wraps"),
                        in_test,
                    );
                }
                "unsafe" => {
                    emit(
                        "U001",
                        t.line,
                        "`unsafe` outside the audited inventory".to_string(),
                        in_test,
                    );
                }
                _ => {}
            },
            _ => {}
        }
        i += 1;
    }

    // Pass 3: apply allow annotations (a finding on an allow's target
    // line, for one of its rules, is suppressed).
    let findings: Vec<Finding> = findings
        .into_iter()
        .filter(|f| {
            !allows
                .iter()
                .any(|a| a.target_line == f.line && a.rules.iter().any(|r| r == &f.rule))
        })
        .collect();

    let mut all_findings = bad_allows;
    all_findings.extend(findings);
    FileLint {
        findings: all_findings,
        allows,
    }
}

/// Parse an allow directive (`allow(R1,R2) reason` behind the tool-name
/// prefix) out of one comment, if present.
///
/// Only a comment that *starts* with the directive counts — prose that
/// mentions the annotation syntax mid-sentence (docs, hints) is ignored.
fn parse_allow_comment(
    rel: &str,
    line: usize,
    text: &str,
    allows: &mut Vec<AllowSite>,
    bad: &mut Vec<Finding>,
) {
    // Strip doc-comment decoration (`/`, `!`, `*`) before matching.
    let lead = text.trim_start_matches(['/', '!', '*']).trim_start();
    let Some(rest_all) = lead.strip_prefix("lpm-lint:") else {
        return;
    };
    let a001 = |message: String| Finding {
        rule: "A001".to_string(),
        file: rel.to_string(),
        line,
        message,
        hint: rule_by_id("A001")
            .map(|r| r.hint)
            .unwrap_or_default()
            .to_string(),
    };
    let rest = rest_all.trim_start();
    let Some(rest) = rest.strip_prefix("allow") else {
        bad.push(a001(format!(
            "unrecognized lpm-lint directive {:?}",
            rest.split_whitespace().next().unwrap_or("")
        )));
        return;
    };
    let rest = rest.trim_start();
    let Some(rest) = rest.strip_prefix('(') else {
        bad.push(a001("allow needs a parenthesized rule list".to_string()));
        return;
    };
    let Some(close) = rest.find(')') else {
        bad.push(a001("unterminated allow(...) rule list".to_string()));
        return;
    };
    let mut rules: Vec<String> = Vec::new();
    for id in rest[..close].split(',') {
        let id = id.trim();
        if id.is_empty() {
            continue;
        }
        if rule_by_id(id).is_none() {
            bad.push(a001(format!("allow names unknown rule {id:?}")));
            return;
        }
        if id == "A001" {
            bad.push(a001("A001 cannot be allowed away".to_string()));
            return;
        }
        rules.push(id.to_string());
    }
    if rules.is_empty() {
        bad.push(a001("allow() lists no rules".to_string()));
        return;
    }
    let reason = rest[close + 1..]
        .trim()
        .trim_start_matches([':', '-', '—'])
        .trim()
        .to_string();
    if reason.is_empty() {
        bad.push(a001(format!(
            "allow({}) has no reason — the justification is mandatory",
            rules.join(",")
        )));
        return;
    }
    allows.push(AllowSite {
        rules,
        reason,
        file: rel.to_string(),
        line,
        target_line: line, // resolved by the caller against code lines
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(src: &str) -> FileLint {
        lint_source("crates/x/src/lib.rs", src, &LintConfig::default(), false)
    }

    fn rules_hit(src: &str) -> Vec<(String, usize)> {
        lint(src)
            .findings
            .iter()
            .map(|f| (f.rule.clone(), f.line))
            .collect()
    }

    #[test]
    fn d001_fires_on_hash_collections_even_in_tests() {
        let src = "use std::collections::HashMap;\n#[cfg(test)]\nmod t {\n    fn f() { let s = std::collections::HashSet::<u64>::new(); }\n}\n";
        assert_eq!(
            rules_hit(src),
            vec![("D001".to_string(), 1), ("D001".to_string(), 4)]
        );
    }

    #[test]
    fn p001_skips_cfg_test_regions_and_fn_expect_definitions() {
        let src = "\
fn expect(x: u32) -> u32 { x }
pub fn lib_path(v: Option<u32>) -> u32 { v.unwrap() }
#[cfg(test)]
mod tests {
    #[test]
    fn t() { Some(1).unwrap(); panic!(\"boom\"); }
}
";
        assert_eq!(rules_hit(src), vec![("P001".to_string(), 2)]);
    }

    #[test]
    fn p001_catches_macros_but_not_module_paths() {
        let src = "fn f() { std::panic::catch_unwind(|| 1).ok(); }\nfn g() { panic!(\"x\"); }\nfn h() { unreachable!() }\n";
        assert_eq!(
            rules_hit(src),
            vec![("P001".to_string(), 2), ("P001".to_string(), 3)]
        );
    }

    #[test]
    fn d002_matches_instant_now_not_duration() {
        let src =
            "use std::time::{Duration, Instant};\nfn f() { let t = Instant::now(); let _ = t; }\n";
        assert_eq!(rules_hit(src), vec![("D002".to_string(), 2)]);
    }

    #[test]
    fn d002_respects_the_sanctioned_wall_now_fn() {
        let src = "\
use std::time::Instant;
fn wall_now() -> Instant { Instant::now() }
fn rogue() -> Instant { Instant::now() }
";
        assert_eq!(rules_hit(src), vec![("D002".to_string(), 3)]);
    }

    #[test]
    fn d003_respects_allowed_helper_fns() {
        let src = "\
fn salted_rng(seed: u64) -> SmallRng { SmallRng::seed_from_u64(seed) }
fn rogue(seed: u64) -> SmallRng { SmallRng::seed_from_u64(seed) }
";
        assert_eq!(rules_hit(src), vec![("D003".to_string(), 2)]);
    }

    #[test]
    fn p002_ignores_use_renames_and_float_casts() {
        let src = "\
use std::io::Error as IoError;
fn f(x: usize) -> u64 { x as u64 }
fn g(x: u64) -> f64 { x as f64 }
";
        assert_eq!(rules_hit(src), vec![("P002".to_string(), 2)]);
    }

    #[test]
    fn d005_fires_on_unbounded_channels_only() {
        let src = "\
use std::sync::mpsc;
fn f() { let (tx, rx) = mpsc::channel::<u64>(); }
fn g() { let (tx, rx) = mpsc::sync_channel::<u64>(8); }
fn channel(x: u32) -> u32 { x }
";
        // `channel()` fires; `sync_channel`, the `use`, and the local fn
        // definition do not.
        assert_eq!(rules_hit(src), vec![("D005".to_string(), 2)]);
    }

    #[test]
    fn d002_d003_d005_fire_through_use_renames() {
        let src = "\
use std::time::Instant as Clock;
use shim_rand::SmallRng as R;
use std::sync::mpsc::channel as ch;
fn a() -> Clock { Clock::now() }
fn b(s: u64) -> R { R::seed_from_u64(s) }
fn c() { let (_tx, _rx) = ch::<u64>(); }
";
        assert_eq!(
            rules_hit(src),
            vec![
                ("D002".to_string(), 4),
                ("D003".to_string(), 5),
                ("D005".to_string(), 6),
            ]
        );
    }

    #[test]
    fn renamed_constructor_ident_resolves_too() {
        let src = "use shim_rand::SmallRng::seed_from_u64 as mk;\nfn f() -> SmallRng { mk(7) }\n";
        assert_eq!(rules_hit(src), vec![("D003".to_string(), 2)]);
    }

    #[test]
    fn rename_to_a_trigger_word_stays_quiet() {
        // `channel` here *is* the bounded constructor under a hostile
        // name — resolution maps it back to sync_channel, no finding.
        let src = "use std::sync::mpsc::sync_channel as channel;\nfn f() { let (_tx, _rx) = channel::<u64>(4); }\n";
        assert!(rules_hit(src).is_empty(), "{:?}", rules_hit(src));
    }

    #[test]
    fn u001_fires_on_unsafe_without_allow() {
        let src = "\
fn f(p: *const u8) -> u8 { unsafe { *p } }
fn g(p: *const u8) -> u8 {
    // lpm-lint: allow(U001) audited: p is non-null by construction
    unsafe { *p }
}
";
        assert_eq!(rules_hit(src), vec![("U001".to_string(), 1)]);
    }

    #[test]
    fn d005_path_gating_follows_lint_toml() {
        let cfg = LintConfig::parse("[rules.D005]\npaths = [\"crates/lpm-serve\"]").unwrap();
        let src = "fn f() { let p = mpsc::channel::<u64>(); }\n";
        let hit = lint_source("crates/lpm-serve/src/server.rs", src, &cfg, false);
        assert_eq!(hit.findings.len(), 1, "{:?}", hit.findings);
        let miss = lint_source("crates/lpm-cli/src/main.rs", src, &cfg, false);
        assert!(miss.findings.is_empty(), "{:?}", miss.findings);
    }

    #[test]
    fn d006_fires_on_raw_mutators_not_reads_uses_or_tests() {
        let src = "\
use std::fs::rename;
fn persist(p: &Path, s: &str) { std::fs::write(p, s).ok(); }
fn commit(a: &Path, b: &Path) { std::fs::rename(a, b).ok(); }
fn open_raw(p: &Path) { let _ = std::fs::File::create(p); }
fn append_raw() { let _ = std::fs::OpenOptions::new(); }
fn read_ok(p: &Path) -> String { std::fs::read_to_string(p).unwrap_or_default() }
#[cfg(test)]
mod tests {
    fn scratch(p: &Path) { std::fs::write(p, \"x\").ok(); }
}
";
        // The `use` and the read stay quiet; the Lib scope skips the
        // test module. `fs::File::create` counts once (as File::create).
        assert_eq!(
            rules_hit(src),
            vec![
                ("D006".to_string(), 2),
                ("D006".to_string(), 3),
                ("D006".to_string(), 4),
                ("D006".to_string(), 5),
            ]
        );
    }

    #[test]
    fn d006_path_gating_follows_lint_toml() {
        let cfg = LintConfig::parse(
            "[rules.D006]\npaths = [\"crates/lpm-harness/src\", \"crates/lpm-serve/src\"]",
        )
        .unwrap();
        let src = "fn f(p: &Path) { std::fs::write(p, \"x\").ok(); }\n";
        let hit = lint_source("crates/lpm-serve/src/state.rs", src, &cfg, false);
        assert_eq!(hit.findings.len(), 1, "{:?}", hit.findings);
        // lpm-vfs is where the raw calls are *supposed* to live.
        let miss = lint_source("crates/lpm-vfs/src/lib.rs", src, &cfg, false);
        assert!(miss.findings.is_empty(), "{:?}", miss.findings);
    }

    #[test]
    fn d004_catches_env_reads_and_macros() {
        let src = "fn f() { let _ = std::env::var(\"HOME\"); }\nfn g() -> &'static str { env!(\"PATH\") }\nfn args() { let _ = std::env::args(); }\n";
        assert_eq!(
            rules_hit(src),
            vec![("D004".to_string(), 1), ("D004".to_string(), 2)]
        );
    }

    #[test]
    fn allows_suppress_with_reason_and_fail_without() {
        let with_reason = "fn f(v: Option<u32>) -> u32 {\n    // lpm-lint: allow(P001) documented invariant: v is Some by construction\n    v.unwrap()\n}\n";
        let out = lint(with_reason);
        assert!(out.findings.is_empty(), "{:?}", out.findings);
        assert_eq!(out.allows.len(), 1);
        assert_eq!(out.allows[0].target_line, 3);

        let without =
            "fn f(v: Option<u32>) -> u32 {\n    // lpm-lint: allow(P001)\n    v.unwrap()\n}\n";
        let out = lint(without);
        let rules: Vec<&str> = out.findings.iter().map(|f| f.rule.as_str()).collect();
        assert_eq!(rules, vec!["A001", "P001"]);
    }

    #[test]
    fn trailing_allow_covers_its_own_line() {
        let src =
            "fn f(v: Option<u32>) -> u32 { v.unwrap() } // lpm-lint: allow(P001) trailing ok\n";
        let out = lint(src);
        assert!(out.findings.is_empty(), "{:?}", out.findings);
    }

    #[test]
    fn unknown_rule_in_allow_is_a001() {
        let src = "// lpm-lint: allow(Z123) whatever\nfn f() {}\n";
        let rules: Vec<String> = lint(src).findings.iter().map(|f| f.rule.clone()).collect();
        assert_eq!(rules, vec!["A001".to_string()]);
    }

    #[test]
    fn tests_dir_files_skip_lib_scoped_rules() {
        let src =
            "fn helper(v: Option<u32>) -> u32 { v.unwrap() }\nuse std::collections::HashMap;\n";
        let out = lint_source("tests/x.rs", src, &LintConfig::default(), true);
        // P001 is lib-scoped (skipped), D001 is all-scoped (fires).
        let rules: Vec<&str> = out.findings.iter().map(|f| f.rule.as_str()).collect();
        assert_eq!(rules, vec!["D001"]);
    }
}
