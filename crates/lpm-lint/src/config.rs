//! `lint.toml` — the configurable rule catalog.
//!
//! The parser accepts the TOML subset the config actually uses: `[a.b]`
//! section headers, `key = value` with string / bool / integer / string
//! array values, and `#` comments. Anything fancier is a config error —
//! better loud than half-parsed.
//!
//! Configuration merges *over* the compiled-in defaults from
//! [`crate::rules::catalog`]: a missing `lint.toml` (or a missing
//! `[rules.X]` table) leaves the defaults in force.

use std::collections::BTreeMap;
use std::path::Path;

/// Where a rule applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// Library code only: `#[cfg(test)]` regions, `#[test]` functions and
    /// files under a `tests/` directory are skipped.
    Lib,
    /// Everything scanned, test code included.
    All,
}

/// Per-rule configuration (defaults come from the catalog).
#[derive(Debug, Clone)]
pub struct RuleConfig {
    pub enabled: bool,
    pub scope: Scope,
    /// Restrict the rule to files whose workspace-relative path starts
    /// with one of these prefixes. Empty = everywhere.
    pub paths: Vec<String>,
    /// Function names inside which the rule does not fire (used by D003
    /// for the sanctioned RNG-construction helpers; by F001/F002 for the
    /// fns whose taint is sanctioned at the source).
    pub allow_fns: Vec<String>,
    /// Result-path sink fn names for the interprocedural taint rules
    /// (F001/F002): taint reaching a fn with one of these names is a
    /// finding. Empty for every other rule.
    pub sinks: Vec<String>,
}

/// The whole analyzer configuration.
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// Workspace-relative path prefixes to skip entirely.
    pub exclude: Vec<String>,
    /// Directory globs to scan (single `*` per path segment supported).
    pub scan: Vec<String>,
    pub rules: BTreeMap<String, RuleConfig>,
}

impl Default for LintConfig {
    fn default() -> Self {
        let mut rules = BTreeMap::new();
        for rule in crate::rules::catalog() {
            rules.insert(
                rule.id.to_string(),
                RuleConfig {
                    enabled: true,
                    scope: rule.default_scope,
                    paths: Vec::new(),
                    allow_fns: rule
                        .default_allow_fns
                        .iter()
                        .map(|s| s.to_string())
                        .collect(),
                    sinks: rule.default_sinks.iter().map(|s| s.to_string()).collect(),
                },
            );
        }
        LintConfig {
            exclude: vec![
                "crates/shim-rand".into(),
                "crates/shim-proptest".into(),
                "crates/lpm-lint/fixtures".into(),
            ],
            scan: vec![
                "crates/*/src".into(),
                "crates/*/tests".into(),
                "tests".into(),
            ],
            rules,
        }
    }
}

/// One parsed TOML value.
#[derive(Debug, Clone, PartialEq)]
enum TomlValue {
    Str(String),
    Bool(bool),
    Int(i64),
    StrArray(Vec<String>),
}

impl TomlValue {
    fn type_name(&self) -> &'static str {
        match self {
            TomlValue::Str(_) => "string",
            TomlValue::Bool(_) => "bool",
            TomlValue::Int(_) => "integer",
            TomlValue::StrArray(_) => "string array",
        }
    }
}

/// One parsed section: the line of its `[header]` plus
/// `key -> (line, value)`. Line numbers ride along so the merge step can
/// point at the exact offending line, not just the section.
type TomlSection = (usize, BTreeMap<String, (usize, TomlValue)>);

/// Parse the supported TOML subset into `section -> (line, keys)`.
fn parse_toml(src: &str) -> Result<BTreeMap<String, TomlSection>, String> {
    let mut out: BTreeMap<String, TomlSection> = BTreeMap::new();
    let mut section = String::new();
    for (idx, raw) in src.lines().enumerate() {
        let lineno = idx + 1;
        let line = strip_comment(raw).trim().to_string();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('[') {
            let Some(name) = rest.strip_suffix(']') else {
                return Err(format!("line {lineno}: unterminated section header"));
            };
            section = name.trim().to_string();
            out.entry(section.clone())
                .or_insert((lineno, BTreeMap::new()));
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(format!("line {lineno}: expected `key = value`"));
        };
        let key = key.trim().to_string();
        let value = parse_value(value.trim()).map_err(|e| format!("line {lineno}: {e}"))?;
        out.entry(section.clone())
            .or_insert((lineno, BTreeMap::new()))
            .1
            .insert(key, (lineno, value));
    }
    Ok(out)
}

/// Drop a trailing `#` comment, respecting double-quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_str => escaped = true,
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_value(s: &str) -> Result<TomlValue, String> {
    if s == "true" {
        return Ok(TomlValue::Bool(true));
    }
    if s == "false" {
        return Ok(TomlValue::Bool(false));
    }
    if let Some(inner) = s.strip_prefix('"') {
        let Some(body) = inner.strip_suffix('"') else {
            return Err(format!("unterminated string {s:?}"));
        };
        return Ok(TomlValue::Str(unescape(body)));
    }
    if let Some(inner) = s.strip_prefix('[') {
        let Some(body) = inner.strip_suffix(']') else {
            return Err(format!("unterminated array {s:?}"));
        };
        let mut items = Vec::new();
        for part in split_array_items(body) {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            match parse_value(part)? {
                TomlValue::Str(v) => items.push(v),
                other => {
                    return Err(format!(
                        "arrays may only hold strings, found {}",
                        other.type_name()
                    ))
                }
            }
        }
        return Ok(TomlValue::StrArray(items));
    }
    if let Ok(n) = s.parse::<i64>() {
        return Ok(TomlValue::Int(n));
    }
    Err(format!("unsupported value {s:?}"))
}

/// Split array items on commas that are outside quotes.
fn split_array_items(body: &str) -> Vec<String> {
    let mut items = Vec::new();
    let mut cur = String::new();
    let mut in_str = false;
    let mut escaped = false;
    for c in body.chars() {
        if escaped {
            cur.push(c);
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_str => {
                cur.push(c);
                escaped = true;
            }
            '"' => {
                cur.push(c);
                in_str = !in_str;
            }
            ',' if !in_str => {
                items.push(std::mem::take(&mut cur));
            }
            _ => cur.push(c),
        }
    }
    items.push(cur);
    items
}

fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('t') => out.push('\t'),
            Some('\\') => out.push('\\'),
            Some('"') => out.push('"'),
            Some(other) => {
                out.push('\\');
                out.push(other);
            }
            None => out.push('\\'),
        }
    }
    out
}

impl LintConfig {
    /// Load `lint.toml` from `path` and merge it over the defaults.
    pub fn load(path: &Path) -> Result<LintConfig, String> {
        let src = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Self::parse(&src).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Parse a config from TOML text and merge it over the defaults.
    pub fn parse(src: &str) -> Result<LintConfig, String> {
        let tables = parse_toml(src)?;
        let mut cfg = LintConfig::default();
        for (section, (section_line, table)) in &tables {
            if section == "lint" {
                for (key, (line, value)) in table {
                    match (key.as_str(), value) {
                        ("exclude", TomlValue::StrArray(v)) => cfg.exclude = v.clone(),
                        ("scan", TomlValue::StrArray(v)) => cfg.scan = v.clone(),
                        (k, v) => {
                            return Err(format!(
                                "line {line}: [lint] has no {}-valued key {k:?}",
                                v.type_name()
                            ))
                        }
                    }
                }
                continue;
            }
            if let Some(id) = section.strip_prefix("rules.") {
                let Some(rule) = cfg.rules.get_mut(id) else {
                    return Err(format!(
                        "line {section_line}: [rules.{id}] names an unknown rule (catalog: {})",
                        crate::rules::catalog()
                            .iter()
                            .map(|r| r.id)
                            .collect::<Vec<_>>()
                            .join(", ")
                    ));
                };
                for (key, (line, value)) in table {
                    match (key.as_str(), value) {
                        ("enabled", TomlValue::Bool(b)) => rule.enabled = *b,
                        ("scope", TomlValue::Str(s)) => {
                            rule.scope = match s.as_str() {
                                "lib" => Scope::Lib,
                                "all" => Scope::All,
                                other => {
                                    return Err(format!(
                                        "line {line}: [rules.{id}] scope must be \"lib\" or \
                                         \"all\", got {other:?}"
                                    ))
                                }
                            }
                        }
                        ("paths", TomlValue::StrArray(v)) => rule.paths = v.clone(),
                        ("allow_fns", TomlValue::StrArray(v)) => rule.allow_fns = v.clone(),
                        ("sinks", TomlValue::StrArray(v)) => rule.sinks = v.clone(),
                        (k, v) => {
                            return Err(format!(
                                "line {line}: [rules.{id}] has no {}-valued key {k:?}",
                                v.type_name()
                            ))
                        }
                    }
                }
                continue;
            }
            return Err(format!("line {section_line}: unknown section [{section}]"));
        }
        Ok(cfg)
    }

    /// Whether `rel` (workspace-relative, `/`-separated) is excluded.
    pub fn is_excluded(&self, rel: &str) -> bool {
        self.exclude.iter().any(|p| path_has_prefix(rel, p))
    }

    /// The configuration for `rule_id`, if the rule exists and is enabled
    /// for the file at `rel`.
    pub fn rule_for(&self, rule_id: &str, rel: &str) -> Option<&RuleConfig> {
        let rc = self.rules.get(rule_id)?;
        if !rc.enabled {
            return None;
        }
        if !rc.paths.is_empty() && !rc.paths.iter().any(|p| path_has_prefix(rel, p)) {
            return None;
        }
        Some(rc)
    }
}

/// Path-component-aware prefix test: `a/b` is a prefix of `a/b/c.rs` but
/// not of `a/bc.rs`.
pub fn path_has_prefix(rel: &str, prefix: &str) -> bool {
    let prefix = prefix.trim_end_matches('/');
    rel == prefix
        || rel
            .strip_prefix(prefix)
            .is_some_and(|rest| rest.starts_with('/'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_cover_the_catalog() {
        let cfg = LintConfig::default();
        for rule in crate::rules::catalog() {
            assert!(cfg.rules.contains_key(rule.id), "{} missing", rule.id);
        }
    }

    #[test]
    fn parse_overrides_rules_and_lint_table() {
        let cfg = LintConfig::parse(
            r#"
            # comment
            [lint]
            exclude = ["crates/shim-rand"] # trailing comment
            [rules.P001]
            enabled = false
            [rules.P002]
            paths = ["crates/lpm-model/src", "crates/lpm-telemetry/src"]
            [rules.D001]
            scope = "all"
            "#,
        )
        .unwrap();
        assert_eq!(cfg.exclude, vec!["crates/shim-rand".to_string()]);
        assert!(!cfg.rules["P001"].enabled);
        assert_eq!(cfg.rules["P002"].paths.len(), 2);
        assert_eq!(cfg.rules["D001"].scope, Scope::All);
    }

    #[test]
    fn unknown_rules_and_sections_are_errors() {
        assert!(LintConfig::parse("[rules.Z999]\nenabled = true").is_err());
        assert!(LintConfig::parse("[mystery]\nx = 1").is_err());
        assert!(LintConfig::parse("[rules.P001]\nscope = \"sometimes\"").is_err());
    }

    #[test]
    fn config_errors_carry_line_numbers() {
        let err = LintConfig::parse("# ok\n\n[rules.Z999]\nenabled = true").unwrap_err();
        assert!(err.starts_with("line 3:"), "{err}");
        assert!(err.contains("unknown rule"), "{err}");

        let err =
            LintConfig::parse("[rules.P001]\nenabled = true\nseverity = \"high\"").unwrap_err();
        assert!(err.starts_with("line 3:"), "{err}");
        assert!(err.contains("no string-valued key \"severity\""), "{err}");

        let err = LintConfig::parse("[lint]\nthreads = 4").unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");

        let err = LintConfig::parse("# leading\n[mystery]\n").unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");

        let err = LintConfig::parse("[rules.P001]\n\nscope = \"sometimes\"").unwrap_err();
        assert!(err.starts_with("line 3:"), "{err}");
    }

    #[test]
    fn sinks_key_parses_for_taint_rules() {
        let cfg = LintConfig::parse("[rules.F001]\nsinks = [\"to_csv\", \"append\"]").unwrap();
        assert_eq!(
            cfg.rules["F001"].sinks,
            vec!["to_csv".to_string(), "append".to_string()]
        );
        // Defaults populate sinks from the catalog.
        let def = LintConfig::default();
        assert!(def.rules["F001"].sinks.contains(&"to_csv".to_string()));
        assert!(def.rules["D001"].sinks.is_empty());
    }

    #[test]
    fn rule_paths_gate_by_prefix() {
        let cfg = LintConfig::parse("[rules.P002]\npaths = [\"crates/lpm-model/src\"]").unwrap();
        assert!(cfg
            .rule_for("P002", "crates/lpm-model/src/amat.rs")
            .is_some());
        assert!(cfg.rule_for("P002", "crates/lpm-sim/src/cmp.rs").is_none());
        // Component-aware: no false prefix match.
        assert!(cfg
            .rule_for("P002", "crates/lpm-model/src-other/x.rs")
            .is_none());
    }

    #[test]
    fn strings_with_hashes_survive_comment_stripping() {
        let cfg = LintConfig::parse("[lint]\nexclude = [\"a#b\", \"c\"] # real comment").unwrap();
        assert_eq!(cfg.exclude, vec!["a#b".to_string(), "c".to_string()]);
    }
}
