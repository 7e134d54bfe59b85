//! Hand-rolled argument parsing (no external dependencies): sizes accept
//! `4K`/`32K`/`2M`-style suffixes, flags are `--key value`.

use std::collections::BTreeMap;

/// Parsed command line: a subcommand plus `--key value` options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// The subcommand (first non-flag argument).
    pub command: String,
    /// `--key value` pairs, keys without the leading dashes.
    pub options: BTreeMap<String, String>,
    /// Positional arguments after the subcommand.
    pub positional: Vec<String>,
}

/// Flags that are boolean switches: present or absent, no value.
const SWITCHES: &[&str] = &["quiet", "keep-going", "resume", "wait", "force"];

/// Parse a raw argument list (excluding the program name).
pub fn parse(raw: &[String]) -> Result<Args, String> {
    let mut it = raw.iter().peekable();
    let command = it
        .next()
        .cloned()
        .ok_or_else(|| "missing subcommand; try `lpm-cli help`".to_string())?;
    let mut options = BTreeMap::new();
    let mut positional = Vec::new();
    while let Some(a) = it.next() {
        if let Some(key) = a.strip_prefix("--") {
            let value = if SWITCHES.contains(&key) {
                "true".to_string()
            } else {
                it.next()
                    .ok_or_else(|| format!("flag --{key} expects a value"))?
                    .clone()
            };
            if options.insert(key.to_string(), value).is_some() {
                return Err(format!("flag --{key} given twice"));
            }
        } else {
            positional.push(a.clone());
        }
    }
    Ok(Args {
        command,
        options,
        positional,
    })
}

impl Args {
    /// Look up an option, falling back to `default`.
    pub fn get_or<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.options.get(key).map(String::as_str).unwrap_or(default)
    }

    /// Reject the first flag (in key order) not listed in `accepted`,
    /// naming it and the subcommand.
    pub fn reject_unknown_flags(&self, accepted: &[&[&str]]) -> Result<(), String> {
        let known = |k: &str| accepted.iter().any(|list| list.contains(&k));
        match self.options.keys().find(|k| !known(k)) {
            Some(k) => Err(format!("unknown flag --{k} for `{}`", self.command)),
            None => Ok(()),
        }
    }

    /// Whether a boolean switch (e.g. `--quiet`) was given.
    pub fn has(&self, key: &str) -> bool {
        self.options.contains_key(key)
    }

    /// Parse an integer option.
    pub fn int_or(&self, key: &str, default: u64) -> Result<u64, String> {
        match self.options.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key} expects an integer, got {v:?}")),
        }
    }

    /// Parse a strictly positive integer option: `0`, negative and
    /// non-numeric values are rejected with a typed error naming the
    /// flag (used by `--jobs`, where 0 workers is meaningless).
    pub fn positive_int_or(&self, key: &str, default: u64) -> Result<u64, String> {
        match self.options.get(key) {
            None => Ok(default),
            Some(v) => match v.parse::<u64>() {
                Ok(0) => Err(format!("--{key} expects a positive integer, got 0")),
                Ok(n) => Ok(n),
                Err(_) => Err(format!("--{key} expects a positive integer, got {v:?}")),
            },
        }
    }

    /// Parse a comma-separated list of integers (`--seeds 7,11,13`).
    pub fn int_list_or(&self, key: &str, default: &[u64]) -> Result<Vec<u64>, String> {
        match self.options.get(key) {
            None => Ok(default.to_vec()),
            Some(v) => v
                .split(',')
                .map(|s| {
                    s.trim()
                        .parse()
                        .map_err(|_| format!("--{key} expects comma-separated integers, got {s:?}"))
                })
                .collect(),
        }
    }

    /// Parse a float option.
    pub fn float_or(&self, key: &str, default: f64) -> Result<f64, String> {
        match self.options.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key} expects a number, got {v:?}")),
        }
    }

    /// Parse a byte-size option (`4096`, `4K`, `32K`, `2M`, `1G`).
    pub fn size_or(&self, key: &str, default: u64) -> Result<u64, String> {
        match self.options.get(key) {
            None => Ok(default),
            Some(v) => parse_size(v)
                .ok_or_else(|| format!("--{key} expects a size like 32K or 2M, got {v:?}")),
        }
    }
}

/// Parse `4096` / `4K` / `4k` / `2M` / `1G` into bytes.
pub fn parse_size(s: &str) -> Option<u64> {
    let s = s.trim();
    if s.is_empty() {
        return None;
    }
    let (digits, mult) = match s.chars().last()? {
        'k' | 'K' => (&s[..s.len() - 1], 1u64 << 10),
        'm' | 'M' => (&s[..s.len() - 1], 1u64 << 20),
        'g' | 'G' => (&s[..s.len() - 1], 1u64 << 30),
        _ => (s, 1),
    };
    digits.parse::<u64>().ok().map(|n| n * mult)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_command_flags_and_positionals() {
        let a = parse(&sv(&[
            "run",
            "--workload",
            "gcc-like",
            "extra",
            "--seed",
            "9",
        ]))
        .unwrap();
        assert_eq!(a.command, "run");
        assert_eq!(a.get_or("workload", ""), "gcc-like");
        assert_eq!(a.int_or("seed", 1).unwrap(), 9);
        assert_eq!(a.positional, vec!["extra"]);
    }

    #[test]
    fn missing_subcommand_is_an_error() {
        assert!(parse(&sv(&[])).is_err());
    }

    #[test]
    fn flag_without_value_is_an_error() {
        assert!(parse(&sv(&["run", "--workload"])).is_err());
    }

    #[test]
    fn switches_take_no_value() {
        let a = parse(&sv(&["online", "--quiet", "--seed", "9"])).unwrap();
        assert!(a.has("quiet"));
        assert_eq!(a.int_or("seed", 1).unwrap(), 9);
        // Trailing switch is fine too.
        let a = parse(&sv(&["online", "--quiet"])).unwrap();
        assert!(a.has("quiet"));
        assert!(!a.has("seed"));
        // The crash-safety switches parse the same way.
        let a = parse(&sv(&[
            "sweep",
            "--keep-going",
            "--resume",
            "--checkpoint",
            "j.jsonl",
        ]))
        .unwrap();
        assert!(a.has("keep-going") && a.has("resume"));
        assert_eq!(a.get_or("checkpoint", ""), "j.jsonl");
    }

    #[test]
    fn duplicate_flag_is_an_error() {
        assert!(parse(&sv(&["run", "--seed", "1", "--seed", "2"])).is_err());
    }

    #[test]
    fn sizes() {
        assert_eq!(parse_size("4096"), Some(4096));
        assert_eq!(parse_size("4K"), Some(4 << 10));
        assert_eq!(parse_size("4k"), Some(4 << 10));
        assert_eq!(parse_size("2M"), Some(2 << 20));
        assert_eq!(parse_size("1G"), Some(1 << 30));
        assert_eq!(parse_size("x"), None);
        assert_eq!(parse_size(""), None);
    }

    #[test]
    fn typed_option_errors_are_descriptive() {
        let a = parse(&sv(&["run", "--seed", "abc"])).unwrap();
        let e = a.int_or("seed", 1).unwrap_err();
        assert!(e.contains("--seed"));
        let a = parse(&sv(&["run", "--l1-size", "huge"])).unwrap();
        assert!(a.size_or("l1-size", 1).is_err());
    }

    #[test]
    fn positive_int_rejects_zero_and_garbage() {
        let a = parse(&sv(&["sweep", "--jobs", "0"])).unwrap();
        let e = a.positive_int_or("jobs", 1).unwrap_err();
        assert!(e.contains("--jobs") && e.contains("positive"), "{e}");
        let a = parse(&sv(&["sweep", "--jobs", "four"])).unwrap();
        let e = a.positive_int_or("jobs", 1).unwrap_err();
        assert!(e.contains("\"four\""), "{e}");
        let a = parse(&sv(&["sweep", "--jobs", "-2"])).unwrap();
        assert!(a.positive_int_or("jobs", 1).is_err());
        let a = parse(&sv(&["sweep", "--jobs", "8"])).unwrap();
        assert_eq!(a.positive_int_or("jobs", 1).unwrap(), 8);
        let a = parse(&sv(&["sweep"])).unwrap();
        assert_eq!(a.positive_int_or("jobs", 3).unwrap(), 3);
    }

    #[test]
    fn int_lists_parse_and_reject_garbage() {
        let a = parse(&sv(&["sweep", "--seeds", "7, 11,13"])).unwrap();
        assert_eq!(a.int_list_or("seeds", &[1]).unwrap(), vec![7, 11, 13]);
        let a = parse(&sv(&["sweep"])).unwrap();
        assert_eq!(a.int_list_or("seeds", &[5]).unwrap(), vec![5]);
        let a = parse(&sv(&["sweep", "--seeds", "7,x"])).unwrap();
        assert!(a.int_list_or("seeds", &[]).unwrap_err().contains("--seeds"));
    }

    #[test]
    fn defaults_apply_when_absent() {
        let a = parse(&sv(&["run"])).unwrap();
        assert_eq!(a.int_or("instructions", 42).unwrap(), 42);
        assert_eq!(a.size_or("l1-size", 32 << 10).unwrap(), 32 << 10);
        assert_eq!(a.float_or("grain", 0.1).unwrap(), 0.1);
    }
}
