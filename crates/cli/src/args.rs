//! Minimal dependency-free argument parsing for the `ipu-sim` binary.
//!
//! Grammar: `ipu-sim <command> [positional...] [--flag value | --switch]...`.
//! Flags take a value, switches stand alone; both may appear anywhere after
//! the command. Unknown names are errors so typos fail loudly instead of
//! silently running a multi-minute default sweep.

use std::collections::{HashMap, HashSet};

/// Parsed command line: a command word, positionals, `--key value` flags and
/// value-less `--switch`es.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedArgs {
    pub command: String,
    pub positionals: Vec<String>,
    flags: HashMap<String, String>,
    switches: HashSet<String>,
}

/// A parse failure with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError(pub String);

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ArgError {}

impl ParsedArgs {
    /// Parses `args` (excluding the program name) against the allowed flag
    /// names for the command. Switch-free convenience over
    /// [`ParsedArgs::parse_with_switches`].
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn parse(
        args: impl IntoIterator<Item = String>,
        allowed_flags: &[&str],
    ) -> Result<ParsedArgs, ArgError> {
        Self::parse_with_switches(args, allowed_flags, &[])
    }

    /// [`ParsedArgs::parse`] with additional value-less switches (e.g.
    /// `--cache`): a name in `allowed_switches` consumes no value.
    pub fn parse_with_switches(
        args: impl IntoIterator<Item = String>,
        allowed_flags: &[&str],
        allowed_switches: &[&str],
    ) -> Result<ParsedArgs, ArgError> {
        let mut it = args.into_iter();
        let command = it
            .next()
            .ok_or_else(|| ArgError("missing command".into()))?;
        let mut positionals = Vec::new();
        let mut flags = HashMap::new();
        let mut switches = HashSet::new();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                if allowed_switches.contains(&name) {
                    if !switches.insert(name.to_string()) {
                        return Err(ArgError(format!("switch --{name} given twice")));
                    }
                    continue;
                }
                if !allowed_flags.contains(&name) {
                    return Err(ArgError(format!(
                        "unknown flag --{name} (allowed: {})",
                        allowed_flags
                            .iter()
                            .chain(allowed_switches)
                            .map(|f| format!("--{f}"))
                            .collect::<Vec<_>>()
                            .join(", ")
                    )));
                }
                let value = it
                    .next()
                    .ok_or_else(|| ArgError(format!("flag --{name} needs a value")))?;
                if flags.insert(name.to_string(), value).is_some() {
                    return Err(ArgError(format!("flag --{name} given twice")));
                }
            } else {
                positionals.push(a);
            }
        }
        Ok(ParsedArgs {
            command,
            positionals,
            flags,
            switches,
        })
    }

    /// String flag value.
    pub fn flag(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(|s| s.as_str())
    }

    /// Whether a value-less switch was given.
    pub fn switch(&self, name: &str) -> bool {
        self.switches.contains(name)
    }

    /// Names of every flag and switch given, sorted.
    pub fn given(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self
            .flags
            .keys()
            .chain(&self.switches)
            .map(String::as_str)
            .collect();
        names.sort_unstable();
        names
    }

    /// Typed flag value with a default; parse failures are errors.
    pub fn flag_parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, ArgError> {
        match self.flags.get(name) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| ArgError(format!("cannot parse --{name} value `{raw}`"))),
        }
    }

    /// Comma-separated list flag (`--traces ts0,usr0`).
    pub fn flag_list(&self, name: &str) -> Option<Vec<&str>> {
        self.flags
            .get(name)
            .map(|v| v.split(',').filter(|s| !s.is_empty()).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> impl Iterator<Item = String> + '_ {
        s.split_whitespace().map(str::to_string)
    }

    #[test]
    fn parses_command_positionals_and_flags() {
        let p = ParsedArgs::parse(
            argv("replay trace.csv --scheme ipu --scale 0.5"),
            &["scheme", "scale"],
        )
        .unwrap();
        assert_eq!(p.command, "replay");
        assert_eq!(p.positionals, vec!["trace.csv"]);
        assert_eq!(p.flag("scheme"), Some("ipu"));
        assert_eq!(p.flag_parsed("scale", 1.0).unwrap(), 0.5);
    }

    #[test]
    fn defaults_apply_when_flag_absent() {
        let p = ParsedArgs::parse(argv("tables"), &["scale"]).unwrap();
        assert_eq!(p.flag_parsed("scale", 0.1).unwrap(), 0.1);
        assert!(p.flag("scale").is_none());
    }

    #[test]
    fn rejects_unknown_and_duplicate_flags() {
        assert!(ParsedArgs::parse(argv("x --bogus 1"), &["scale"]).is_err());
        assert!(ParsedArgs::parse(argv("x --scale 1 --scale 2"), &["scale"]).is_err());
        assert!(ParsedArgs::parse(argv("x --scale"), &["scale"]).is_err());
        assert!(ParsedArgs::parse(std::iter::empty(), &[]).is_err());
    }

    #[test]
    fn list_flags_split_on_commas() {
        let p = ParsedArgs::parse(argv("figure 5 --traces ts0,usr0"), &["traces"]).unwrap();
        assert_eq!(p.flag_list("traces"), Some(vec!["ts0", "usr0"]));
        assert_eq!(p.positionals, vec!["5"]);
    }

    #[test]
    fn bad_typed_values_error() {
        let p = ParsedArgs::parse(argv("x --scale pony"), &["scale"]).unwrap();
        assert!(p.flag_parsed("scale", 1.0f64).is_err());
    }

    #[test]
    fn switches_take_no_value() {
        let p = ParsedArgs::parse_with_switches(
            argv("figure 5 --cache --scale 0.1"),
            &["scale"],
            &["cache", "no-cache"],
        )
        .unwrap();
        assert!(p.switch("cache"));
        assert!(!p.switch("no-cache"));
        assert_eq!(p.flag_parsed("scale", 1.0).unwrap(), 0.1);
        assert_eq!(p.positionals, vec!["5"]);
    }

    #[test]
    fn duplicate_and_unknown_switches_error() {
        assert!(
            ParsedArgs::parse_with_switches(argv("x --cache --cache"), &[], &["cache"]).is_err()
        );
        assert!(ParsedArgs::parse_with_switches(argv("x --cache"), &["scale"], &[]).is_err());
    }
}
