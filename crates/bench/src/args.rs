//! Minimal `--flag value` argument parsing for the figure binaries (no
//! external dependency).

use std::collections::BTreeMap;

use dhs_runtime::RunnerEngine;

/// Parsed command-line flags: `--key value` pairs and bare switches.
#[derive(Debug, Clone, Default)]
pub struct Args {
    values: BTreeMap<String, String>,
    switches: Vec<String>,
}

impl Args {
    /// Parse the process arguments.
    pub fn parse() -> Self {
        Self::from_args(std::env::args().skip(1))
    }

    pub fn from_args<I: IntoIterator<Item = String>>(iter: I) -> Self {
        let mut out = Args::default();
        let mut it = iter.into_iter().peekable();
        while let Some(arg) = it.next() {
            if let Some(key) = arg.strip_prefix("--") {
                match it.peek() {
                    Some(v) if !v.starts_with("--") => {
                        let v = it.next().expect("peeked");
                        out.values.insert(key.to_string(), v);
                    }
                    _ => out.switches.push(key.to_string()),
                }
            } else {
                out.switches.push(arg);
            }
        }
        out
    }

    /// `--key value` parsed as `T`, or `default` when the flag is
    /// absent. A value that does not parse is an error naming the flag,
    /// never a silent fall-back to the default.
    pub fn try_get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.values.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key}: cannot parse {v:?}")),
        }
    }

    /// [`Args::try_get`] for the figure binaries: panics with the named
    /// message on an unparsable value.
    pub fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        self.try_get(key, default).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The first argument the caller does not recognise: a `--key
    /// value` pair whose key is not in `values`, or a bare `--switch`
    /// (or stray positional) not in `switches`. A value flag given
    /// without its value parses as a switch and is reported here too.
    pub fn unknown(&self, values: &[&str], switches: &[&str]) -> Option<&str> {
        let known = |given: &String, list: &[&str]| list.contains(&given.as_str());
        let key = self.values.keys().find(|k| !known(k, values));
        let bare = || self.switches.iter().find(|s| !known(s, switches));
        key.or_else(bare).map(String::as_str)
    }

    /// Whether a bare `--switch` was given.
    pub fn has(&self, key: &str) -> bool {
        self.switches.iter().any(|s| s == key)
    }

    /// Raw string value.
    pub fn raw(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    /// `--engine tasks[:<workers>]`: the worker-slot count of the run
    /// (the default when the flag is absent or the count is). Any other
    /// value is a bad invocation: one line on stderr, exit 2.
    pub fn engine(&self) -> RunnerEngine {
        let workers = match self.raw("engine") {
            None | Some("tasks") => Some(0),
            Some(s) => s.strip_prefix("tasks:").and_then(|w| w.parse().ok()),
        };
        let Some(workers) = workers else {
            let s = self.raw("engine").unwrap_or_default();
            eprintln!("--engine: unknown engine {s:?} (expected tasks or tasks:<workers>)");
            std::process::exit(2)
        };
        RunnerEngine { workers }
    }

    /// `--quick` mode shrinks every experiment (used by CI and the
    /// criterion wrappers).
    pub fn quick(&self) -> bool {
        self.has("quick")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Args {
        Args::from_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_values_and_switches() {
        let a = args("--n 1024 --quick --reps 5");
        assert_eq!(a.get("n", 0usize), 1024);
        assert_eq!(a.get("reps", 0usize), 5);
        assert!(a.quick());
        assert!(!a.has("breakdown"));
    }

    #[test]
    fn default_only_when_missing() {
        let a = args("--n abc");
        assert_eq!(a.get("missing", 3u32), 3);
        assert_eq!(a.try_get("missing", 3u32), Ok(3));
    }

    #[test]
    fn unparsable_value_is_an_error_naming_the_flag() {
        let a = args("--probes abc");
        let err = a.try_get("probes", 1usize).unwrap_err();
        assert!(err.contains("--probes") && err.contains("abc"), "{err}");
    }

    #[test]
    #[should_panic(expected = "--probes: cannot parse")]
    fn get_panics_instead_of_defaulting() {
        args("--probes abc").get("probes", 1usize);
    }

    #[test]
    fn unknown_flags_are_reported() {
        let values = ["probes", "exchange-algo"];
        let switches = ["verify"];
        let ok = args("--probes 3 --verify --exchange-algo staged:4");
        assert_eq!(ok.unknown(&values, &switches), None);
        // A misspelt value flag, a misspelt switch, a value flag that
        // lost its value, and a stray positional.
        let typo = args("--exchange-alg staged:4");
        assert_eq!(typo.unknown(&values, &switches), Some("exchange-alg"));
        assert_eq!(args("--verfy").unknown(&values, &switches), Some("verfy"));
        assert_eq!(args("--probes").unknown(&values, &switches), Some("probes"));
        assert_eq!(args("oops").unknown(&values, &switches), Some("oops"));
    }

    #[test]
    fn engine_is_a_worker_count() {
        assert_eq!(args("").engine(), RunnerEngine::default());
        assert_eq!(args("--engine tasks").engine(), RunnerEngine::tasks());
        assert_eq!(args("--engine tasks:3").engine().workers, 3);
    }

    #[test]
    fn double_switch_then_value() {
        let a = args("--breakdown --n 4");
        assert!(a.has("breakdown"));
        assert_eq!(a.get("n", 0usize), 4);
    }
}
