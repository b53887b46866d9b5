//! The exact-output gate.
//!
//! Every pass of a workload produces a map from output keys to exact
//! values: a figure point's cycles (`figures/fig4a/16-16/64`), the
//! number of paper-claim violations of a figure, the FNV-1a digest of a
//! study's rendered text, the digest of the workload's modelled counts.
//! The gate compares each pass against the reference and against the
//! run's first pass, and counts every key that differs as a failed
//! output. It never panics on a mismatch.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::path::Path;

/// Expected output values, keyed like the produced ones.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Reference {
    /// Key → exact expected value.
    pub values: BTreeMap<String, u64>,
    /// Keys whose value comes from the committed `results/` CSVs; they
    /// are never rewritten by `--bless`.
    pub from_csv: BTreeSet<String>,
}

impl Reference {
    /// Loads the reference of `workload`: the figure CSVs in
    /// `results_dir` for `figures`, plus the lines of `digest_file`
    /// prefixed `<workload>/`.
    ///
    /// # Errors
    ///
    /// A message naming the file that cannot be read or parsed.
    pub fn load(
        workload: &str,
        figures: &[&str],
        results_dir: &Path,
        digest_file: &Path,
    ) -> Result<Reference, String> {
        let mut reference = Reference::default();
        for id in figures {
            let path = results_dir.join(format!("fig{id}.csv"));
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            for line in text.lines().skip(1).filter(|l| !l.is_empty()) {
                let fields: Vec<&str> = line.split(',').collect();
                let [label, size, cycles] = fields[..] else {
                    return Err(format!("{}: malformed row `{line}`", path.display()));
                };
                let cycles = cycles
                    .parse()
                    .map_err(|_| format!("{}: bad cycles in `{line}`", path.display()))?;
                let key = format!("{workload}/fig{id}/{label}/{size}");
                reference.from_csv.insert(key.clone());
                reference.values.insert(key, cycles);
            }
        }
        let prefix = format!("{workload}/");
        for (key, value) in read_digest_file(digest_file)? {
            if key.starts_with(&prefix) {
                reference.values.insert(key, value);
            }
        }
        Ok(reference)
    }
}

/// Parses a digest file: `key = value` lines, values decimal or `0x` hex;
/// blank lines and `#` comments are skipped. A missing file reads empty.
///
/// # Errors
///
/// A message naming the first malformed line.
pub fn read_digest_file(path: &Path) -> Result<BTreeMap<String, u64>, String> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(BTreeMap::new()),
        Err(e) => return Err(format!("cannot read {}: {e}", path.display())),
    };
    let mut out = BTreeMap::new();
    for line in text.lines().map(str::trim) {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let parsed = line.split_once('=').and_then(|(k, v)| {
            let v = v.trim();
            let value = match v.strip_prefix("0x") {
                Some(hex) => u64::from_str_radix(hex, 16).ok(),
                None => v.parse().ok(),
            };
            Some((k.trim().to_string(), value?))
        });
        let (key, value) =
            parsed.ok_or_else(|| format!("{}: malformed line `{line}`", path.display()))?;
        out.insert(key, value);
    }
    Ok(out)
}

/// Rewrites `path` so that the keys prefixed `<workload>/` are exactly
/// `produced` minus the CSV-sourced keys, keeping other workloads' lines.
///
/// # Errors
///
/// A message when the file cannot be read or written.
pub fn bless(
    path: &Path,
    workload: &str,
    produced: &BTreeMap<String, u64>,
    reference: &Reference,
) -> Result<(), String> {
    let prefix = format!("{workload}/");
    let mut all = read_digest_file(path)?;
    all.retain(|k, _| !k.starts_with(&prefix));
    for (key, &value) in produced {
        if !reference.from_csv.contains(key) {
            all.insert(key.clone(), value);
        }
    }
    let mut text = String::from(
        "# Exact outputs the benchmark gates on, besides the figure points in\n\
         # results/fig*.csv. Regenerate one workload with\n\
         # `perfbench --workload <name> --bless`.\n",
    );
    for (key, value) in &all {
        let _ = writeln!(text, "{key} = {value}");
    }
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Running tally of gated outputs over the passes of one run.
#[derive(Debug, Default)]
pub struct Gate {
    reference: Reference,
    first: Option<BTreeMap<String, u64>>,
    /// Outputs checked, summed over passes.
    pub attempted: u64,
    /// Outputs that were missing, wrong, or differed from the first pass.
    pub failed: u64,
    /// One line per failure, for the log.
    pub errors: Vec<String>,
}

impl Gate {
    /// A gate against `reference`. An empty reference checks only that
    /// every pass repeats the first one exactly.
    pub fn new(reference: Reference) -> Gate {
        Gate {
            reference,
            ..Gate::default()
        }
    }

    /// Checks one pass's outputs plus its invariant checks (each `Err`
    /// is a failed output).
    pub fn check(
        &mut self,
        pass: &str,
        produced: &BTreeMap<String, u64>,
        invariants: &[Result<(), String>],
    ) {
        let expected = &self.reference.values;
        let keys: BTreeSet<&String> = expected.keys().chain(produced.keys()).collect();
        for key in keys {
            self.attempted += 1;
            let got = produced.get(key);
            let problem = match (expected.get(key), got) {
                (Some(want), Some(got)) if want != got => {
                    Some(format!("{key}: got {got}, expected {want}"))
                }
                (Some(_), None) => Some(format!("{key}: missing")),
                (None, Some(_)) if !expected.is_empty() => {
                    Some(format!("{key}: not in the reference"))
                }
                _ => match self.first.as_ref().map(|f| f.get(key)) {
                    Some(first) if first != got => Some(format!(
                        "{key}: {got:?} differs from the first pass's {first:?}"
                    )),
                    _ => None,
                },
            };
            if let Some(problem) = problem {
                self.failed += 1;
                self.errors.push(format!("[{pass}] {problem}"));
            }
        }
        for check in invariants {
            self.attempted += 1;
            if let Err(e) = check {
                self.failed += 1;
                self.errors.push(format!("[{pass}] {e}"));
            }
        }
        if self.first.is_none() {
            self.first = Some(produced.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map(pairs: &[(&str, u64)]) -> BTreeMap<String, u64> {
        pairs.iter().map(|&(k, v)| (k.to_string(), v)).collect()
    }

    #[test]
    fn flags_wrong_missing_and_unexpected_values() {
        let reference = Reference {
            values: map(&[("w/a", 1), ("w/b", 2)]),
            from_csv: BTreeSet::new(),
        };
        let mut gate = Gate::new(reference);
        gate.check("p0", &map(&[("w/a", 1), ("w/b", 2)]), &[]);
        assert_eq!((gate.attempted, gate.failed), (2, 0));
        gate.check("p1", &map(&[("w/a", 9), ("w/c", 3)]), &[Err("x".into())]);
        assert_eq!((gate.attempted, gate.failed), (6, 4));
    }

    #[test]
    fn empty_reference_checks_repeatability() {
        let mut gate = Gate::new(Reference::default());
        gate.check("p0", &map(&[("w/a", 1)]), &[Ok(())]);
        gate.check("p1", &map(&[("w/a", 1)]), &[]);
        assert_eq!(gate.failed, 0);
        gate.check("p2", &map(&[("w/a", 2)]), &[]);
        assert_eq!(gate.failed, 1);
    }

    #[test]
    fn digest_file_round_trips_through_bless() {
        let dir = std::env::temp_dir().join(format!("perfbench-gate-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("reference.txt");
        std::fs::write(&path, "# c\nother/x = 0x10\nw/old = 1\n").unwrap();
        let reference = Reference {
            values: BTreeMap::new(),
            from_csv: ["w/csv".to_string()].into(),
        };
        bless(&path, "w", &map(&[("w/new", 5), ("w/csv", 7)]), &reference).unwrap();
        let back = read_digest_file(&path).unwrap();
        assert_eq!(back, map(&[("other/x", 16), ("w/new", 5)]));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
