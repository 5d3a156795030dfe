//! The committed expected-verdict table and the decided-by attribution,
//! both computed from the program's public report only.

use autosva_formal::checker::{Proof, PropertyResult, PropertyStatus, VerificationReport};
use autosva_formal::sat::SolverStats;
use std::collections::BTreeMap;

/// `(design id, variant label, property name)` → expected verdict class.
pub type Expected = BTreeMap<(String, String, String), String>;

/// Parses `expected_verdicts.tsv` (comment lines start with `#`).
pub fn expected_table() -> Expected {
    let mut table = Expected::new();
    for line in include_str!("../expected_verdicts.tsv").lines() {
        if line.starts_with('#') || line.trim().is_empty() {
            continue;
        }
        let cols: Vec<&str> = line.split('\t').collect();
        assert!(cols.len() >= 4, "malformed expected-verdict row: {line}");
        let key = (
            cols[0].to_string(),
            cols[1].to_string(),
            cols[2].to_string(),
        );
        assert!(
            table.insert(key, cols[3].to_string()).is_none(),
            "duplicate expected-verdict row: {line}"
        );
    }
    table
}

/// The verdict class of a decided property; `None` for undecided
/// (`Unknown`, `Error`) or unchecked rows.
pub fn class(status: &PropertyStatus) -> Option<&'static str> {
    match status {
        PropertyStatus::Proven(_) => Some("proven"),
        PropertyStatus::Violated(_) => Some("violated"),
        PropertyStatus::Covered(_) => Some("covered"),
        PropertyStatus::Unreachable => Some("unreachable"),
        PropertyStatus::Unknown | PropertyStatus::Error { .. } | PropertyStatus::NotChecked(_) => {
            None
        }
    }
}

/// How one design's checked properties compare with the table.
#[derive(Debug, Default, Clone, Copy)]
pub struct Check {
    /// Checked properties (one operation each).
    pub checked: u64,
    /// Checked properties left `Unknown` or `Error`.
    pub undecided: u64,
    /// Decided properties whose class differs from the table, plus table
    /// rows of this design the report does not contain.
    pub wrong: u64,
}

/// Compares every checked property of `report` with the table rows of
/// `(design, variant)`.
pub fn check(report: &VerificationReport, design: &str, variant: &str, table: &Expected) -> Check {
    let mut out = Check::default();
    let mut seen = 0u64;
    for r in report.checked() {
        out.checked += 1;
        let key = (design.to_string(), variant.to_string(), r.name.clone());
        let expected = table.get(&key);
        seen += u64::from(expected.is_some());
        match class(&r.status) {
            None => out.undecided += 1,
            Some(got) if expected.map(String::as_str) != Some(got) => out.wrong += 1,
            Some(_) => {}
        }
    }
    let rows = table
        .keys()
        .filter(|(d, v, _)| d == design && v == variant)
        .count() as u64;
    out.wrong += rows.saturating_sub(seen);
    out
}

/// The stage that decided one property, read from the public report:
/// the proof kind, the fuzz provenance tag, and — for cache hits — the
/// absence of any engine work (a hit carries neither solver counters nor
/// fuzz statistics).
pub fn decided_by(r: &PropertyResult) -> Option<&'static str> {
    class(&r.status)?;
    if r.stats == SolverStats::default() && r.fuzz.is_none() {
        return Some("cache");
    }
    Some(match &r.status {
        PropertyStatus::Proven(Proof::Induction { .. }) => "kind",
        PropertyStatus::Proven(Proof::Invariant { .. }) => "pdr",
        PropertyStatus::Proven(Proof::Reachability) => "explicit",
        PropertyStatus::Violated(_) if r.engine == Some("fuzz") => "fuzz",
        _ => "bmc",
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_table_covers_the_eleven_runs() {
        let table = expected_table();
        let runs: std::collections::BTreeSet<(&str, &str)> = table
            .keys()
            .map(|(d, v, _)| (d.as_str(), v.as_str()))
            .collect();
        assert_eq!(runs.len(), 11);
        assert_eq!(table.len(), 65);
        for class in table.values() {
            assert!(["proven", "violated", "covered", "unreachable"].contains(&class.as_str()));
        }
    }
}
