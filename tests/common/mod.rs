//! Checks shared by the integration suites that run the whole corpus.

use autosva_formal::checker::{Proof, PropertyStatus, VerificationReport};

/// Every decided row names the cascade stage that decided it, and the tag
/// matches the result: a cache hit says `cache`, k-induction proofs come
/// from BMC, invariants from PDR, reachability proofs from the explicit
/// engine, and a violation the fuzzer replay-confirmed from the fuzzer.
/// Other violations, witnesses and unreachable covers carry a SAT or
/// explicit tag; undecided and unchecked rows carry none.
pub fn assert_provenance(report: &VerificationReport, label: &str) {
    for r in &report.results {
        let fuzz_found = r.fuzz.is_some_and(|f| f.confirmed > 0);
        let consistent = match &r.status {
            PropertyStatus::Unknown
            | PropertyStatus::NotChecked(_)
            | PropertyStatus::Error { .. } => r.engine.is_none(),
            _ if r.engine == Some("cache") => true,
            PropertyStatus::Proven(Proof::Induction { .. }) => r.engine == Some("bmc"),
            PropertyStatus::Proven(Proof::Invariant { .. }) => r.engine == Some("pdr"),
            PropertyStatus::Proven(Proof::Reachability) => r.engine == Some("explicit"),
            PropertyStatus::Violated(_) if fuzz_found => r.engine == Some("fuzz"),
            PropertyStatus::Violated(_)
            | PropertyStatus::Covered(_)
            | PropertyStatus::Unreachable => {
                matches!(r.engine, Some("bmc" | "pdr" | "explicit"))
            }
        };
        let (name, status, engine) = (&r.name, &r.status, r.engine);
        assert!(
            consistent,
            "{label}: {name} is {status} but tagged {engine:?}"
        );
    }
}
