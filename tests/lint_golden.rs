//! Golden-diagnostics snapshot for the design lint engine.
//!
//! `crates/designs/rtl/lint_demo.sv` seeds exactly one finding per lint
//! code; this test pins the full machine-readable report byte-for-byte
//! against `crates/designs/golden/lint_demo.json` and spot-checks the
//! human rendering (codes, positions, caret snippets).  A second test
//! asserts the clean Table III corpus produces *zero* findings, so the
//! lint's conservative width/usage inference stays noise-free.

use autosva::{generate_ft, AutosvaOptions};
use autosva_bench::build_testbench;
use autosva_designs::{all_cases, elaborated, lint_demo_source, struct_demo_sources, Variant};
use autosva_formal::compile::compile;
use autosva_formal::elab::{elaborate, ElabOptions};
use autosva_formal::lint::{self, LintOptions, LintReport, Severity, LINT_CODES};

const GOLDEN: &str = include_str!("../crates/designs/golden/lint_demo.json");

fn lint_demo_report() -> LintReport {
    let (_, module, source) = lint_demo_source();
    let ft = generate_ft(source, &AutosvaOptions::default()).expect("lint_demo annotation parses");
    let file = svparse::parse(source).expect("lint_demo parses");
    let design = elaborate(
        &file,
        &ElabOptions {
            top: Some(module.to_string()),
            ..ElabOptions::default()
        },
    )
    .expect("lint_demo elaborates");
    let compiled = compile(&design, &ft).expect("lint_demo compiles");
    lint::run(
        &design,
        &compiled,
        &ft,
        Some((source, &file)),
        &LintOptions::default(),
    )
}

#[test]
fn lint_demo_matches_the_golden_snapshot() {
    let report = lint_demo_report();
    assert_eq!(
        report.to_json(),
        GOLDEN,
        "lint_demo JSON drifted from crates/designs/golden/lint_demo.json; \
         regenerate the golden if the change is intentional"
    );
}

#[test]
fn lint_demo_seeds_every_code_at_the_expected_position() {
    let report = lint_demo_report();

    // One finding per lint code, no extras.
    assert_eq!(report.findings.len(), LINT_CODES.len());
    for (code, _) in LINT_CODES {
        let hits = report.findings.iter().filter(|f| f.code == *code).count();
        assert_eq!(hits, 1, "expected exactly one {code} finding");
    }

    // (code, signal, line, column) for every seeded finding.  Positions point
    // at real code or annotation text, never at prose comments.
    let expected = [
        ("L009", "req.id", 22, 21),
        ("L004", "demo_txn_data_sampled", 24, 18),
        ("L008", "dbg_state", 36, 22),
        ("L007", "state_q", 41, 15),
        ("L006", "unused_cnt", 43, 15),
        ("L001", "ghost", 44, 15),
        ("L002", "clash", 45, 15),
        ("L005", "stuck_q", 46, 15),
        ("L003", "scratch", 53, 3),
    ];
    for (code, signal, line, column) in expected {
        let f = report
            .findings
            .iter()
            .find(|f| f.code == code)
            .unwrap_or_else(|| panic!("missing {code}"));
        assert_eq!(f.signal, signal, "{code} signal");
        assert_eq!(f.line, Some(line), "{code} line");
        assert_eq!(f.column, Some(column), "{code} column");
        assert!(f.snippet.is_some(), "{code} has a caret snippet");
    }

    // Only the multiply-driven finding is an error by default.
    let errors: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.severity == Severity::Error)
        .collect();
    assert_eq!(errors.len(), 1);
    assert_eq!(errors[0].code, "L002");
    assert!(report.has_errors());

    // The caret snippet reproduces the offending source line with the caret
    // under the reported column.
    let l003 = report.findings.iter().find(|f| f.code == "L003").unwrap();
    let snippet = l003.snippet.as_deref().unwrap();
    assert!(
        snippet.contains("assign scratch = 2'd1;"),
        "L003 snippet shows the assignment: {snippet:?}"
    );
    assert!(snippet.lines().any(|l| l.trim_end().ends_with('^')));

    // And the rendering carries codes, positions and snippets through.
    let rendered = report.render();
    assert!(rendered.contains("lint: 9 findings (1 error, 8 warnings)"));
    assert!(rendered.contains("error[L002]"));
    assert!(rendered.contains("--> 53:3"));
    assert!(rendered.contains("assign scratch = 2'd1;"));
}

#[test]
fn lint_errors_abort_verification_before_any_engine_runs() {
    use autosva_formal::checker::{verify, CheckOptions};
    use autosva_formal::lint::LintLevel;

    let (_, _, source) = lint_demo_source();
    let ft = generate_ft(source, &AutosvaOptions::default()).unwrap();

    // The multiply-driven `clash` is error severity: verify refuses to run
    // and the message carries the rendered lint report.
    let err = verify(source, &ft, &CheckOptions::default())
        .expect_err("lint_demo has an L002 error, verify must refuse");
    let message = err.to_string();
    assert!(message.contains("design lint failed"), "{message}");
    assert!(message.contains("error[L002]"), "{message}");
    assert!(message.contains("`clash`"), "{message}");

    // With the lint off, the same design verifies (findings are warnings
    // about legal code; the last continuous assign wins for `clash`).
    let mut options = CheckOptions::default();
    options.lint.level = LintLevel::Off;
    let report = verify(source, &ft, &options).expect("lint off: design verifies");
    assert!(report.lint.is_empty());
    assert!(!report.results.is_empty());
}

#[test]
fn the_clean_corpus_lints_without_findings() {
    for case in all_cases() {
        for variant in [Variant::Buggy, Variant::Fixed] {
            if variant == Variant::Buggy && !case.has_bug_parameter {
                continue;
            }
            let design = elaborated(&case, variant);
            let ft = build_testbench(&case);
            let compiled = compile(&design, &ft).expect("corpus case compiles");
            let file = svparse::parse(case.source).expect("corpus case parses");
            let report = lint::run(
                &design,
                &compiled,
                &ft,
                Some((case.source, &file)),
                &LintOptions::default(),
            );
            assert!(
                report.is_empty(),
                "{} {:?} should lint clean but reported:\n{}",
                case.id,
                variant,
                report.render()
            );
        }
    }
    for (label, module, source) in struct_demo_sources() {
        let ft = generate_ft(source, &AutosvaOptions::default()).unwrap();
        let file = svparse::parse(source).unwrap();
        let design = elaborate(
            &file,
            &ElabOptions {
                top: Some(module.to_string()),
                ..ElabOptions::default()
            },
        )
        .unwrap();
        let compiled = compile(&design, &ft).unwrap();
        let report = lint::run(
            &design,
            &compiled,
            &ft,
            Some((source, &file)),
            &LintOptions::default(),
        );
        assert!(
            report.is_empty(),
            "{label} should lint clean but reported:\n{}",
            report.render()
        );
    }
}
