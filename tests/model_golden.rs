//! Golden shapes of every compiled model the repository ships.
//!
//! For each of the 11 Table III case/variant runs, both struct-port demos
//! and the lint demo, the front end (parse, elaboration, annotation
//! compilation) builds one model.  This test pins that model's latch count,
//! AND-gate count and [`coi::fingerprint`] against
//! `crates/designs/golden/models.json`.  The fingerprint hashes every node,
//! name and property literal in creation order, so any change to how an
//! expression is lowered — an extra gate, a reordered latch, a renamed
//! input — shows up here, and with it any change to the keys of an on-disk
//! proof cache.
//!
//! ```sh
//! cargo test -q --test model_golden
//! ```

use autosva::{generate_ft, AutosvaOptions};
use autosva_bench::build_testbench;
use autosva_designs::{all_cases, elaborated, lint_demo_source, struct_demo_sources, Variant};
use autosva_formal::coi;
use autosva_formal::compile::compile;
use autosva_formal::elab::{elaborate, ElabOptions};
use autosva_formal::model::Model;

const GOLDEN: &str = include_str!("../crates/designs/golden/models.json");

/// One JSON line per model, in a fixed order: the corpus runs in Table III
/// order (fixed variant first), then the demos.
fn snapshot() -> String {
    let mut entries: Vec<(String, Model)> = Vec::new();
    for case in all_cases() {
        let variants: &[Variant] = if case.has_bug_parameter {
            &[Variant::Fixed, Variant::Buggy]
        } else {
            &[Variant::Fixed]
        };
        for &variant in variants {
            let design = elaborated(&case, variant);
            let ft = build_testbench(&case);
            let compiled = compile(&design, &ft)
                .unwrap_or_else(|e| panic!("{} {variant:?}: compile failed: {e}", case.id));
            entries.push((format!("{}_{variant:?}", case.id), compiled.model));
        }
    }
    for (label, module, source) in struct_demo_sources()
        .into_iter()
        .chain([lint_demo_source()])
    {
        let ft = generate_ft(source, &AutosvaOptions::default())
            .unwrap_or_else(|e| panic!("{label}: testbench generation failed: {e}"));
        let file = svparse::parse(source).unwrap_or_else(|e| panic!("{label}: parse error: {e}"));
        let options = ElabOptions {
            top: Some(module.to_string()),
            ..ElabOptions::default()
        };
        let design = elaborate(&file, &options)
            .unwrap_or_else(|e| panic!("{label}: elaboration failed: {e}"));
        let compiled =
            compile(&design, &ft).unwrap_or_else(|e| panic!("{label}: compile failed: {e}"));
        entries.push((label.to_string(), compiled.model));
    }
    let lines: Vec<String> = entries
        .iter()
        .map(|(tag, model)| {
            format!(
                "  {{\"model\": \"{tag}\", \"latches\": {}, \"gates\": {}, \"fingerprint\": \"{}\"}}",
                model.aig.num_latches(),
                model.aig.num_ands(),
                coi::fingerprint(model)
            )
        })
        .collect();
    format!("[\n{}\n]\n", lines.join(",\n"))
}

#[test]
fn every_shipped_model_matches_the_golden() {
    assert_eq!(
        snapshot(),
        GOLDEN,
        "a compiled model drifted from crates/designs/golden/models.json; \
         regenerate the golden (see regenerate_golden below) only if the \
         change to the model is intentional"
    );
}

/// Regenerates `crates/designs/golden/models.json` in place.  Run after an
/// intentional change to the models the front end builds:
///
/// ```sh
/// cargo test --release --test model_golden -- --ignored regenerate_golden
/// ```
#[test]
#[ignore = "writes the golden file; run explicitly to regenerate"]
fn regenerate_golden() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/crates/designs/golden/models.json"
    );
    std::fs::write(path, snapshot()).expect("write golden");
}
