//! Golden shapes of every compiled model the repository ships, and of
//! every cone the checker builds from them.
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
//! After the model lines, one line per checked property pins the same three
//! figures for the property's cone-of-influence slice, for that slice after
//! [`opt::optimize`], and — for liveness — for the k-liveness model of the
//! optimized slice with its pending-obligation monitors
//! ([`KLiveness`]): exactly the models the engines check and the proof
//! cache keys on.
//!
//! ```sh
//! cargo test -q --test model_golden
//! ```

use autosva::{generate_ft, AutosvaOptions};
use autosva_bench::build_testbench;
use autosva_designs::{all_cases, elaborated, lint_demo_source, struct_demo_sources, Variant};
use autosva_formal::coi::{self, cone_of_influence, SliceTarget};
use autosva_formal::compile::{compile, CompiledKind, CompiledTestbench};
use autosva_formal::elab::{elaborate, ElabOptions};
use autosva_formal::liveness::{self, KLiveness};
use autosva_formal::model::Model;
use autosva_formal::opt;

const GOLDEN: &str = include_str!("../crates/designs/golden/models.json");

/// A model's latch count, gate count and fingerprint as JSON fields.
fn shape(model: &Model) -> String {
    format!(
        "\"latches\": {}, \"gates\": {}, \"fingerprint\": \"{}\"",
        model.aig.num_latches(),
        model.aig.num_ands(),
        coi::fingerprint(model)
    )
}

/// One JSON line per model, in a fixed order: the corpus runs in Table III
/// order (fixed variant first), then the demos; then, in the same order,
/// one line per checked property of each model.
fn snapshot() -> String {
    let mut entries: Vec<(String, CompiledTestbench)> = Vec::new();
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
            entries.push((format!("{}_{variant:?}", case.id), compiled));
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
        entries.push((label.to_string(), compiled));
    }
    let mut lines: Vec<String> = entries
        .iter()
        .map(|(tag, compiled)| format!("  {{\"model\": \"{tag}\", {}}}", shape(&compiled.model)))
        .collect();
    for (tag, compiled) in &entries {
        for prop in &compiled.properties {
            let target = match prop.kind {
                CompiledKind::Safety(i) => SliceTarget::Bad(i),
                CompiledKind::Cover(i) => SliceTarget::Cover(i),
                CompiledKind::Liveness(i) => SliceTarget::Liveness(i),
                _ => continue,
            };
            let slice = cone_of_influence(&compiled.model, target).model;
            let optimized = opt::optimize(&slice).0;
            let mut line = format!(
                "  {{\"cone\": \"{tag}/{}\", \"slice\": {{{}}}, \"opt\": {{{}}}",
                prop.property.full_name(),
                shape(&slice),
                shape(&optimized)
            );
            if let SliceTarget::Liveness(_) = target {
                let (monitored, monitors) = liveness::monitored(&optimized, 0);
                let klive = KLiveness::new(&monitored, &monitors);
                line.push_str(&format!(", \"klive\": {{{}}}", shape(&klive.model)));
            }
            line.push('}');
            lines.push(line);
        }
    }
    format!("[\n{}\n]\n", lines.join(",\n"))
}

#[test]
fn every_shipped_model_matches_the_golden() {
    assert_eq!(
        snapshot(),
        GOLDEN,
        "a compiled model or cone drifted from crates/designs/golden/models.json; \
         regenerate the golden (see regenerate_golden below) only if the \
         change to the model is intentional"
    );
}

/// Regenerates `crates/designs/golden/models.json` in place.  Run after an
/// intentional change to the models the front end builds, or to the slices,
/// optimized slices and k-liveness models the checker derives from them:
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
