//! Standards-conformant VCD (IEEE 1364 §18) waveform output for
//! counterexample and witness traces.
//!
//! Every violated or covered property can dump its [`Trace`] — whether the
//! fuzzer or a SAT engine produced it — as a waveform a designer opens in
//! GTKWave/Surfer next to the RTL.  Signal names come from the elaborated
//! design symbols (`inst.sig`, bit-indexed), not raw AIG literals: dotted
//! prefixes become nested `$scope module` levels and `name[i]` bit groups
//! are re-assembled into vector `$var` declarations, so the waveform reads
//! like the source hierarchy.
//!
//! The output is fully deterministic — fixed header strings, name-sorted
//! declarations, stable id-code allocation — so golden tests can pin a
//! waveform byte-for-byte.  A synthetic `clk` toggles at half the 10 ns
//! cycle period to give the flat two-state trace a familiar clocked look.
//!
//! [`validate`] is the structural re-parser used by the golden test and the
//! contract suite: balanced scope nesting, unique id codes, value
//! changes only on declared ids, strictly increasing timestamps.

use crate::trace::Trace;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Options for waveform output (part of [`crate::checker::CheckOptions`]).
#[derive(Debug, Clone, Default)]
pub struct VcdOptions {
    /// Directory to write one VCD per counterexample/witness trace into
    /// (created if missing).  `None` disables waveform output.  File names
    /// follow the stable scheme of [`file_name`].
    pub dir: Option<std::path::PathBuf>,
}

/// The stable on-disk name for the waveform of `property` checked on
/// `dut`: both names sanitized to `[A-Za-z0-9_]`, joined by `__`, with the
/// `.vcd` extension — independent of scheduling, engine, and platform.
pub fn file_name(dut: &str, property: &str) -> String {
    format!("{}__{}.vcd", sanitize(dut), sanitize(property))
}

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// One multi-bit (or scalar) variable reassembled from the trace's
/// bit-granular signals.
struct Var {
    /// Name inside its scope (no hierarchy prefix, no bit index).
    name: String,
    /// Bit values per cycle, LSB first; width = `bits.len()`.
    bits: Vec<Vec<bool>>,
    /// VCD identifier code.
    id: String,
}

impl Var {
    fn width(&self) -> usize {
        self.bits.len()
    }

    /// The VCD value-change record for this variable at `cycle`.
    fn change(&self, cycle: usize) -> String {
        if self.width() == 1 {
            let v = self.bits[0].get(cycle).copied().unwrap_or(false);
            format!("{}{}", u8::from(v), self.id)
        } else {
            // Binary vectors print MSB first.
            let word: String = self
                .bits
                .iter()
                .rev()
                .map(|bit| {
                    if bit.get(cycle).copied().unwrap_or(false) {
                        '1'
                    } else {
                        '0'
                    }
                })
                .collect();
            format!("b{} {}", word, self.id)
        }
    }

    fn changed(&self, cycle: usize) -> bool {
        cycle == 0
            || self
                .bits
                .iter()
                .any(|bit| bit.get(cycle) != bit.get(cycle - 1))
    }
}

/// A scope-tree node: nested module scopes plus the variables declared at
/// this level, both name-sorted for determinism.
#[derive(Default)]
struct Scope {
    children: BTreeMap<String, Scope>,
    vars: Vec<usize>,
}

/// The VCD identifier code for variable `index`: printable ASCII
/// (`!`..`~`), shortest-first, the conventional allocation order.
fn id_code(mut index: usize) -> String {
    let mut out = String::new();
    loop {
        out.push((b'!' + (index % 94) as u8) as char);
        index /= 94;
        if index == 0 {
            break;
        }
        index -= 1;
    }
    out
}

/// Splits a trace signal name into (scope path, base name, bit index).
/// `"u_b.cnt_q[3]"` → (`["u_b"]`, `"cnt_q"`, `Some(3)`).
fn split_name(name: &str) -> (Vec<&str>, &str, Option<usize>) {
    let mut segments: Vec<&str> = name.split('.').collect();
    let last = segments.pop().unwrap_or(name);
    let (base, index) = match (last.rfind('['), last.ends_with(']')) {
        (Some(open), true) => match last[open + 1..last.len() - 1].parse::<usize>() {
            Ok(i) => (&last[..open], Some(i)),
            Err(_) => (last, None),
        },
        _ => (last, None),
    };
    (segments, base, index)
}

/// Renders `trace` as a complete VCD document.  `dut` names the top scope;
/// `property` is recorded in the header comment.
pub fn render(trace: &Trace, dut: &str, property: &str) -> String {
    // ------------------------------------------------------------------
    // Reassemble bit-granular trace signals into scoped vector variables.
    // ------------------------------------------------------------------
    // Key: (scope path joined, base name) → bit index → values.
    let mut grouped: BTreeMap<(String, String), BTreeMap<usize, Vec<bool>>> = BTreeMap::new();
    for sig in trace.signals() {
        let (path, base, index) = split_name(&sig.name);
        let key = (path.join("."), base.to_string());
        grouped
            .entry(key)
            .or_default()
            .insert(index.unwrap_or(0), sig.values.clone());
    }

    let mut vars: Vec<Var> = Vec::new();
    let mut root = Scope::default();
    // The synthetic clock gets the first id code and lives in the top scope.
    vars.push(Var {
        name: "clk".to_string(),
        bits: vec![Vec::new()],
        id: id_code(0),
    });
    root.vars.push(0);
    for ((path, base), bit_map) in &grouped {
        let width = bit_map.keys().max().unwrap_or(&0) + 1;
        let cycles = trace.len();
        // Bits the cone sliced away stay constant-zero.
        let mut bits = vec![vec![false; cycles]; width];
        for (&index, values) in bit_map {
            bits[index] = values.clone();
        }
        let var_index = vars.len();
        vars.push(Var {
            name: base.clone(),
            bits,
            id: id_code(var_index),
        });
        let mut scope = &mut root;
        if !path.is_empty() {
            for segment in path.split('.') {
                scope = scope.children.entry(segment.to_string()).or_default();
            }
        }
        scope.vars.push(var_index);
    }

    // ------------------------------------------------------------------
    // Header.
    // ------------------------------------------------------------------
    let mut out = String::new();
    out.push_str("$date\n    (fixed for reproducibility)\n$end\n");
    out.push_str("$version\n    autosva-formal VCD writer\n$end\n");
    let _ = writeln!(out, "$comment\n    property: {property}\n$end");
    out.push_str("$timescale 1ns $end\n");
    fn emit_scope(out: &mut String, name: &str, scope: &Scope, vars: &[Var], depth: usize) {
        let pad = "    ".repeat(depth);
        let _ = writeln!(out, "{pad}$scope module {name} $end");
        for &vi in &scope.vars {
            let v = &vars[vi];
            let suffix = if v.width() == 1 {
                String::new()
            } else {
                format!(" [{}:0]", v.width() - 1)
            };
            let _ = writeln!(
                out,
                "{pad}    $var wire {} {} {}{} $end",
                v.width(),
                v.id,
                v.name,
                suffix
            );
        }
        for (child_name, child) in &scope.children {
            emit_scope(out, child_name, child, vars, depth + 1);
        }
        let _ = writeln!(out, "{pad}$upscope $end");
    }
    emit_scope(&mut out, dut, &root, &vars, 0);
    out.push_str("$enddefinitions $end\n");

    // ------------------------------------------------------------------
    // Value changes: cycle c occupies [10c, 10c+10) ns, clk rises at 10c
    // and falls at 10c+5; the design signals change on the rising edge.
    // ------------------------------------------------------------------
    out.push_str("$dumpvars\n");
    let _ = writeln!(out, "1{}", vars[0].id);
    for v in vars.iter().skip(1) {
        let _ = writeln!(out, "{}", v.change(0));
    }
    out.push_str("$end\n");
    let _ = writeln!(out, "#5\n0{}", vars[0].id);
    for cycle in 1..trace.len() {
        let _ = writeln!(out, "#{}", 10 * cycle);
        let _ = writeln!(out, "1{}", vars[0].id);
        for v in vars.iter().skip(1) {
            if v.changed(cycle) {
                let _ = writeln!(out, "{}", v.change(cycle));
            }
        }
        let _ = writeln!(out, "#{}\n0{}", 10 * cycle + 5, vars[0].id);
    }
    let _ = writeln!(out, "#{}", 10 * trace.len());
    out
}

/// Structural summary of a parsed VCD document (see [`validate`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VcdSummary {
    /// The declared timescale string (e.g. `"1ns"`).
    pub timescale: String,
    /// Number of `$scope` sections.
    pub scopes: usize,
    /// Number of `$var` declarations.
    pub vars: usize,
    /// Number of `#t` timestamps in the value-change section.
    pub timestamps: usize,
    /// Number of value-change records.
    pub changes: usize,
}

/// Structurally validates a VCD document: required header sections,
/// balanced scope nesting, unique id codes, value changes restricted to
/// declared ids, strictly increasing timestamps.
///
/// # Errors
///
/// Returns a description of the first structural violation found.
pub fn validate(text: &str) -> Result<VcdSummary, String> {
    let mut tokens = text.split_whitespace().peekable();
    let mut timescale: Option<String> = None;
    let mut depth = 0usize;
    let mut max_depth = 0usize;
    let mut scopes = 0usize;
    let mut ids: Vec<String> = Vec::new();
    // Header: sections until $enddefinitions.
    loop {
        let Some(tok) = tokens.next() else {
            return Err("missing $enddefinitions".to_string());
        };
        match tok {
            "$date" | "$version" | "$comment" => {
                for t in tokens.by_ref() {
                    if t == "$end" {
                        break;
                    }
                }
            }
            "$timescale" => {
                let mut words = Vec::new();
                for t in tokens.by_ref() {
                    if t == "$end" {
                        break;
                    }
                    words.push(t);
                }
                timescale = Some(words.join(" "));
            }
            "$scope" => {
                let kind = tokens.next().ok_or("truncated $scope")?;
                if kind != "module" {
                    return Err(format!("unsupported scope kind `{kind}`"));
                }
                let _name = tokens.next().ok_or("unnamed $scope")?;
                if tokens.next() != Some("$end") {
                    return Err("unterminated $scope".to_string());
                }
                depth += 1;
                max_depth = max_depth.max(depth);
                scopes += 1;
            }
            "$upscope" => {
                if tokens.next() != Some("$end") {
                    return Err("unterminated $upscope".to_string());
                }
                depth = depth
                    .checked_sub(1)
                    .ok_or("unbalanced $upscope before any $scope")?;
            }
            "$var" => {
                if depth == 0 {
                    return Err("$var outside any scope".to_string());
                }
                let _kind = tokens.next().ok_or("truncated $var")?;
                let width: usize = tokens
                    .next()
                    .ok_or("truncated $var")?
                    .parse()
                    .map_err(|_| "non-numeric $var width".to_string())?;
                if width == 0 {
                    return Err("zero-width $var".to_string());
                }
                let id = tokens.next().ok_or("truncated $var")?.to_string();
                if ids.contains(&id) {
                    return Err(format!("duplicate id code `{id}`"));
                }
                ids.push(id);
                for t in tokens.by_ref() {
                    if t == "$end" {
                        break;
                    }
                }
            }
            "$enddefinitions" => {
                if tokens.next() != Some("$end") {
                    return Err("unterminated $enddefinitions".to_string());
                }
                break;
            }
            other => return Err(format!("unexpected header token `{other}`")),
        }
    }
    if depth != 0 {
        return Err(format!("{depth} unclosed $scope section(s)"));
    }
    if timescale.is_none() {
        return Err("missing $timescale".to_string());
    }

    // Value-change section.
    let mut timestamps = 0usize;
    let mut changes = 0usize;
    let mut last_time: Option<u64> = None;
    while let Some(tok) = tokens.next() {
        if tok == "$dumpvars" || tok == "$end" {
            continue;
        }
        if let Some(time) = tok.strip_prefix('#') {
            let time: u64 = time
                .parse()
                .map_err(|_| format!("non-numeric timestamp `{tok}`"))?;
            if let Some(last) = last_time {
                if time <= last {
                    return Err(format!("timestamp #{time} not after #{last}"));
                }
            }
            last_time = Some(time);
            timestamps += 1;
        } else if let Some(rest) = tok.strip_prefix('b') {
            if rest.is_empty() || !rest.chars().all(|c| c == '0' || c == '1') {
                return Err(format!("malformed vector value `{tok}`"));
            }
            let id = tokens.next().ok_or("vector value without id code")?;
            if !ids.iter().any(|k| k == id) {
                return Err(format!("value change on undeclared id `{id}`"));
            }
            changes += 1;
        } else if let Some(id) = tok.strip_prefix(['0', '1']) {
            if id.is_empty() {
                return Err("scalar value without id code".to_string());
            }
            if !ids.iter().any(|k| k == id) {
                return Err(format!("value change on undeclared id `{id}`"));
            }
            changes += 1;
        } else {
            return Err(format!("unexpected token `{tok}` in value-change section"));
        }
    }
    Ok(VcdSummary {
        timescale: timescale.unwrap(),
        scopes,
        vars: ids.len(),
        timestamps,
        changes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> Trace {
        let mut t = Trace::new(3);
        t.record(0, "req_val", true, true);
        t.record(1, "req_val", false, true);
        t.record(2, "req_val", true, true);
        t.record(1, "u_b.cnt_q[0]", true, false);
        t.record(2, "u_b.cnt_q[1]", true, false);
        t.record(0, "busy_q", false, false);
        t.record(2, "busy_q", true, false);
        t
    }

    #[test]
    fn rendered_vcd_validates_structurally() {
        let text = render(&sample_trace(), "echo", "as__t_fire");
        let summary = validate(&text).expect("structurally valid VCD");
        assert_eq!(summary.timescale, "1ns");
        // Top scope plus the `u_b` child scope.
        assert_eq!(summary.scopes, 2);
        // clk + req_val + busy_q + the reassembled cnt_q vector.
        assert_eq!(summary.vars, 4);
        // #5, then (#10, #15, #20, #25) for cycles 1..3, then the closing
        // timestamp #30.
        assert_eq!(summary.timestamps, 6);
    }

    #[test]
    fn bit_signals_reassemble_into_one_vector() {
        let text = render(&sample_trace(), "echo", "p");
        assert!(
            text.contains("$var wire 2 "),
            "cnt_q[0] and cnt_q[1] must form one 2-bit vector:\n{text}"
        );
        assert!(text.contains("cnt_q [1:0] $end"));
        // MSB-first vector dump: cycle 2 has cnt_q = 2'b10.
        assert!(text.contains("b10 "));
    }

    #[test]
    fn dotted_prefixes_become_nested_scopes() {
        let text = render(&sample_trace(), "echo", "p");
        assert!(text.contains("$scope module echo $end"));
        assert!(text.contains("$scope module u_b $end"));
        assert_eq!(text.matches("$upscope $end").count(), 2);
    }

    #[test]
    fn file_names_are_sanitized_and_stable() {
        assert_eq!(
            file_name("echo", "as__t_fire [1]"),
            "echo__as__t_fire__1_.vcd"
        );
        assert_eq!(file_name("echo", "p"), file_name("echo", "p"));
    }

    #[test]
    fn validator_rejects_structural_damage() {
        let good = render(&sample_trace(), "echo", "p");
        assert!(validate(&good).is_ok());
        let no_upscope = good.replacen("$upscope $end", "", 1);
        assert!(validate(&no_upscope).is_err());
        let dup_id = good.replacen("$var wire 1 \" ", "$var wire 1 ! ", 1);
        assert!(validate(&dup_id).is_err(), "duplicate id must be rejected");
        let bad_time = good.replace("#20", "#4");
        assert!(validate(&bad_time).is_err(), "regressing timestamps");
    }

    #[test]
    fn id_codes_walk_the_printable_range() {
        assert_eq!(id_code(0), "!");
        assert_eq!(id_code(1), "\"");
        assert_eq!(id_code(93), "~");
        assert_eq!(id_code(94), "!!");
        let mut seen = std::collections::HashSet::new();
        for i in 0..500 {
            assert!(seen.insert(id_code(i)), "id {i} collides");
        }
    }
}
