//! One Chrome trace per workload: the program's own trace sink
//! (`TelemetryOptions::trace_path`, one file per `verify` call) merged with
//! the benchmark's `pass` / `generate_ft` / `verify` spans on a track of
//! their own, all on one time axis.

use autosva_formal::telemetry::{validate_chrome_trace, TraceSummary};
use std::collections::BTreeSet;
use std::path::Path;

/// The benchmark's own track, far above any pool worker's.
const BENCH_TID: u64 = 1000;

#[derive(Default)]
pub struct TraceMerge {
    /// `(timestamp µs, event line)`; metadata events carry timestamp 0.
    events: Vec<(u64, String)>,
    named_tids: BTreeSet<u64>,
    /// Duration spans merged so far (program and benchmark).
    pub spans: usize,
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Replaces the value of `"ts": <n>` in one event line by `n + offset`.
fn shift_ts(line: &str, offset_us: u64) -> Option<(u64, String)> {
    const KEY: &str = "\"ts\": ";
    let start = line.find(KEY)? + KEY.len();
    let len = line[start..].find(|c: char| !c.is_ascii_digit())?;
    let ts = line[start..start + len].parse::<u64>().ok()? + offset_us;
    Some((
        ts,
        format!("{}{ts}{}", &line[..start], &line[start + len..]),
    ))
}

impl TraceMerge {
    fn name_track(&mut self, tid: u64, label: &str) {
        if self.named_tids.insert(tid) {
            self.events.push((
                0,
                format!(
                    "{{\"ph\": \"M\", \"pid\": 1, \"tid\": {tid}, \"name\": \"thread_name\", \
                     \"args\": {{\"name\": \"{}\"}}}}",
                    escape(label)
                ),
            ));
        }
    }

    /// Opens a benchmark span at `ts_us` (µs since the run's epoch).
    /// Benchmark spans are opened and closed in time order, so they nest.
    pub fn bench_begin(&mut self, name: &str, ts_us: u64) {
        self.name_track(BENCH_TID, "bench");
        self.events.push((
            ts_us,
            format!(
                "{{\"ph\": \"B\", \"pid\": 1, \"tid\": {BENCH_TID}, \"ts\": {ts_us}, \
                 \"name\": \"{}\", \"cat\": \"bench\", \"args\": {{}}}}",
                escape(name)
            ),
        ));
    }

    /// Closes the innermost open benchmark span.
    pub fn bench_end(&mut self, ts_us: u64) {
        self.events.push((
            ts_us,
            format!("{{\"ph\": \"E\", \"pid\": 1, \"tid\": {BENCH_TID}, \"ts\": {ts_us}}}"),
        ));
        self.spans += 1;
    }

    /// Adds every event of one `verify` call's trace sink, shifted by the
    /// call's start since the run's epoch.  Track-name metadata is kept
    /// once per track.
    pub fn program_sink(&mut self, sink: &str, offset_us: u64) -> Result<(), String> {
        let summary = validate_chrome_trace(sink)?;
        for line in sink.lines() {
            let line = line.trim().trim_end_matches(',');
            if !line.starts_with('{') || line.starts_with("{\"traceEvents\"") {
                continue;
            }
            if line.contains("\"ph\": \"M\"") {
                if let Some(tid) = line
                    .split("\"tid\": ")
                    .nth(1)
                    .and_then(|rest| rest.split(',').next())
                    .and_then(|tid| tid.trim().parse::<u64>().ok())
                {
                    if self.named_tids.insert(tid) {
                        self.events.push((0, line.to_string()));
                    }
                }
                continue;
            }
            self.events.push(
                shift_ts(line, offset_us).ok_or_else(|| format!("event without ts: {line}"))?,
            );
        }
        self.spans += summary.spans;
        Ok(())
    }

    /// Writes the merged trace and validates what was written.
    pub fn write(mut self, path: &Path) -> Result<TraceSummary, String> {
        // A stable sort keeps each track's begin/end order for equal
        // timestamps; the calls never overlap in time, so every track's
        // timestamps come out non-decreasing.
        self.events.sort_by_key(|(ts, _)| *ts);
        let lines: Vec<String> = self.events.into_iter().map(|(_, line)| line).collect();
        let text = format!("{{\"traceEvents\": [\n{}\n]}}\n", lines.join(",\n"));
        std::fs::write(path, &text).map_err(|e| format!("{}: {e}", path.display()))?;
        let summary = validate_chrome_trace(&text)?;
        if summary.spans != self.spans {
            return Err(format!(
                "merged trace holds {} spans, expected {}",
                summary.spans, self.spans
            ));
        }
        Ok(summary)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shifting_rewrites_only_the_timestamp() {
        let (ts, line) =
            shift_ts("{\"ph\": \"E\", \"pid\": 1, \"tid\": 2, \"ts\": 40}", 1000).unwrap();
        assert_eq!(ts, 1040);
        assert_eq!(
            line,
            "{\"ph\": \"E\", \"pid\": 1, \"tid\": 2, \"ts\": 1040}"
        );
    }
}
