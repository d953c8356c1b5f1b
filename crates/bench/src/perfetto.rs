//! Conversion of `MORLOG_TRACE_DIR` JSONL event traces into Chrome
//! `trace_event` JSON, openable at <https://ui.perfetto.dev> — the
//! engine behind the `trace2perfetto` binary.
//!
//! The mapping (one simulated cycle is rendered as one microsecond,
//! since `trace_event` timestamps are µs):
//!
//! * `commit_phase` Begin→Complete pairs become `"X"` duration spans on
//!   the committing thread's track, named by transaction id. The
//!   Start→RecordPersisted window becomes a second span on a parallel
//!   `persist` track per thread — under delay-persistence it extends
//!   *past* the commit span, which makes the §III-C persistence lag
//!   directly visible in the UI.
//! * `wq_accept` events become one `"C"` counter track per memory
//!   channel (queue occupancy at each accept).
//! * `log_append` / `log_truncate` events become per-slice counter
//!   tracks of the live tail/head offsets.
//!
//! Everything else (word transitions, cache writebacks, recovery steps)
//! is ignored and counted, so the converter stays robust as new event
//! kinds appear. Begin events evicted from the trace ring leave
//! unmatched Complete events; those are skipped and counted too.
//!
//! [`convert_host_perf`] maps schema-v6 `host_perf` documents
//! (`perf_report.json`) instead: each design×workload record becomes
//! its own named track whose per-phase exclusive wall-times are laid
//! end-to-end as `"X"` spans (1 µs per recorded µs of host time), with
//! per-phase `alloc_bytes` and the hot-path op counters rendered as
//! `"C"` counter tracks alongside.

use std::collections::HashMap;

use morlog_sim_core::trace::TraceEvent;

use crate::json::{self, Json};
use crate::results::{validate, CounterKeys, HostPerf, Labels, PhaseKeys, Record, Value};

/// Offset separating per-thread `persist` tracks from the commit
/// tracks in the synthetic thread-id space.
const PERSIST_TID_BASE: u64 = 100;

/// A conversion outcome: the Chrome `trace_event` document plus
/// counters describing what was (not) converted.
#[derive(Debug)]
pub struct Converted {
    /// The `{"traceEvents": [...]}` document.
    pub trace: Json,
    /// Commit duration spans emitted.
    pub spans: usize,
    /// Counter samples emitted.
    pub counter_events: usize,
    /// Events of kinds the converter does not map.
    pub ignored: usize,
    /// Commit-phase events whose opening phase was missing (ring
    /// eviction truncated the trace).
    pub unmatched: usize,
}

#[derive(Debug, Default, Clone, Copy)]
struct TxPhases {
    begin: Option<u64>,
    start: Option<u64>,
}

/// Converts one JSONL trace dump into a Chrome `trace_event` document.
///
/// # Errors
///
/// Returns a message naming the first malformed line; individually
/// well-formed lines of unknown event kinds are counted, not errors.
pub fn convert_jsonl(text: &str) -> Result<Converted, String> {
    let mut events: Vec<Json> = Vec::new();
    let mut spans = 0usize;
    let mut counter_events = 0usize;
    let mut ignored = 0usize;
    let mut unmatched = 0usize;
    // (thread, txid) -> open phase timestamps.
    let mut open: HashMap<(u64, u64), TxPhases> = HashMap::new();
    let mut threads_seen: Vec<u64> = Vec::new();

    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let record = json::parse(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        let cycle = record
            .get("cycle")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("line {}: missing integer \"cycle\"", lineno + 1))?;
        let event = record
            .get("event")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("line {}: missing string \"event\"", lineno + 1))?;
        match event {
            "commit_phase" => {
                let [thread, txid, phase] = declared(&record, event, lineno)?;
                let (thread, txid) = (as_u64(thread, lineno)?, as_u64(txid, lineno)?);
                let phase = phase
                    .1
                    .as_str()
                    .ok_or_else(|| format!("line {}: {:?} is not a string", lineno + 1, phase.0))?;
                if !threads_seen.contains(&thread) {
                    threads_seen.push(thread);
                }
                let entry = open.entry((thread, txid)).or_default();
                match phase {
                    "begin" => entry.begin = Some(cycle),
                    "start" => entry.start = Some(cycle),
                    "record_persisted" => match entry.start.take() {
                        None => unmatched += 1,
                        Some(start) => {
                            events.push(span_event(
                                format!("persist tx{txid}"),
                                "commit",
                                PERSIST_TID_BASE + thread,
                                start,
                                cycle,
                            ));
                            spans += 1;
                        }
                    },
                    "complete" => match entry.begin.take() {
                        None => unmatched += 1,
                        Some(begin) => {
                            events.push(span_event(
                                format!("tx{txid}"),
                                "commit",
                                thread,
                                begin,
                                cycle,
                            ));
                            spans += 1;
                        }
                    },
                    other => {
                        return Err(format!(
                            "line {}: unknown commit phase {other:?}",
                            lineno + 1
                        ))
                    }
                }
            }
            // One counter track per channel / slice; the plotted field's
            // declared name is the counter's argument.
            "wq_accept" | "log_append" | "log_truncate" => {
                let (track, id, value) = match event {
                    "wq_accept" => {
                        let [channel, occupancy, _] = declared(&record, event, lineno)?;
                        ("wq[ch", channel, occupancy)
                    }
                    "log_append" => {
                        let [slice, offset, ..] = declared::<5>(&record, event, lineno)?;
                        ("log_tail[slice", slice, offset)
                    }
                    _ => {
                        let [slice, _, new_head] = declared(&record, event, lineno)?;
                        ("log_head[slice", slice, new_head)
                    }
                };
                let id = as_u64(id, lineno)?;
                events.push(counter_event(
                    format!("{track}{id}]"),
                    &value.0,
                    cycle,
                    as_u64(value, lineno)?,
                ));
                counter_events += 1;
            }
            _ => ignored += 1,
        }
    }

    // Name the synthetic threads so Perfetto shows "core N" / "persist
    // N" instead of bare tids.
    let mut meta = Vec::new();
    for &t in &threads_seen {
        meta.push(thread_name_event(t, format!("core {t}")));
        meta.push(thread_name_event(
            PERSIST_TID_BASE + t,
            format!("persist {t}"),
        ));
    }
    meta.extend(events);

    Ok(Converted {
        trace: Json::obj(vec![
            ("traceEvents", Json::Arr(meta)),
            ("displayTimeUnit", Json::Str("ms".into())),
        ]),
        spans,
        counter_events,
        ignored,
        unmatched,
    })
}

/// Converts a schema-v6 `host_perf` results document (`perf_report.json`)
/// into a Chrome `trace_event` document: one named track per
/// design×workload record with its exclusive per-phase wall-times laid
/// end-to-end as spans (µs granularity), per-phase allocator bytes as a
/// counter track sampled at each phase boundary, and the hot-path op
/// counters as one sample each at the record's end.
///
/// # Errors
///
/// Returns a message when the document has no `records` array, none of
/// the records are `host_perf`, or a `host_perf` record is missing its
/// `phase_ns` object. Records of other kinds are counted as ignored.
pub fn convert_host_perf(doc: &Json) -> Result<Converted, String> {
    let records = doc
        .get("records")
        .and_then(Json::as_arr)
        .ok_or("missing \"records\" array (not a results document)")?;
    let mut events = Vec::new();
    let (mut spans, mut counter_events, mut ignored) = (0usize, 0usize, 0usize);
    for (idx, record) in records.iter().enumerate() {
        if record.get("kind").and_then(Json::as_str) != Some(HostPerf::KIND) {
            ignored += 1;
            continue;
        }
        validate::<HostPerf>(record).map_err(|e| format!("record {idx}: {e}"))?;
        let r = HostPerf::from_json(record);
        let (tid, label) = (idx as u64, format!("{} {}", r.design, r.workload));
        events.push(thread_name_event(tid, label.clone()));
        let mut cursor_us = 0u64;
        let phases = PhaseKeys::labels().into_iter().zip(&r.phase_ns.values);
        for ((phase, &ns), &bytes) in phases.zip(&r.alloc_bytes.values) {
            if ns == 0 {
                continue;
            }
            let dur = (ns / 1000).max(1);
            events.push(span_event(phase, "host", tid, cursor_us, cursor_us + dur));
            let track = format!("alloc_bytes[{label}]");
            events.push(counter_event(track, "bytes", cursor_us, bytes));
            (spans, counter_events, cursor_us) = (spans + 1, counter_events + 1, cursor_us + dur);
        }
        for (name, &value) in CounterKeys::labels().iter().zip(&r.counters.values) {
            let track = format!("{name}[{label}]");
            events.push(counter_event(track, "count", cursor_us, value));
            counter_events += 1;
        }
    }
    if spans == 0 && counter_events == 0 {
        return Err("no host_perf records in document".to_string());
    }
    Ok(Converted {
        trace: Json::obj(vec![
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::Str("ms".into())),
        ]),
        spans,
        counter_events,
        ignored,
        unmatched: 0,
    })
}

/// The fields of one trace line after `cycle` and `event`, checked to be
/// exactly those [`TraceEvent::FIELDS`] declares for `event`, in order.
/// `trace_lint` and [`convert_jsonl`] both read events through it, so a
/// renamed field fails both instead of silently dropping a track.
///
/// # Errors
///
/// Names the event when it is undeclared or its keys differ from the
/// declaration.
pub fn event_fields<'a>(record: &'a Json, event: &str) -> Result<&'a [(String, Json)], String> {
    let (_, fields) = TraceEvent::FIELDS
        .iter()
        .find(|(label, _)| *label == event)
        .ok_or_else(|| format!("unknown event {event:?}"))?;
    let pairs = record.as_pairs().unwrap_or_default();
    let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
    if !keys
        .iter()
        .eq(["cycle", "event"].iter().chain(fields.iter()))
    {
        return Err(format!(
            "{event} keys {keys:?} differ from the declared cycle, event, {fields:?}"
        ));
    }
    Ok(&pairs[2..])
}

/// [`event_fields`] of a mapped event, as an array of its declared arity.
fn declared<'a, const N: usize>(
    record: &'a Json,
    event: &str,
    lineno: usize,
) -> Result<&'a [(String, Json); N], String> {
    let fields = event_fields(record, event).map_err(|e| format!("line {}: {e}", lineno + 1))?;
    Ok(fields
        .try_into()
        .expect("mapped arity matches TraceEvent::FIELDS"))
}

fn as_u64((key, value): &(String, Json), lineno: usize) -> Result<u64, String> {
    value
        .as_u64()
        .ok_or_else(|| format!("line {}: {key:?} is not an integer", lineno + 1))
}

fn span_event(name: String, cat: &str, tid: u64, begin: u64, end: u64) -> Json {
    Json::obj(vec![
        ("name", Json::Str(name)),
        ("cat", Json::Str(cat.into())),
        ("ph", Json::Str("X".into())),
        ("ts", Json::UInt(begin)),
        ("dur", Json::UInt(end.saturating_sub(begin).max(1))),
        ("pid", Json::UInt(0)),
        ("tid", Json::UInt(tid)),
    ])
}

fn counter_event(track: String, arg: &str, cycle: u64, value: u64) -> Json {
    Json::obj(vec![
        ("name", Json::Str(track)),
        ("ph", Json::Str("C".into())),
        ("ts", Json::UInt(cycle)),
        ("pid", Json::UInt(0)),
        ("args", Json::obj(vec![(arg, Json::UInt(value))])),
    ])
}

fn thread_name_event(tid: u64, name: String) -> Json {
    Json::obj(vec![
        ("name", Json::Str("thread_name".into())),
        ("ph", Json::Str("M".into())),
        ("pid", Json::UInt(0)),
        ("tid", Json::UInt(tid)),
        ("args", Json::obj(vec![("name", Json::Str(name))])),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::results::HardwareOverhead;

    const SAMPLE: &str = r#"{"cycle":10,"event":"commit_phase","thread":0,"txid":1,"phase":"begin"}
{"cycle":20,"event":"commit_phase","thread":0,"txid":1,"phase":"start"}
{"cycle":25,"event":"wq_accept","channel":2,"occupancy":7,"is_log":true}
{"cycle":30,"event":"log_append","slice":0,"offset":192,"kind":"commit","thread":0,"txid":1}
{"cycle":40,"event":"commit_phase","thread":0,"txid":1,"phase":"record_persisted"}
{"cycle":41,"event":"commit_phase","thread":0,"txid":1,"phase":"complete"}
{"cycle":45,"event":"word_transition","thread":0,"txid":1,"addr":64,"from":"dirty","to":"urlog"}
"#;

    #[test]
    fn converts_spans_and_counters() {
        let c = convert_jsonl(SAMPLE).unwrap();
        assert_eq!(c.spans, 2, "commit span + persist span");
        assert_eq!(c.counter_events, 2, "wq + log_tail");
        assert_eq!(c.ignored, 1, "word_transition is not mapped");
        assert_eq!(c.unmatched, 0);
        let events = c.trace.get("traceEvents").and_then(Json::as_arr).unwrap();
        // 2 thread_name metadata + 2 spans + 2 counters.
        assert_eq!(events.len(), 6);
        let text = c.trace.to_json();
        assert!(text.contains("\"ph\":\"X\""));
        assert!(text.contains("\"ph\":\"C\""));
        assert!(text.contains("\"name\":\"tx1\""));
        assert!(text.contains("\"name\":\"persist tx1\""));
        assert!(text.contains("\"name\":\"wq[ch2]\""));
    }

    #[test]
    fn dp_inverted_order_still_produces_both_spans() {
        // Under delay-persistence Complete precedes RecordPersisted.
        let dp = r#"{"cycle":10,"event":"commit_phase","thread":1,"txid":7,"phase":"begin"}
{"cycle":12,"event":"commit_phase","thread":1,"txid":7,"phase":"start"}
{"cycle":12,"event":"commit_phase","thread":1,"txid":7,"phase":"complete"}
{"cycle":90,"event":"commit_phase","thread":1,"txid":7,"phase":"record_persisted"}
"#;
        let c = convert_jsonl(dp).unwrap();
        assert_eq!(c.spans, 2);
        assert_eq!(c.unmatched, 0);
        let text = c.trace.to_json();
        // The persist span covers cycles 12..90 — longer than commit.
        assert!(text.contains("\"dur\":78"));
    }

    #[test]
    fn truncated_trace_counts_unmatched() {
        // A Complete whose Begin was evicted from the ring.
        let truncated =
            r#"{"cycle":41,"event":"commit_phase","thread":0,"txid":9,"phase":"complete"}"#;
        let c = convert_jsonl(truncated).unwrap();
        assert_eq!(c.spans, 0);
        assert_eq!(c.unmatched, 1);
    }

    #[test]
    fn renamed_field_is_an_error_naming_its_line() {
        // `occupancy` renamed: the wq track must not silently vanish.
        let renamed = SAMPLE.replace("\"occupancy\":7", "\"depth\":7");
        let err = convert_jsonl(&renamed).unwrap_err();
        assert!(err.starts_with("line 3: wq_accept keys"), "{err}");
        assert!(
            err.contains("\"depth\"") && err.contains("\"occupancy\""),
            "{err}"
        );
        // Unmapped events are not checked: they are ignored, not converted.
        let other = SAMPLE.replace("\"from\":", "\"was\":");
        assert_eq!(convert_jsonl(&other).unwrap().ignored, 1);
    }

    #[test]
    fn malformed_line_is_an_error() {
        assert!(convert_jsonl("{\"cycle\":1}").is_err());
        assert!(convert_jsonl("not json").is_err());
        assert!(convert_jsonl("").unwrap().spans == 0);
    }

    #[test]
    fn host_perf_records_become_phase_spans_and_counter_tracks() {
        // Phases in `HostPhase::ALL` order: core_issue, cache_hierarchy,
        // mem_controller, logging, encoding, recovery, checker_replay,
        // trace_overhead; allocator slots add `unscoped` and `total`.
        let record = HostPerf {
            design: "MorLog".into(),
            workload: "Hash-Small".into(),
            threads: 8,
            transactions: 100,
            seed: 42,
            sim_cycles: 1000,
            wall_ns: 5000,
            sim_rate_cps: 2e8,
            profile_total_ns: 3500,
            phase_ns: [2500, 0, 0, 0, 1000, 0, 0, 0].into_iter().collect(),
            counters: [9, 4, 0, 0].into_iter().collect(),
            alloc_count: [0; 10].into_iter().collect(),
            alloc_bytes: [4096, 0, 0, 0, 128, 0, 0, 0, 0, 4224].into_iter().collect(),
        };
        let other = HardwareOverhead {
            log_registers_bytes: 1,
            l1_ext_bits_per_line: 1,
            undo_redo_buffer_bytes: 1,
            redo_buffer_bytes: 1,
            ulog_counters_bytes: 1,
        };
        let doc = Json::obj(vec![(
            "records",
            Json::Arr(vec![other.json(), record.json()]),
        )]);
        let c = convert_host_perf(&doc).unwrap();
        assert_eq!(c.spans, 2, "zero-ns phases are dropped");
        // 2 per-phase alloc samples + 4 op-counter samples.
        assert_eq!(c.counter_events, 6);
        assert_eq!(c.ignored, 1, "non-host_perf record is skipped");
        let text = c.trace.to_json();
        assert!(text.contains("\"name\":\"MorLog Hash-Small\""));
        assert!(text.contains("\"name\":\"core_issue\""));
        assert!(text.contains("\"cat\":\"host\""));
        // 2500 ns -> 2 µs span starting at 0; encoding starts after it.
        assert!(text.contains("\"dur\":2"));
        assert!(text.contains("\"name\":\"alloc_bytes[MorLog Hash-Small]\""));
        assert!(text.contains("\"name\":\"wq_ops[MorLog Hash-Small]\""));
        let broken = Json::obj(vec![(
            "records",
            Json::Arr(vec![Json::obj(vec![(
                "kind",
                Json::Str("host_perf".into()),
            )])]),
        )]);
        assert!(convert_host_perf(&broken).is_err(), "records are validated");
    }

    #[test]
    fn host_perf_rejects_documents_without_profiles() {
        let none = json::parse(r#"{"records":[{"kind":"quick_check"}]}"#).unwrap();
        assert!(convert_host_perf(&none).is_err());
        let not_results = json::parse(r#"{"kind":"host_perf"}"#).unwrap();
        assert!(convert_host_perf(&not_results).is_err());
    }
}
