//! Exporters: Chrome trace-event JSON and a human summary table.

use crate::json::{Arr, Obj};
use crate::{EventKind, TraceRecord};

fn lane_label(lane: u32) -> String {
    if lane == crate::LANE_COORDINATOR {
        "coordinator".to_string()
    } else {
        format!("worker {}", lane - 1)
    }
}

/// Render a merged record as Chrome trace-event JSON (the "JSON Array
/// Format" object flavour), loadable in Perfetto and `chrome://tracing`.
///
/// Each lane becomes one process: pid 0 is the coordinator, pid `w+1` is
/// worker `w`. `process_name` metadata is emitted for the coordinator and
/// for all `workers` workers even if a lane recorded nothing, so the
/// viewer always shows the full topology. Spans become `"X"` complete
/// events, instants become process-scoped `"i"` events; the per-event
/// counter surfaces as `args.v`.
///
/// `metrics` — when given — is embedded verbatim as a top-level
/// `"clugpMetrics"` key; trace viewers ignore unknown top-level keys, so
/// one artifact carries both the timeline and the metrics snapshot.
pub fn chrome_trace(rec: &TraceRecord, workers: u32, metrics: Option<&str>) -> String {
    let mut events = Arr::new();
    for lane in 0..=workers {
        events.raw(
            &Obj::new()
                .str("ph", "M")
                .str("name", "process_name")
                .u64("pid", lane as u64)
                .u64("tid", 0)
                .raw("args", &Obj::new().str("name", &lane_label(lane)).finish())
                .finish(),
        );
        events.raw(
            &Obj::new()
                .str("ph", "M")
                .str("name", "process_sort_index")
                .u64("pid", lane as u64)
                .u64("tid", 0)
                .raw("args", &Obj::new().u64("sort_index", lane as u64).finish())
                .finish(),
        );
    }
    let mut sorted: Vec<&(u32, crate::Event)> = rec.events.iter().collect();
    sorted.sort_by_key(|(lane, e)| (*lane, e.ts_us));
    for (lane, e) in sorted {
        let mut obj = Obj::new()
            .str("name", &e.name)
            .str("cat", "clugp")
            .u64("pid", *lane as u64)
            .u64("tid", 0)
            .u64("ts", e.ts_us);
        obj = match e.kind {
            EventKind::Span => obj.str("ph", "X").u64("dur", e.dur_us),
            EventKind::Instant => obj.str("ph", "i").str("s", "p"),
        };
        events.raw(
            &obj.raw("args", &Obj::new().u64("v", e.arg).finish())
                .finish(),
        );
    }
    let mut top = Obj::new()
        .raw("traceEvents", &events.finish())
        .str("displayTimeUnit", "ms")
        .u64("clugpDroppedEvents", rec.dropped);
    if let Some(m) = metrics {
        top = top.raw("clugpMetrics", m);
    }
    top.finish()
}

/// Aggregate the record per `(lane, event name)` and render an aligned
/// table for stderr: event count, total span milliseconds, and the summed
/// per-event counter.
pub fn summary_table(rec: &TraceRecord) -> String {
    struct Row {
        lane: u32,
        name: String,
        kind: EventKind,
        count: u64,
        total_us: u64,
        arg_sum: u64,
    }
    let mut rows: Vec<Row> = Vec::new();
    for (lane, e) in &rec.events {
        match rows
            .iter_mut()
            .find(|r| r.lane == *lane && r.name == e.name && r.kind == e.kind)
        {
            Some(r) => {
                r.count += 1;
                r.total_us += e.dur_us;
                r.arg_sum = r.arg_sum.saturating_add(e.arg);
            }
            None => rows.push(Row {
                lane: *lane,
                name: e.name.clone(),
                kind: e.kind,
                count: 1,
                total_us: e.dur_us,
                arg_sum: e.arg,
            }),
        }
    }
    rows.sort_by(|a, b| (a.lane, &a.name).cmp(&(b.lane, &b.name)));
    let mut out = String::new();
    out.push_str(&format!(
        "{:<12} {:<22} {:<7} {:>7} {:>12} {:>14}\n",
        "lane", "event", "kind", "count", "total ms", "arg sum"
    ));
    for r in &rows {
        let kind = match r.kind {
            EventKind::Span => "span",
            EventKind::Instant => "inst",
        };
        out.push_str(&format!(
            "{:<12} {:<22} {:<7} {:>7} {:>12.3} {:>14}\n",
            lane_label(r.lane),
            r.name,
            kind,
            r.count,
            r.total_us as f64 / 1e3,
            r.arg_sum
        ));
    }
    if rec.dropped > 0 {
        out.push_str(&format!(
            "(dropped {} events at buffer caps)\n",
            rec.dropped
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{json, Event, LANE_COORDINATOR};

    fn sample() -> TraceRecord {
        let mut rec = TraceRecord::default();
        rec.push(
            LANE_COORDINATOR,
            Event {
                name: "pass:pass1".into(),
                kind: EventKind::Span,
                ts_us: 10,
                dur_us: 500,
                arg: 0,
            },
        );
        rec.push(
            crate::worker_lane(1),
            Event {
                name: "chunk".into(),
                kind: EventKind::Span,
                ts_us: 20,
                dur_us: 30,
                arg: 4096,
            },
        );
        rec.push(crate::worker_lane(1), Event::instant_now("retry", 2));
        rec
    }

    #[test]
    fn chrome_trace_is_valid_json_with_all_lanes() {
        let rec = sample();
        let metrics = Obj::new().u64("recoveries", 1).finish();
        let out = chrome_trace(&rec, 4, Some(&metrics));
        json::validate(&out).unwrap();
        // Coordinator + 4 worker lanes announced even though only two
        // lanes recorded events.
        for label in [
            "coordinator",
            "worker 0",
            "worker 1",
            "worker 2",
            "worker 3",
        ] {
            assert!(out.contains(&format!("\"name\":\"{label}\"")), "{label}");
        }
        assert!(out.contains("\"ph\":\"X\""));
        assert!(out.contains("\"ph\":\"i\""));
        assert!(out.contains("\"clugpMetrics\":{\"recoveries\":1}"));
    }

    #[test]
    fn summary_table_aggregates_per_lane() {
        let mut rec = sample();
        rec.push(
            crate::worker_lane(1),
            Event {
                name: "chunk".into(),
                kind: EventKind::Span,
                ts_us: 60,
                dur_us: 40,
                arg: 1000,
            },
        );
        let table = summary_table(&rec);
        let chunk_line = table
            .lines()
            .find(|l| l.contains("chunk"))
            .expect("chunk row");
        assert!(chunk_line.contains("worker 1"));
        assert!(chunk_line.contains("2"), "count aggregated: {chunk_line}");
        assert!(chunk_line.contains("5096"), "arg summed: {chunk_line}");
    }
}
