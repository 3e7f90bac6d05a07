//! Golden-file round-trip tests for the trace exporters: the Chrome JSON
//! and CSV formats are parsed back (by structural string scanning — the
//! formats are flat and hand-assembled, so no JSON library is needed) and
//! checked for event count, ordering, and field stability.

use openmx_core::driver::RegionId;
use openmx_core::engine::ProcId;
use openmx_core::obs::{chrome_spans_json, chrome_trace_json, csv, Tracer};
use openmx_core::obs::{TraceEvent, TraceRecord};
use openmx_core::wire::MsgId;
use simcore::SimTime;

fn rec(ns: u64, node: usize, proc: Option<u32>, event: TraceEvent) -> TraceRecord {
    TraceRecord {
        time: SimTime::from_nanos(ns),
        node,
        proc: proc.map(ProcId),
        event,
    }
}

/// A small fixed tracer used by every test in this file.
fn fixture() -> Tracer {
    let mut t = Tracer::enabled(16);
    t.record(rec(
        1_000,
        0,
        Some(0),
        TraceEvent::RndvTx {
            msg: MsgId(1),
            len: 4096,
        },
    ));
    t.record(rec(
        2_000,
        1,
        Some(1),
        TraceEvent::RndvRx {
            msg: MsgId(1),
            len: 4096,
        },
    ));
    t.record(rec(
        2_500,
        1,
        None,
        TraceEvent::PinStart {
            region: RegionId(3),
            target_pages: 1,
        },
    ));
    t.record(rec(
        3_000,
        1,
        None,
        TraceEvent::PinComplete {
            region: RegionId(3),
            cursor_pages: 1,
        },
    ));
    t.record(rec(
        4_000,
        0,
        Some(0),
        TraceEvent::SendDone { msg: MsgId(1) },
    ));
    t
}

/// The exact serialized forms — any accidental format change (key rename,
/// ordering change, stamp move) trips these goldens.
#[test]
fn golden_chrome_json() {
    let json = chrome_trace_json(&fixture());
    let expected = concat!(
        "{\"traceEvents\":[",
        "{\"name\":\"rndv_tx\",\"ph\":\"i\",\"s\":\"t\",\"ts\":1.000,\"pid\":0,\"tid\":1,\"args\":{\"detail\":\"msg 1 len 4096\"}},",
        "{\"name\":\"rndv_rx\",\"ph\":\"i\",\"s\":\"t\",\"ts\":2.000,\"pid\":1,\"tid\":2,\"args\":{\"detail\":\"msg 1 len 4096\"}},",
        "{\"name\":\"pin\",\"ph\":\"X\",\"ts\":2.500,\"dur\":0.500,\"pid\":1,\"tid\":0,\"args\":{\"region\":3,\"cursor_pages\":1}},",
        "{\"name\":\"send_done\",\"ph\":\"i\",\"s\":\"t\",\"ts\":4.000,\"pid\":0,\"tid\":1,\"args\":{\"detail\":\"msg 1\"}}",
        "],\"otherData\":{\"dropped_events\":\"0\"}}",
    );
    assert_eq!(json, expected);
}

#[test]
fn golden_csv() {
    let text = csv(&fixture());
    let expected = "time_ns,node,proc,kind,detail\n\
                    1000,0,0,rndv_tx,\"msg 1 len 4096\"\n\
                    2000,1,1,rndv_rx,\"msg 1 len 4096\"\n\
                    2500,1,,pin_start,\"region 3 target 1 pages\"\n\
                    3000,1,,pin_complete,\"region 3 cursor 1 pages\"\n\
                    4000,0,0,send_done,\"msg 1\"\n\
                    # dropped_events=0\n";
    assert_eq!(text, expected);
}

/// Parse the Chrome JSON back: one object per `{"name":...}` occurrence,
/// timestamps non-decreasing within each emission order, and the pin
/// start/complete pair collapsed into exactly one `ph:"X"` span.
#[test]
fn chrome_json_round_trip() {
    let t = fixture();
    let json = chrome_trace_json(&t);

    let names: Vec<&str> = json
        .match_indices("\"name\":\"")
        .map(|(i, pat)| {
            let rest = &json[i + pat.len()..];
            &rest[..rest.find('"').unwrap()]
        })
        .collect();
    // 5 records − the pin pair collapsed into one span = 4 events.
    assert_eq!(names, vec!["rndv_tx", "rndv_rx", "pin", "send_done"]);

    let ts: Vec<f64> = json
        .match_indices("\"ts\":")
        .map(|(i, pat)| {
            let rest = &json[i + pat.len()..];
            let end = rest.find(',').unwrap();
            rest[..end].parse::<f64>().unwrap()
        })
        .collect();
    assert_eq!(ts.len(), 4);
    assert!(ts.windows(2).all(|w| w[0] <= w[1]), "ts must be ordered");

    assert_eq!(json.matches("\"ph\":\"X\"").count(), 1);
    assert_eq!(json.matches("\"ph\":\"i\"").count(), 3);
}

/// Parse the CSV back: header + one row per record + the footer; fields
/// split stably on the first four commas; times ordered.
#[test]
fn csv_round_trip() {
    let t = fixture();
    let text = csv(&t);
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 1 + t.len() + 1);
    assert_eq!(lines[0], "time_ns,node,proc,kind,detail");
    assert_eq!(
        *lines.last().unwrap(),
        format!("# dropped_events={}", t.dropped())
    );

    let mut prev_ns = 0u64;
    for (row, orig) in lines[1..lines.len() - 1].iter().zip(t.iter()) {
        let fields: Vec<&str> = row.splitn(5, ',').collect();
        assert_eq!(fields.len(), 5);
        let ns: u64 = fields[0].parse().unwrap();
        assert_eq!(ns, orig.time.as_nanos());
        assert!(ns >= prev_ns);
        prev_ns = ns;
        assert_eq!(fields[1].parse::<usize>().unwrap(), orig.node);
        match orig.proc {
            Some(p) => assert_eq!(fields[2].parse::<u32>().unwrap(), p.0),
            None => assert!(fields[2].is_empty()),
        }
        assert_eq!(fields[3], orig.kind());
        assert_eq!(
            fields[4],
            format!("\"{}\"", orig.detail().replace('"', "\"\""))
        );
    }
}

/// The span exporter's B/E events must nest: per pid, every B has a
/// matching E on the same tid, and B precedes E in stream order.
#[test]
fn span_chrome_json_b_e_nesting() {
    let t = fixture();
    let spans = openmx_core::obs::build_spans(&t);
    assert_eq!(spans.len(), 1);
    let json = chrome_spans_json(&spans);

    let mut open: Vec<String> = Vec::new();
    for (i, pat) in json.match_indices("\"ph\":\"") {
        let ph = &json[i + pat.len()..i + pat.len() + 1];
        // Walk back to this object's start to grab its name.
        let obj_start = json[..i].rfind('{').unwrap();
        let obj = &json[obj_start..];
        let k = obj.find("\"name\":\"").unwrap();
        let rest = &obj[k + 8..];
        let name = rest[..rest.find('"').unwrap()].to_string();
        match ph {
            "B" => open.push(name),
            "E" => {
                let top = open.pop().expect("E without open B");
                assert_eq!(top, name, "B/E must nest LIFO");
            }
            _ => {} // metadata
        }
    }
    assert!(open.is_empty(), "every B must be closed");
}
