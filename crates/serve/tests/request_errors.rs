//! The reply to every malformed request, pinned byte for byte. A
//! request is read once, straight from its bytes, and each error keeps
//! its priority: a syntax error anywhere outranks every shape error;
//! the first `op`, `spec` and `specs` members win over later ones;
//! within a spec the last duplicate field wins and the first bad field,
//! in field order, is the one reported. The replies below were taken
//! from the tree-building decoder this reader replaced, and the
//! property at the end holds drawn well-formed requests to a copy of
//! that decoder.

use beff_check::{check_n, Gen};
use beff_faults::FaultSpec;
use beff_json::Json;
use beff_serve::{JobSpec, Schedule, Server, SpecError};
use beff_sim::Workers;

/// The reply a fresh server gives `request`.
fn reply(request: &str) -> String {
    Server::new(Workers::new(1)).handle_frame(request).0
}

/// (what, request, reply)
const CASES: &[(&str, &str, &str)] = &[
    (
        "an empty document",
        r#""#,
        r#"{"error":"bad request JSON: invalid JSON at byte 0: unexpected end of input"}"#,
    ),
    (
        "whitespace only",
        " \t\n ",
        r#"{"error":"bad request JSON: invalid JSON at byte 4: unexpected end of input"}"#,
    ),
    (
        "syntax: a member without its name",
        r#"{"op":"run",}"#,
        r#"{"error":"bad request JSON: invalid JSON at byte 12: expected '\"'"}"#,
    ),
    (
        "syntax: a trailing comma in the spec",
        r#"{"op":"run","spec":{"machine":"t3e","procs":4,}}"#,
        r#"{"error":"bad request JSON: invalid JSON at byte 46: expected '\"'"}"#,
    ),
    (
        "syntax: a missing comma",
        r#"{"op":"run" "spec":{}}"#,
        r#"{"error":"bad request JSON: invalid JSON at byte 12: expected ',' or '}' in object"}"#,
    ),
    (
        "syntax: a leading zero",
        r#"{"op":"run","spec":{"machine":"t3e","procs":04}}"#,
        r#"{"error":"bad request JSON: invalid JSON at byte 45: expected ',' or '}' in object"}"#,
    ),
    (
        "syntax: trailing data",
        r#"{"op":"run","spec":{"machine":"nope","procs":4}} x"#,
        r#"{"error":"bad request JSON: invalid JSON at byte 49: trailing data after the document"}"#,
    ),
    (
        "syntax: a bare decimal point",
        r#"{"op":"run","spec":{"machine":"t3e","procs":4,"seed":1.}}"#,
        r#"{"error":"bad request JSON: invalid JSON at byte 55: expected digits after '.'"}"#,
    ),
    (
        "syntax: a misspelled literal",
        r#"{"op":"run","spec":{"machine":"t3e","procs":4,"extras":tru}}"#,
        r#"{"error":"bad request JSON: invalid JSON at byte 55: misspelled literal"}"#,
    ),
    (
        "syntax: an unpaired surrogate",
        r#"{"op":"run","spec":{"machine":"\ud800","procs":4}}"#,
        r#"{"error":"bad request JSON: invalid JSON at byte 37: unpaired surrogate"}"#,
    ),
    (
        "syntax: a bad escape in a key",
        r#"{"op":"run","spec":{"mach\ine":"t3e"}}"#,
        r#"{"error":"bad request JSON: invalid JSON at byte 26: bad escape sequence"}"#,
    ),
    (
        "syntax: an unterminated string",
        r#"{"op":"run","spec":{"machine":"t3e"#,
        r#"{"error":"bad request JSON: invalid JSON at byte 34: unterminated string"}"#,
    ),
    (
        "syntax: a raw control character",
        "{\"op\":\"ru\u{1}n\"}",
        r#"{"error":"bad request JSON: invalid JSON at byte 9: unescaped control character in string"}"#,
    ),
    (
        "syntax: a comma before the first member",
        r#"{,"op":"stats"}"#,
        r#"{"error":"bad request JSON: invalid JSON at byte 1: expected '\"'"}"#,
    ),
    (
        "syntax: a comma before the first spec field",
        r#"{"op":"run","spec":{,"machine":"t3e","procs":4}}"#,
        r#"{"error":"bad request JSON: invalid JSON at byte 20: expected '\"'"}"#,
    ),
    (
        "syntax: a comma before the first batch item",
        r#"{"op":"batch","specs":[,{"machine":"nope","procs":4}]}"#,
        r#"{"error":"bad request JSON: invalid JSON at byte 23: expected a JSON value"}"#,
    ),
    (
        "syntax: a doubled comma",
        r#"{"op":"run","spec":{"machine":"nope",,"procs":4}}"#,
        r#"{"error":"bad request JSON: invalid JSON at byte 37: expected '\"'"}"#,
    ),
    (
        "syntax: a missing colon",
        r#"{"op":"run","spec":{"machine" "nope","procs":4}}"#,
        r#"{"error":"bad request JSON: invalid JSON at byte 30: expected ':'"}"#,
    ),
    (
        "syntax: an unclosed spec",
        r#"{"op":"run","spec":{"machine":"nope","procs":4}"#,
        r#"{"error":"bad request JSON: invalid JSON at byte 47: expected ',' or '}' in object"}"#,
    ),
    (
        "syntax: a bad value skipped in a later member",
        r#"{"op":"run","spec":{"machine":"nope","procs":4},"id":[1,2,}"#,
        r#"{"error":"bad request JSON: invalid JSON at byte 58: expected a JSON value"}"#,
    ),
    (
        "syntax after a wrongly typed field",
        r#"{"op":"run","spec":{"procs":"x","machine":"t3e"},]"#,
        r#"{"error":"bad request JSON: invalid JSON at byte 49: expected '\"'"}"#,
    ),
    (
        "syntax after an unknown op",
        r#"{"op":"nope","spec":{"sede":1}} }"#,
        r#"{"error":"bad request JSON: invalid JSON at byte 32: trailing data after the document"}"#,
    ),
    (
        "syntax after a document that is no object",
        r#"[1,2"#,
        r#"{"error":"bad request JSON: invalid JSON at byte 4: expected ',' or ']' in array"}"#,
    ),
    ("not an object: an array", r#"[]"#, r#"{"error":"request must be a JSON object"}"#),
    ("not an object: a string", r#""run""#, r#"{"error":"request must be a JSON object"}"#),
    ("not an object: a number", r#"42"#, r#"{"error":"request must be a JSON object"}"#),
    ("not an object: null", r#"null"#, r#"{"error":"request must be a JSON object"}"#),
    ("op missing", r#"{}"#, r#"{"error":"request is missing a string \"op\""}"#),
    (
        "op missing, spec present",
        r#"{"spec":{"machine":"nope","procs":4}}"#,
        r#"{"error":"request is missing a string \"op\""}"#,
    ),
    ("op not a string", r#"{"op":1}"#, r#"{"error":"request is missing a string \"op\""}"#),
    (
        "op null",
        r#"{"op":null,"spec":{"machine":"nope","procs":4}}"#,
        r#"{"error":"request is missing a string \"op\""}"#,
    ),
    ("op an object", r#"{"op":{"run":true}}"#, r#"{"error":"request is missing a string \"op\""}"#),
    ("op unknown", r#"{"op":"flush"}"#, r#"{"error":"unknown op \"flush\""}"#),
    (
        "op duplicated: the first, unknown, wins",
        r#"{"op":"nope","op":"stats"}"#,
        r#"{"error":"unknown op \"nope\""}"#,
    ),
    (
        "op duplicated: the first, not a string, wins",
        r#"{"op":1,"op":"stats"}"#,
        r#"{"error":"request is missing a string \"op\""}"#,
    ),
    (
        "op duplicated: the first, stats, wins",
        r#"{"op":"stats","op":"nope"}"#,
        r#"{"cache_hits":0,"cache_misses":0,"entries":0,"partitions_built":0,"partitions_idle":0,"quarantined_worlds":0,"shed_jobs":0}"#,
    ),
    (
        "spec duplicated: the first wins",
        r#"{"op":"run","spec":{"machine":"nope","procs":4},"spec":{"machine":"t3e","procs":100000}}"#,
        r#"{"error":"unknown machine \"nope\" (see beff_machines::catalog)"}"#,
    ),
    (
        "spec duplicated, in the other order",
        r#"{"op":"run","spec":{"machine":"t3e","procs":100000},"spec":{"machine":"nope","procs":4}}"#,
        r#"{"error":"partition of 100000 ranks out of range (2..=512)"}"#,
    ),
    (
        "spec duplicated: a bad first wins",
        r#"{"op":"run","spec":7,"spec":{"machine":"nope","procs":4}}"#,
        r#"{"error":"malformed spec: spec must be a JSON object"}"#,
    ),
    (
        "spec duplicated: a bad second is passed over",
        r#"{"op":"run","spec":{"machine":"nope","procs":4},"spec":[1,{"sede":2}]}"#,
        r#"{"error":"unknown machine \"nope\" (see beff_machines::catalog)"}"#,
    ),
    (
        "spec before op",
        r#"{"spec":{"machine":"nope","procs":4},"op":"run"}"#,
        r#"{"error":"unknown machine \"nope\" (see beff_machines::catalog)"}"#,
    ),
    (
        "spec and op duplicated, spec first",
        r#"{"spec":{"machine":"nope","procs":4},"op":"run","spec":{},"op":"stats"}"#,
        r#"{"error":"unknown machine \"nope\" (see beff_machines::catalog)"}"#,
    ),
    ("spec missing", r#"{"op":"run"}"#, r#"{"error":"\"run\" request is missing \"spec\""}"#),
    (
        "spec missing, specs present",
        r#"{"op":"run","specs":[{"machine":"nope","procs":4}]}"#,
        r#"{"error":"\"run\" request is missing \"spec\""}"#,
    ),
    (
        "spec not an object",
        r#"{"op":"run","spec":["t3e",4]}"#,
        r#"{"error":"malformed spec: spec must be a JSON object"}"#,
    ),
    (
        "spec field duplicated: the last wins",
        r#"{"op":"run","spec":{"machine":"t3e","procs":4,"machine":"nope"}}"#,
        r#"{"error":"unknown machine \"nope\" (see beff_machines::catalog)"}"#,
    ),
    (
        "spec field duplicated: a bad last wins",
        r#"{"op":"run","spec":{"procs":4,"machine":"nope","procs":"4"}}"#,
        r#"{"error":"malformed spec: procs must be a non-negative integer"}"#,
    ),
    (
        "spec missing machine",
        r#"{"op":"run","spec":{"procs":4}}"#,
        r#"{"error":"malformed spec: spec is missing \"machine\""}"#,
    ),
    (
        "spec missing procs",
        r#"{"op":"run","spec":{"machine":"nope"}}"#,
        r#"{"error":"malformed spec: spec is missing \"procs\""}"#,
    ),
    (
        "spec missing both",
        r#"{"op":"run","spec":{}}"#,
        r#"{"error":"malformed spec: spec is missing \"machine\""}"#,
    ),
    (
        "an unknown field before a wrongly typed one",
        r#"{"op":"run","spec":{"sede":1,"procs":"4","machine":"t3e"}}"#,
        r#"{"error":"malformed spec: unknown spec field \"sede\""}"#,
    ),
    (
        "a wrongly typed field before an unknown one",
        r#"{"op":"run","spec":{"procs":"4","sede":1,"machine":"t3e"}}"#,
        r#"{"error":"malformed spec: procs must be a non-negative integer"}"#,
    ),
    (
        "wrong type: machine",
        r#"{"op":"run","spec":{"machine":4,"procs":4}}"#,
        r#"{"error":"malformed spec: machine must be a string"}"#,
    ),
    (
        "wrong type: procs a string",
        r#"{"op":"run","spec":{"machine":"t3e","procs":"4"}}"#,
        r#"{"error":"malformed spec: procs must be a non-negative integer"}"#,
    ),
    (
        "wrong type: procs negative",
        r#"{"op":"run","spec":{"machine":"t3e","procs":-1}}"#,
        r#"{"error":"malformed spec: procs must be a non-negative integer"}"#,
    ),
    (
        "wrong type: procs 2.0",
        r#"{"op":"run","spec":{"machine":"t3e","procs":2.0}}"#,
        r#"{"error":"malformed spec: procs must be a non-negative integer"}"#,
    ),
    (
        "wrong type: procs an array",
        r#"{"op":"run","spec":{"machine":"t3e","procs":[4]}}"#,
        r#"{"error":"malformed spec: procs must be a non-negative integer"}"#,
    ),
    (
        "wrong type: procs 1e400",
        r#"{"op":"run","spec":{"machine":"t3e","procs":1e400}}"#,
        r#"{"error":"malformed spec: procs must be a non-negative integer"}"#,
    ),
    (
        "wrong type: schedule",
        r#"{"op":"run","spec":{"machine":"t3e","procs":4,"schedule":1}}"#,
        r#"{"error":"malformed spec: schedule must be a string"}"#,
    ),
    (
        "wrong value: schedule",
        r#"{"op":"run","spec":{"machine":"t3e","procs":4,"schedule":"slow\n"}}"#,
        r#"{"error":"malformed spec: schedule must be \"quick\" or \"paper\", got \"slow\\n\""}"#,
    ),
    (
        "wrong type: seed",
        r#"{"op":"run","spec":{"machine":"t3e","procs":4,"seed":true}}"#,
        r#"{"error":"malformed spec: seed must be a non-negative integer"}"#,
    ),
    (
        "wrong type: seed above u64::MAX",
        r#"{"op":"run","spec":{"machine":"t3e","procs":4,"seed":18446744073709551616}}"#,
        r#"{"error":"malformed spec: seed must be a non-negative integer"}"#,
    ),
    (
        "wrong type: extras",
        r#"{"op":"run","spec":{"machine":"t3e","procs":4,"extras":"yes"}}"#,
        r#"{"error":"malformed spec: extras must be a boolean"}"#,
    ),
    (
        "wrong type: fault a number",
        r#"{"op":"run","spec":{"machine":"t3e","procs":4,"fault":3}}"#,
        r#"{"error":"malformed spec: fault must be a JSON object or null"}"#,
    ),
    (
        "wrong type: fault an array",
        r#"{"op":"run","spec":{"machine":"t3e","procs":4,"fault":[{}]}}"#,
        r#"{"error":"malformed spec: fault must be a JSON object or null"}"#,
    ),
    (
        "wrong type: fault.seed",
        r#"{"op":"run","spec":{"machine":"t3e","procs":4,"fault":{"seed":-1}}}"#,
        r#"{"error":"malformed spec: fault.seed must be a non-negative integer"}"#,
    ),
    (
        "wrong type: fault.severity",
        r#"{"op":"run","spec":{"machine":"t3e","procs":4,"fault":{"severity":"x"}}}"#,
        r#"{"error":"malformed spec: fault.severity must be a number"}"#,
    ),
    (
        "wrong type: fault.degrade",
        r#"{"op":"run","spec":{"machine":"t3e","procs":4,"fault":{"degrade":1}}}"#,
        r#"{"error":"malformed spec: fault.degrade must be a boolean"}"#,
    ),
    (
        "wrong type: fault.flapping",
        r#"{"op":"run","spec":{"machine":"t3e","procs":4,"fault":{"flapping":null}}}"#,
        r#"{"error":"malformed spec: fault.flapping must be a boolean"}"#,
    ),
    (
        "wrong type: fault.stragglers",
        r#"{"op":"run","spec":{"machine":"t3e","procs":4,"fault":{"stragglers":1.5}}}"#,
        r#"{"error":"malformed spec: fault.stragglers must be a non-negative integer"}"#,
    ),
    (
        "wrong type: fault.drops",
        r#"{"op":"run","spec":{"machine":"t3e","procs":4,"fault":{"drops":"no"}}}"#,
        r#"{"error":"malformed spec: fault.drops must be a boolean"}"#,
    ),
    (
        "wrong type: fault.crashes",
        r#"{"op":"run","spec":{"machine":"t3e","procs":4,"fault":{"crashes":[]}}}"#,
        r#"{"error":"malformed spec: fault.crashes must be a non-negative integer"}"#,
    ),
    (
        "wrong type: fault.dead_links",
        r#"{"op":"run","spec":{"machine":"t3e","procs":4,"fault":{"dead_links":{"n":1}}}}"#,
        r#"{"error":"malformed spec: fault.dead_links must be a non-negative integer"}"#,
    ),
    (
        "an unknown fault field",
        r#"{"op":"run","spec":{"machine":"t3e","procs":4,"fault":{"io_slow":true}}}"#,
        r#"{"error":"malformed spec: unknown fault field \"io_slow\""}"#,
    ),
    (
        "a bad fault field, then a bad spec field",
        r#"{"op":"run","spec":{"fault":{"seed":1,"drops":0},"procs":"x"}}"#,
        r#"{"error":"malformed spec: fault.drops must be a boolean"}"#,
    ),
    (
        "fault null",
        r#"{"op":"run","spec":{"machine":"t3e","procs":100000,"fault":null}}"#,
        r#"{"error":"partition of 100000 ranks out of range (2..=512)"}"#,
    ),
    (
        "fault severity out of range",
        r#"{"op":"run","spec":{"fault":{"severity":2.0,"seed":3},"machine":"t3e","procs":4}}"#,
        r#"{"error":"fault severity 2 out of range (0.0..=1.0)"}"#,
    ),
    (
        "fault severity past the float range",
        r#"{"op":"run","spec":{"machine":"t3e","procs":4,"fault":{"severity":1e400}}}"#,
        r#"{"error":"fault severity inf out of range (0.0..=1.0)"}"#,
    ),
    (
        "fault severity -0",
        r#"{"op":"run","spec":{"machine":"t3e","procs":100000,"fault":{"severity":-0}}}"#,
        r#"{"error":"partition of 100000 ranks out of range (2..=512)"}"#,
    ),
    (
        "fault malformed",
        r#"{"op":"run","spec":{"machine":"t3e","procs":4,"fault":{"seed":1,}}}"#,
        r#"{"error":"bad request JSON: invalid JSON at byte 64: expected '\"'"}"#,
    ),
    (
        "fault duplicated: null last",
        r#"{"op":"run","spec":{"machine":"t3e","procs":100000,"fault":{"severity":2.0},"fault":null}}"#,
        r#"{"error":"partition of 100000 ranks out of range (2..=512)"}"#,
    ),
    (
        "escaped keys, op and machine name",
        r#"{"\u006fp":"r\u0075n","sp\u0065c":{"m\u0061chine":"\u0074\u0033e","pro\u0063s":100000}}"#,
        r#"{"error":"partition of 100000 ranks out of range (2..=512)"}"#,
    ),
    (
        "an unknown machine that needs escapes",
        r#"{"op":"run","spec":{"machine":"t3e\"\\\n\u00e9\ud83d\ude00","procs":4}}"#,
        r#"{"error":"unknown machine \"t3e\\\"\\\\\\né😀\" (see beff_machines::catalog)"}"#,
    ),
    (
        "procs -0",
        r#"{"op":"run","spec":{"machine":"t3e","procs":-0}}"#,
        r#"{"error":"partition of 0 ranks out of range (2..=512)"}"#,
    ),
    (
        "a partition off the node granularity",
        r#"{"op":"run","spec":{"machine":"sr8000-rr","procs":12}}"#,
        r#"{"error":"partition of 12 ranks is not a multiple of 8 procs/node"}"#,
    ),
    (
        "whitespace everywhere",
        " { \"op\" : \"run\" ,\t\"spec\" :\r\n{ \"machine\" : \"nope\" , \"procs\" : 4 } } \n",
        r#"{"error":"unknown machine \"nope\" (see beff_machines::catalog)"}"#,
    ),
    (
        "batch: mixed items",
        r#"{"op":"batch","specs":[{"machine":"nope","procs":4},7,{"procs":"x"},{"machine":"t3e","procs":1},{"machine":"t3e","procs":4,"fault":{"severity":3}}]}"#,
        r#"{"results":[{"error":"unknown machine \"nope\" (see beff_machines::catalog)"},{"error":"malformed spec: spec must be a JSON object"},{"error":"malformed spec: procs must be a non-negative integer"},{"error":"partition of 1 ranks out of range (2..=512)"},{"error":"fault severity 3 out of range (0.0..=1.0)"}]}"#,
    ),
    ("batch: empty", r#"{"op":"batch","specs":[]}"#, r#"{"results":[]}"#),
    (
        "batch: specs missing",
        r#"{"op":"batch","spec":{"machine":"nope","procs":4}}"#,
        r#"{"error":"\"batch\" request is missing a \"specs\" array"}"#,
    ),
    (
        "batch: specs not an array",
        r#"{"op":"batch","specs":{"machine":"nope","procs":4}}"#,
        r#"{"error":"\"batch\" request is missing a \"specs\" array"}"#,
    ),
    (
        "batch: specs duplicated, the first wins",
        r#"{"op":"batch","specs":7,"specs":[]}"#,
        r#"{"error":"\"batch\" request is missing a \"specs\" array"}"#,
    ),
    (
        "batch: specs before op",
        r#"{"specs":[{"machine":"nope","procs":4}],"op":"batch"}"#,
        r#"{"results":[{"error":"unknown machine \"nope\" (see beff_machines::catalog)"}]}"#,
    ),
    (
        "stats passes over spec and specs",
        r#"{"op":"stats","spec":{"sede":1},"specs":[1]}"#,
        r#"{"cache_hits":0,"cache_misses":0,"entries":0,"partitions_built":0,"partitions_idle":0,"quarantined_worlds":0,"shed_jobs":0}"#,
    ),
    ("shutdown", r#"{"op":"shutdown"}"#, r#"{"ok":true}"#),
];

#[test]
fn every_malformed_request_gets_its_reply() {
    assert!(CASES.len() >= 30);
    for (what, request, want) in CASES {
        assert_eq!(reply(request), *want, "{what}: {request}");
    }
}

#[test]
fn nesting_deeper_than_128_is_a_syntax_error_at_its_opener() {
    assert_eq!(
        reply(&"[".repeat(129)),
        r#"{"error":"bad request JSON: invalid JSON at byte 128: nesting deeper than 128 levels"}"#
    );
    // a fault plan opens the third level: 126 nested ones reach 128 and
    // read as a shape error, 127 are a syntax error at the 129th `{`
    let nested = |plans: usize| {
        format!(
            r#"{{"op":"run","spec":{{"fault":{}1{}}}}}"#,
            r#"{"seed":"#.repeat(plans),
            "}".repeat(plans)
        )
    };
    assert_eq!(
        reply(&nested(126)),
        r#"{"error":"malformed spec: fault.seed must be a non-negative integer"}"#
    );
    assert_eq!(
        reply(&nested(127)),
        r#"{"error":"bad request JSON: invalid JSON at byte 1036: nesting deeper than 128 levels"}"#
    );
}

const UNKNOWN: &str = r#"{"error":"unknown machine \"nope\" (see beff_machines::catalog)"}"#;

fn shed(queued: usize) -> String {
    format!(r#"{{"error":"overloaded: admission queue full ({queued}/256); job shed"}}"#)
}

fn batch(items: &[&str]) -> String {
    format!(r#"{{"op":"batch","specs":[{}]}}"#, items.join(","))
}

fn results(items: &[String]) -> String {
    format!(r#"{{"results":[{}]}}"#, items.join(","))
}

#[test]
fn items_past_max_batch_are_shed_unread_but_not_unchecked() {
    let one = r#"{"machine":"nope","procs":4}"#;
    let mut want = vec![UNKNOWN.to_string(); 256];
    want.push(shed(256));
    assert_eq!(reply(&batch(&[one; 257])), results(&want));

    // a shed item is not decoded, whatever its shape ...
    let mut items = vec![r#"{"procs":"x"}"#];
    items.extend([one; 255]);
    items.extend([one, r#"{"sede":1}"#, "7"]);
    let mut want =
        vec![r#"{"error":"malformed spec: procs must be a non-negative integer"}"#.into()];
    want.extend(vec![UNKNOWN.to_string(); 255]);
    want.extend([shed(256), shed(257), shed(258)]);
    assert_eq!(reply(&batch(&items)), results(&want));

    // ... but its syntax is read, and an error there answers the frame
    let mut items = vec![one; 257];
    items.push(r#"[[[{"a":}]]]"#);
    assert_eq!(
        reply(&batch(&items)),
        r#"{"error":"bad request JSON: invalid JSON at byte 7484: expected a JSON value"}"#
    );
}

// ---------------------------------------------------------------------
// The tree-building decoder, as it stood: parse the whole request into
// a `Json` tree, look its members up, and decode each spec from its
// subtree.

fn ref_error_body(message: &str) -> String {
    format!("{{\"error\":{}}}", beff_json::to_string(message))
}

fn ref_outcome_body(outcome: &Result<beff_serve::Outcome, SpecError>) -> String {
    match outcome {
        Ok(o) => {
            let cached = if o.cached { "true" } else { "false" };
            ["{\"cached\":", cached, ",\"digest\":\"", &o.digest, "\",\"result\":", &o.bytes, "}"]
                .concat()
        }
        Err(e) => ref_error_body(&e.to_string()),
    }
}

fn ref_handle_frame(server: &Server, payload: &str) -> String {
    let parsed = match beff_json::parse(payload) {
        Ok(v) => v,
        Err(e) => return ref_error_body(&format!("bad request JSON: {e}")),
    };
    let Json::Obj(fields) = &parsed else {
        return ref_error_body("request must be a JSON object");
    };
    let field = |name: &str| fields.iter().find(|(n, _)| n == name).map(|(_, v)| v);
    let op = match field("op") {
        Some(Json::Str(op)) => op.as_str(),
        _ => return ref_error_body("request is missing a string \"op\""),
    };
    match op {
        "run" => {
            let Some(spec) = field("spec") else {
                return ref_error_body("\"run\" request is missing \"spec\"");
            };
            ref_outcome_body(&ref_spec(spec).and_then(|s| server.submit(&s)))
        }
        "batch" => {
            let Some(Json::Arr(items)) = field("specs") else {
                return ref_error_body("\"batch\" request is missing a \"specs\" array");
            };
            let over = items.len().saturating_sub(256);
            let parsed: Vec<_> = items[..items.len().min(256)].iter().map(ref_spec).collect();
            let valid: Vec<JobSpec> =
                parsed.iter().filter_map(|r| r.as_ref().ok().cloned()).collect();
            let mut answered = server.submit_batch(&valid).into_iter();
            let mut bodies: Vec<String> = parsed
                .iter()
                .map(|r| match r {
                    Ok(_) => match answered.next() {
                        Some(outcome) => ref_outcome_body(&outcome),
                        None => panic!("one outcome per valid spec"),
                    },
                    Err(e) => ref_error_body(&e.to_string()),
                })
                .collect();
            bodies.extend((0..over).map(|i| shed(256 + i)));
            format!("{{\"results\":[{}]}}", bodies.join(","))
        }
        other => ref_error_body(&format!("unknown op {other:?}")),
    }
}

fn malformed(msg: String) -> SpecError {
    SpecError::Malformed(msg)
}

fn ref_str<'a>(v: &'a Json, what: &str) -> Result<&'a str, SpecError> {
    match v {
        Json::Str(s) => Ok(s),
        _ => Err(malformed(format!("{what} must be a string"))),
    }
}

fn ref_u64(v: &Json, what: &str) -> Result<u64, SpecError> {
    match v {
        Json::UInt(n) => Ok(*n),
        Json::Int(n) if *n >= 0 => Ok(*n as u64),
        _ => Err(malformed(format!("{what} must be a non-negative integer"))),
    }
}

fn ref_f64(v: &Json, what: &str) -> Result<f64, SpecError> {
    match v {
        Json::Float(f) => Ok(*f),
        Json::UInt(n) => Ok(*n as f64),
        Json::Int(n) => Ok(*n as f64),
        _ => Err(malformed(format!("{what} must be a number"))),
    }
}

fn ref_bool(v: &Json, what: &str) -> Result<bool, SpecError> {
    match v {
        Json::Bool(b) => Ok(*b),
        _ => Err(malformed(format!("{what} must be a boolean"))),
    }
}

fn ref_spec(v: &Json) -> Result<JobSpec, SpecError> {
    let Json::Obj(fields) = v else {
        return Err(malformed("spec must be a JSON object".into()));
    };
    let mut spec = JobSpec::new("", 0);
    let (mut machine, mut procs) = (None, None);
    for (name, value) in fields {
        match name.as_str() {
            "machine" => machine = Some(ref_str(value, "machine")?.to_string()),
            "procs" => procs = Some(ref_u64(value, "procs")? as usize),
            "schedule" => {
                spec.schedule = match ref_str(value, "schedule")? {
                    "quick" => Schedule::Quick,
                    "paper" => Schedule::Paper,
                    s => {
                        return Err(malformed(format!(
                            "schedule must be \"quick\" or \"paper\", got {s:?}"
                        )))
                    }
                }
            }
            "seed" => spec.seed = ref_u64(value, "seed")?,
            "extras" => spec.extras = ref_bool(value, "extras")?,
            "fault" => match value {
                Json::Null => spec.fault = None,
                other => spec.fault = Some(ref_fault(other)?),
            },
            other => return Err(malformed(format!("unknown spec field {other:?}"))),
        }
    }
    spec.machine = machine.ok_or_else(|| malformed("spec is missing \"machine\"".into()))?;
    spec.procs = procs.ok_or_else(|| malformed("spec is missing \"procs\"".into()))?;
    Ok(spec)
}

fn ref_fault(v: &Json) -> Result<FaultSpec, SpecError> {
    let Json::Obj(fields) = v else {
        return Err(malformed("fault must be a JSON object or null".into()));
    };
    let mut f = FaultSpec::none(0);
    for (name, value) in fields {
        match name.as_str() {
            "seed" => f.seed = ref_u64(value, "fault.seed")?,
            "severity" => f.severity = ref_f64(value, "fault.severity")?,
            "degrade" => f.degrade = ref_bool(value, "fault.degrade")?,
            "flapping" => f.flapping = ref_bool(value, "fault.flapping")?,
            "stragglers" => f.stragglers = ref_u64(value, "fault.stragglers")? as usize,
            "drops" => f.drops = ref_bool(value, "fault.drops")?,
            "crashes" => f.crashes = ref_u64(value, "fault.crashes")? as usize,
            "dead_links" => f.dead_links = ref_u64(value, "fault.dead_links")? as usize,
            other => return Err(malformed(format!("unknown fault field {other:?}"))),
        }
    }
    Ok(f)
}

// ---------------------------------------------------------------------
// Drawn well-formed requests.

/// Whitespace, or none.
fn ws(g: &mut Gen) -> &'static str {
    const SPACES: [&str; 7] = ["", "", "", " ", "\n  ", "\t", " \r\n "];
    SPACES[g.usize(0..=SPACES.len() - 1)]
}

/// `s` as a string literal, each character spelled raw or as `\uXXXX`
/// at random (escaped characters always as an escape).
fn string(g: &mut Gen, s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        if matches!(c, '"' | '\\') || u32::from(c) < 0x20 || g.weighted(0.15) {
            let mut units = [0u16; 2];
            for unit in c.encode_utf16(&mut units) {
                out.push_str(&format!("\\u{unit:04x}"));
            }
        } else {
            out.push(c);
        }
    }
    out.push('"');
    out
}

/// An object of `members` (name, value text), shuffled, with spaces.
fn object(g: &mut Gen, mut members: Vec<(String, String)>) -> String {
    g.shuffle(&mut members);
    let body: Vec<String> = members
        .iter()
        .map(|(name, value)| {
            let (a, b, c, d) = (ws(g), ws(g), ws(g), ws(g));
            format!("{a}{}{b}:{c}{value}{d}", string(g, name))
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

/// A value text that is `good` or, now and then, a decoy of another
/// shape; a decoy placed before the real value is overwritten by it.
fn decoy(g: &mut Gen) -> String {
    g.choose(&["1", "-3", "0.5", "true", "null", "\"quick\"", "[1,{\"a\":2}]", "{}"]).to_string()
}

/// Wire members of a spec: mostly well-typed, with duplicates placed
/// before the field they shadow; sometimes a wrong type or an unknown
/// field.
fn spec_members(g: &mut Gen) -> Vec<(String, String)> {
    let machine = match g.usize(0..=5) {
        0 => "nope",
        1 => "t3e\"\\",
        _ => "t3e",
    };
    let procs = *g.choose(&["2", "2", "2", "-0", "3", "100000", "2.0", "18446744073709551616"]);
    let mut m = vec![("machine".to_string(), string(g, machine)), ("procs".into(), procs.into())];
    if g.bool() {
        let schedule = if g.weighted(0.9) { "quick" } else { "slow" };
        m.push(("schedule".into(), string(g, schedule)));
    }
    if g.bool() {
        m.push(("seed".into(), g.u64(1..=2).to_string()));
    }
    if g.bool() {
        m.push(("extras".into(), g.bool().to_string()));
    }
    match g.usize(0..=3) {
        0 => m.push(("fault".into(), "null".into())),
        1 => {
            let mut f =
                vec![("severity".to_string(), g.choose(&["0.5", "0", "-0", "2.0"]).to_string())];
            if g.bool() {
                f.push(("seed".into(), "1".into()));
            }
            if g.weighted(0.2) {
                f.push((g.choose(&["degrade", "drops", "io_slow"]).to_string(), "1".into()));
            }
            let fault = object(g, f);
            m.push(("fault".into(), fault));
        }
        _ => {}
    }
    if g.weighted(0.1) {
        m.push(("sede".into(), "1".into()));
    }
    // duplicates: a decoy of the same name that the shuffle may put
    // after the real field (where it wins) or before it
    if g.weighted(0.3) {
        let name = m[g.usize(0..=m.len() - 1)].0.clone();
        m.push((name, decoy(g)));
    }
    m
}

fn request(g: &mut Gen) -> String {
    let mut members = Vec::new();
    let op = *g.choose(&["run", "run", "run", "batch", "batch", "flush", ""]);
    if !op.is_empty() {
        members.push(("op".to_string(), string(g, op)));
    }
    let spec = spec_members(g);
    members.push(("spec".into(), object(g, spec)));
    let specs: Vec<String> = (0..g.usize(0..=3))
        .map(|_| {
            let m = spec_members(g);
            object(g, m)
        })
        .collect();
    members.push(("specs".into(), format!("[{}]", specs.join(","))));
    if g.weighted(0.3) {
        members.push(("id".into(), "[1,{\"op\":\"x\"},null]".into()));
    }
    if g.weighted(0.2) {
        let name = *g.choose(&["op", "spec", "specs"]);
        members.push((name.into(), decoy(g)));
    }
    let text = object(g, members);
    format!("{}{text}{}", ws(g), ws(g))
}

#[test]
fn drawn_requests_get_the_tree_decoders_reply() {
    let server = Server::new(Workers::new(1));
    check_n("handle_frame matches the tree-building decoder", 256, |g: &mut Gen| {
        let request = request(g);
        // the first answer may run a simulation; the second is the one
        // compared, every valid spec in it a hit for both decoders
        server.handle_frame(&request);
        let (got, _) = server.handle_frame(&request);
        assert_eq!(got, ref_handle_frame(&server, &request), "{request}");
        // `JobSpec::from_json` reads a tree through the same decoder
        let Ok(Json::Obj(members)) = beff_json::parse(&request) else { panic!("well-formed") };
        for (name, value) in &members {
            let specs = match (name.as_str(), value) {
                ("spec", spec) => std::slice::from_ref(spec),
                ("specs", Json::Arr(items)) => items.as_slice(),
                _ => &[],
            };
            for spec in specs {
                assert_eq!(JobSpec::from_json(spec), ref_spec(spec), "{request}");
            }
        }
    });
}
