//! Golden tests pinning the JSON archive format byte-for-byte.
//!
//! The pretty output of [`beff_report::to_json`] is what EXPERIMENTS.md
//! and archived runs store; it must match what the serde_json-based
//! implementation produced (2-space indent, `": "` separators, field
//! order = declaration order, floats in ryu's shortest decimal form).
//! If one of these tests fails, the archive format changed — bump it
//! deliberately, never by accident.

use beff_core::beff::{ring_sizes, BeffResult, ExtraResult, PatternResult};
use beff_core::beffio::{
    AccessMethod, BeffIoResult, MethodRun, PatternDetail, PatternType, TypeRun,
};

fn small_beff() -> BeffResult {
    BeffResult {
        nprocs: 2,
        mem_per_proc: 1_048_576,
        lmax: 4096,
        sizes: vec![1, 4096],
        patterns: vec![
            PatternResult {
                name: "ring-2".into(),
                random: false,
                ring_sizes: ring_sizes(2, 2),
                curve: vec![10.0, 20.5],
            },
            PatternResult {
                name: "random".into(),
                random: true,
                ring_sizes: ring_sizes(2, 2),
                curve: vec![1.5, 4.0],
            },
        ],
        beff: 8.0,
        beff_per_proc: 4.0,
        beff_at_lmax: 9.0,
        beff_per_proc_at_lmax: 4.5,
        ring_per_proc_at_lmax: 10.25,
        pingpong_mbps: 330.0,
        extras: vec![ExtraResult { name: "ping-pong".into(), mbps: 330.0 }],
    }
}

#[test]
fn beff_result_pretty_json_is_pinned() {
    let expected = r#"{
  "nprocs": 2,
  "mem_per_proc": 1048576,
  "lmax": 4096,
  "sizes": [
    1,
    4096
  ],
  "patterns": [
    {
      "name": "ring-2",
      "random": false,
      "ring_sizes": [
        2
      ],
      "curve": [
        10.0,
        20.5
      ]
    },
    {
      "name": "random",
      "random": true,
      "ring_sizes": [
        2
      ],
      "curve": [
        1.5,
        4.0
      ]
    }
  ],
  "beff": 8.0,
  "beff_per_proc": 4.0,
  "beff_at_lmax": 9.0,
  "beff_per_proc_at_lmax": 4.5,
  "ring_per_proc_at_lmax": 10.25,
  "pingpong_mbps": 330.0,
  "extras": [
    {
      "name": "ping-pong",
      "mbps": 330.0
    }
  ]
}"#;
    assert_eq!(beff_report::to_json(&small_beff()), expected);
}

fn small_beff_io() -> BeffIoResult {
    BeffIoResult {
        nprocs: 2,
        t_sched: 30.0,
        mpart: 2_097_152,
        segment: 1_048_576,
        methods: vec![MethodRun {
            method: AccessMethod::InitialWrite,
            types: vec![TypeRun {
                ptype: PatternType::Scatter,
                open_close_secs: 1.25,
                bytes: 1_048_576,
                patterns: vec![PatternDetail {
                    id: 0,
                    chunk_label: "1MB".into(),
                    chunk_bytes: 1_048_576,
                    reps: 8,
                    bytes: 1_048_576,
                    secs: 0.5,
                }],
            }],
        }],
        beff_io: 0.8,
    }
}

#[test]
fn beff_io_result_pretty_json_is_pinned() {
    let expected = r#"{
  "nprocs": 2,
  "t_sched": 30.0,
  "mpart": 2097152,
  "segment": 1048576,
  "methods": [
    {
      "method": "InitialWrite",
      "types": [
        {
          "ptype": "Scatter",
          "open_close_secs": 1.25,
          "bytes": 1048576,
          "patterns": [
            {
              "id": 0,
              "chunk_label": "1MB",
              "chunk_bytes": 1048576,
              "reps": 8,
              "bytes": 1048576,
              "secs": 0.5
            }
          ]
        }
      ]
    }
  ],
  "beff_io": 0.8
}"#;
    assert_eq!(beff_report::to_json(&small_beff_io()), expected);
}

#[test]
fn empty_containers_print_compact() {
    let r = BeffIoResult { methods: vec![], beff_io: 0.0, ..small_beff_io() };
    let text = beff_report::to_json(&r);
    assert!(text.contains("\"methods\": []"), "{text}");
    assert!(text.contains("\"beff_io\": 0.0"), "{text}");
}
