//! Property tests for cache-key canonicalization: the content address
//! of a job must depend on *what* the job is, and on nothing else — not
//! builder call order, not wire field order — while any semantic change
//! (a single seed bit) must change it. The key is written straight from
//! the spec's fields, and must be byte for byte the spec's
//! `beff_json::to_canonical` form, its digest the key's FNV-1a 64 in hex.

use beff_check::{check, Gen};
use beff_faults::FaultSpec;
use beff_json::Json;
use beff_serve::{JobSpec, Schedule};

/// A random valid-shaped spec (machine keys drawn from the catalog
/// names; validity against partition bounds is irrelevant to keying).
fn arbitrary_spec(g: &mut Gen) -> JobSpec {
    let machines = ["t3e", "sr8000-rr", "sr8000-seq", "sr2201", "sx5", "sx4", "ibm-sp"];
    let mut spec = JobSpec::new(machines[g.usize(0..=machines.len() - 1)], g.usize(2..=512));
    if g.bool() {
        spec = spec.with_schedule(Schedule::Paper);
    }
    spec = spec.with_seed(g.u64(0..=u64::MAX)).with_extras(g.bool());
    if g.bool() {
        let mut f = FaultSpec::none(g.u64(0..=u64::MAX));
        f.severity = g.unit_f64();
        f.degrade = g.bool();
        f.flapping = g.bool();
        f.stragglers = g.usize(0..=4);
        f.drops = g.bool();
        f.crashes = g.usize(0..=2);
        f.dead_links = g.usize(0..=2);
        spec = spec.with_fault(f);
    }
    spec
}

/// The spec's wire object with its fields (and any nested fault
/// fields) in a random order.
fn shuffled_wire(g: &mut Gen, spec: &JobSpec) -> Json {
    fn shuffle_obj(g: &mut Gen, v: Json) -> Json {
        match v {
            Json::Obj(mut fields) => {
                for f in &mut fields {
                    f.1 = shuffle_obj(g, std::mem::replace(&mut f.1, Json::Null));
                }
                let order = g.permutation(fields.len());
                let mut slots: Vec<Option<(String, Json)>> = fields.into_iter().map(Some).collect();
                Json::Obj(
                    order
                        .into_iter()
                        .map(|i| slots[i].take().expect("permutation visits each index once"))
                        .collect(),
                )
            }
            other => other,
        }
    }
    shuffle_obj(g, beff_json::ToJson::to_json(spec))
}

#[test]
fn canonical_key_is_field_order_independent() {
    check("canonical_key_is_field_order_independent", |g| {
        let spec = arbitrary_spec(g);
        let a = JobSpec::from_json(&shuffled_wire(g, &spec)).expect("own wire form parses");
        let b = JobSpec::from_json(&shuffled_wire(g, &spec)).expect("own wire form parses");
        assert_eq!(a, spec, "parsing is order-insensitive");
        assert_eq!(
            a.canonical_key(),
            b.canonical_key(),
            "two field orders of one spec must share a cache key"
        );
        assert_eq!(a.key_digest(), spec.key_digest());
    });
}

#[test]
fn canonical_key_survives_a_serialize_parse_cycle() {
    check("canonical_key_survives_a_serialize_parse_cycle", |g| {
        let spec = arbitrary_spec(g);
        let wire = beff_json::to_string(&spec);
        let back = JobSpec::from_json(&beff_json::parse(&wire).expect("own output parses"))
            .expect("own output is a valid spec");
        assert_eq!(spec.canonical_key(), back.canonical_key());
    });
}

#[test]
fn one_seed_bit_misses() {
    check("one_seed_bit_misses", |g| {
        let spec = arbitrary_spec(g);
        let bit = 1u64 << g.u32(0..=63);
        let flipped = spec.clone().with_seed(spec.seed ^ bit);
        assert_ne!(
            spec.canonical_key(),
            flipped.canonical_key(),
            "a one-bit seed change must be a different content address"
        );
    });
}

#[test]
fn one_fault_seed_bit_misses() {
    check("one_fault_seed_bit_misses", |g| {
        let mut spec = arbitrary_spec(g);
        let mut fault = spec.fault.clone().unwrap_or_else(|| FaultSpec::none(g.u64(0..=1 << 40)));
        spec = spec.clone().with_fault(fault.clone());
        let before = spec.canonical_key();
        fault.seed ^= 1u64 << g.u32(0..=63);
        let after = spec.with_fault(fault).canonical_key();
        assert_ne!(before, after, "fault seeds are part of the content address");
    });
}

#[test]
fn distinct_specs_get_distinct_keys() {
    check("distinct_specs_get_distinct_keys", |g| {
        let a = arbitrary_spec(g);
        let b = arbitrary_spec(g);
        if a != b {
            assert_ne!(a.canonical_key(), b.canonical_key());
        } else {
            assert_eq!(a.canonical_key(), b.canonical_key());
        }
    });
}

#[test]
fn fixed_faulted_spec_key_is_pinned() -> Result<(), Box<dyn std::error::Error>> {
    // every field, and all eight fault fields, away from its default:
    // these strings are what caches and journals hold
    let wire = concat!(
        r#"{"machine":"sr2201","procs":16,"schedule":"paper","seed":42,"extras":true,"#,
        r#""fault":{"seed":64023,"severity":0.75,"degrade":true,"flapping":true,"#,
        r#""stragglers":3,"drops":true,"crashes":1,"dead_links":2}}"#
    );
    let spec = JobSpec::from_json(&beff_json::parse(wire)?)?;
    assert_eq!(beff_json::to_string(&spec), wire, "the wire form keeps the field order");
    assert_eq!(
        spec.canonical_key(),
        concat!(
            r#"{"extras":true,"fault":{"crashes":1,"dead_links":2,"degrade":true,"drops":true,"#,
            r#""flapping":true,"seed":64023,"severity":0.75,"stragglers":3},"machine":"sr2201","#,
            r#""procs":16,"schedule":"paper","seed":42}"#
        )
    );
    assert_eq!(spec.key_digest(), "b4f3799dbf42e9a4");
    Ok(())
}

/// Machine strings that need every kind of escape, and text that needs
/// none but is not ASCII, beside the catalog names.
fn machine_name(g: &mut Gen) -> String {
    const PIECES: [&str; 12] =
        ["t3e", "sx4", "\"", "\\", "\n", "\u{0}", "\u{1f}", "\u{7f}", "é", "中", "\u{1F600}", "/"];
    let len = g.usize(0..=8);
    (0..len)
        .map(|_| match g.usize(0..=2) {
            0 => char::from(g.u32(0..=0x1f) as u8).to_string(),
            _ => (*g.choose(&PIECES)).to_string(),
        })
        .collect()
}

/// A severity from the float layout's edges (zero, one, a non-dyadic
/// fraction, the subnormal floor), uniform in range, or any bits at all.
fn severity(g: &mut Gen) -> f64 {
    let edge = *g.choose(&[0.0, -0.0, 1.0, 0.1, 1e-300, 5e-324, 0.75, 1e16, 123.456]);
    match g.usize(0..=2) {
        0 => edge,
        1 => g.unit_f64(),
        _ => f64::from_bits(g.u64(0..=u64::MAX)),
    }
}

/// Every field drawn over its whole range, the fault plan included.
fn any_spec(g: &mut Gen) -> JobSpec {
    let mut spec = JobSpec::new(&machine_name(g), g.usize(0..=usize::MAX))
        .with_seed(g.u64(0..=u64::MAX))
        .with_extras(g.bool());
    if g.bool() {
        spec = spec.with_schedule(Schedule::Paper);
    }
    if g.bool() {
        let mut f = FaultSpec::none(g.u64(0..=u64::MAX));
        f.severity = severity(g);
        f.degrade = g.bool();
        f.flapping = g.bool();
        f.stragglers = g.usize(0..=usize::MAX);
        f.drops = g.bool();
        f.crashes = g.usize(0..=usize::MAX);
        f.dead_links = g.usize(0..=usize::MAX);
        f.io_slow = g.bool();
        spec = spec.with_fault(f);
    }
    spec
}

#[test]
fn canonical_key_is_the_canonical_form_of_the_spec() {
    check("canonical_key_is_the_canonical_form_of_the_spec", |g| {
        let spec = any_spec(g);
        assert_eq!(spec.canonical_key(), beff_json::to_canonical(&spec), "{spec:?}");
    });
}

#[test]
fn canonical_key_is_the_canonical_form_on_the_named_edges() {
    let names = ["t3e", "", "a\"b\\c\n\u{0}\u{1f}", "sx4 é 中 \u{1F600}"];
    for (i, severity) in [0.0, 1.0, 0.1, 1e-300, 5e-324, f64::NAN].into_iter().enumerate() {
        let mut f = FaultSpec::none(u64::MAX);
        f.severity = severity;
        f.stragglers = usize::MAX;
        for spec in [
            JobSpec::new(names[i % names.len()], usize::MAX).with_seed(u64::MAX),
            JobSpec::new(names[i % names.len()], 0).with_seed(0).with_fault(f),
        ] {
            assert_eq!(spec.canonical_key(), beff_json::to_canonical(&spec), "{spec:?}");
        }
    }
}

#[test]
fn digest_is_the_keys_fnv1a64_in_hex() {
    check("digest_is_the_keys_fnv1a64_in_hex", |g| {
        let key = if g.bool() { any_spec(g).canonical_key() } else { machine_name(g) };
        let want = format!("{:016x}", beff_serve::fnv1a64(key.as_bytes()));
        assert_eq!(beff_serve::digest_of(&key), want, "{key:?}");
    });
}

#[test]
fn digest_keeps_its_leading_zeros() {
    assert_eq!(beff_serve::digest_of("k9000"), "00a93efcb6745273");
    assert_eq!(beff_serve::digest_of(""), "cbf29ce484222325");
}
