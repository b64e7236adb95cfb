//! `write_f64` against the allocating formatter it replaced: the `{:e}`
//! text and the digit string each built in a heap `String`. Both must
//! lay every float out byte for byte alike — drawn bit patterns (every
//! exponent, subnormals, both signs, NaN payloads) and the named edges
//! of the layout: the two zeros, the smallest subnormal, the limits of
//! the plain-decimal window at 1e-5 and 1e16, and integers.

use beff_check::{check_n, Gen};
use std::fmt::Write as _;

/// The formatter as it stood, `expect`s spelled as `let … else`.
fn reference(f: f64, out: &mut String) {
    if !f.is_finite() {
        out.push_str("null");
        return;
    }
    let sci = format!("{f:e}");
    let Some((mantissa, exp)) = sci.split_once('e') else { panic!("{{:e}} has an exponent") };
    let Ok(exp) = exp.parse::<i32>() else { panic!("{{:e}} exponent is an integer") };
    let (sign, mantissa) = match mantissa.strip_prefix('-') {
        Some(rest) => ("-", rest),
        None => ("", mantissa),
    };
    let digits: String = mantissa.chars().filter(|c| *c != '.').collect();
    let kk = exp + 1;

    out.push_str(sign);
    if !(-5 < kk && kk <= 16) {
        out.push_str(mantissa);
        _ = write!(out, "e{exp}");
    } else if kk <= 0 {
        out.push_str("0.");
        for _ in 0..-kk {
            out.push('0');
        }
        out.push_str(&digits);
    } else if (kk as usize) >= digits.len() {
        out.push_str(&digits);
        for _ in 0..(kk as usize - digits.len()) {
            out.push('0');
        }
        out.push_str(".0");
    } else {
        out.push_str(&digits[..kk as usize]);
        out.push('.');
        out.push_str(&digits[kk as usize..]);
    }
}

fn same_layout(f: f64) {
    let (mut got, mut want) = (String::from("x"), String::from("x"));
    beff_json::write_f64(f, &mut got);
    reference(f, &mut want);
    assert_eq!(got, want, "{f:e} (bits {:#018x})", f.to_bits());
}

#[test]
fn named_edges_match_the_allocating_formatter() {
    let mut edges = vec![
        0.0,
        -0.0,
        5e-324,
        -5e-324,
        f64::MIN_POSITIVE,
        f64::MIN_POSITIVE - 5e-324,
        f64::MAX,
        f64::MIN,
        f64::EPSILON,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        1e16,
        1e16 - 2.0,
        1e16 + 2.0,
        9_999_999_999_999_998.0,
        1e15,
        1e-5,
        1e-6,
        0.000012345,
        0.1,
        1.0 / 3.0,
        1e21,
        1e22,
        1e-7,
        123.456,
        -2.5e-7,
        1.7976931348623157e308,
        2.2250738585072014e-308,
    ];
    // integers, small and up to 2^53 and beyond
    for n in [1u64, 7, 10, 99, 1000, 123_456_789, 1 << 52, 1 << 53, (1 << 53) + 2, u64::MAX] {
        edges.push(n as f64);
        edges.push(-(n as f64));
    }
    // every power of ten the type holds, and its neighbours
    for e in -324..=308 {
        let p: f64 = format!("1e{e}").parse().unwrap_or(0.0);
        edges.extend([p, f64::from_bits(p.to_bits().wrapping_add(1)), -p]);
    }
    edges.into_iter().for_each(same_layout);
}

#[test]
fn drawn_bit_patterns_match_the_allocating_formatter() {
    check_n("write_f64 matches the allocating formatter", 2048, |g: &mut Gen| {
        same_layout(f64::from_bits(g.u64(0..=u64::MAX)));
        // a drawn exponent hits every layout branch, not just the
        // scientific ones uniform bits land in
        let exp = g.i64(-330..=310) as i32;
        let mantissa = g.f64(1.0, 10.0);
        let f = mantissa * 10f64.powi(exp);
        same_layout(if g.bool() { f } else { -f });
        same_layout(f64::from_bits(g.u64(0..=(1 << 52) - 1)));
        same_layout(g.u64(0..=1 << 60) as f64);
    });
}
