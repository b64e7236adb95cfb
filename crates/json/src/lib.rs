//! # beff-json
//!
//! The in-tree JSON layer of the benchmark stack: a small [`Json`]
//! value type, a hand-implemented [`ToJson`] trait that replaces
//! `#[derive(Serialize)]` on every result/config struct, and writers
//! whose output is byte-for-byte the shape `serde_json` produced
//! (field order preserved, same pretty indentation, same shortest
//! round-trip float formatting). Report files generated before and
//! after the registry-dependency removal therefore diff clean.
//!
//! ```
//! use beff_json::{Json, ToJson};
//!
//! struct Point { x: f64, y: u32 }
//! impl ToJson for Point {
//!     fn to_json(&self) -> Json {
//!         Json::object().field("x", &self.x).field("y", &self.y).build()
//!     }
//! }
//!
//! let p = Point { x: 1.5, y: 2 };
//! assert_eq!(beff_json::to_string(&p), r#"{"x":1.5,"y":2}"#);
//! assert_eq!(
//!     beff_json::to_string_pretty(&p),
//!     "{\n  \"x\": 1.5,\n  \"y\": 2\n}"
//! );
//! ```

mod check;
mod fmt;
mod parse;
mod value;

pub use check::{validate, JsonError};
pub use parse::parse;
pub use value::{Json, ObjectBuilder, ToJson};

/// Serialize compactly (no whitespace) — `serde_json::to_string` shape.
pub fn to_string<T: ToJson + ?Sized>(value: &T) -> String {
    let mut out = String::new();
    fmt::write_compact(&value.to_json(), &mut out);
    out
}

/// Serialize with 2-space indentation — `serde_json::to_string_pretty`
/// shape.
pub fn to_string_pretty<T: ToJson + ?Sized>(value: &T) -> String {
    let mut out = String::new();
    fmt::write_pretty(&value.to_json(), 0, &mut out);
    out
}

/// Serialize in **canonical form**: compact, with every object's fields
/// sorted by key bytes, recursively. Structurally equal values produce
/// byte-identical text regardless of field insertion order — the
/// property `beff-serve` relies on to use the serialized job spec as a
/// content-addressed cache key.
pub fn to_canonical<T: ToJson + ?Sized>(value: &T) -> String {
    // A job spec's key, computed once per query, is 80–250 bytes:
    // start past the small growth steps. (The cache stores a clone,
    // which is exactly as long as the key.)
    let mut out = String::with_capacity(128);
    fmt::write_canonical(&value.to_json(), &mut out);
    out
}
