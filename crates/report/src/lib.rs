//! # beff-report
//!
//! Output formatting for the benchmark harness: monospace tables
//! ([`Table`]), pseudo-log ASCII charts ([`Chart`], matching the
//! paper's Fig. 3-5 axes), and JSON dumps of result structures for
//! EXPERIMENTS.md.

pub mod plot;
pub mod skampi;
pub mod table;

pub use plot::{Chart, Series};
pub use skampi::{SkampiBlock, SkampiReport};
pub use table::{Align, Table};

/// Serialize any result structure to pretty JSON (for archiving runs).
pub fn to_json<T: beff_json::ToJson + ?Sized>(value: &T) -> String {
    beff_json::to_string_pretty(value)
}

#[cfg(test)]
mod tests {
    use beff_json::{Json, ToJson};

    #[test]
    fn json_roundtrip() {
        struct S {
            a: u32,
        }
        impl ToJson for S {
            fn to_json(&self) -> Json {
                Json::object().field("a", &self.a).build()
            }
        }
        assert!(super::to_json(&S { a: 7 }).contains("\"a\": 7"));
    }
}
