//! b_eff_io result types and the weighted averaging of §5.1:
//! pattern-type value = bytes / (close − open); access-method value =
//! average of the five types with the scatter type double-weighted;
//! partition value = 25 % initial write + 25 % rewrite + 50 % read.

use super::patterns::PatternType;
use crate::logavg::weighted_mean;
use beff_json::{Json, ToJson};
use beff_netsim::{Secs, MB};

/// The three access methods.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessMethod {
    InitialWrite,
    Rewrite,
    Read,
}

impl ToJson for AccessMethod {
    fn to_json(&self) -> Json {
        Json::Str(
            match self {
                AccessMethod::InitialWrite => "InitialWrite",
                AccessMethod::Rewrite => "Rewrite",
                AccessMethod::Read => "Read",
            }
            .to_owned(),
        )
    }
}

pub const ACCESS_METHODS: [AccessMethod; 3] =
    [AccessMethod::InitialWrite, AccessMethod::Rewrite, AccessMethod::Read];

impl AccessMethod {
    pub fn name(&self) -> &'static str {
        match self {
            AccessMethod::InitialWrite => "initial write",
            AccessMethod::Rewrite => "rewrite",
            AccessMethod::Read => "read",
        }
    }

    pub fn is_write(&self) -> bool {
        !matches!(self, AccessMethod::Read)
    }

    /// Weight in the partition value.
    pub fn weight(&self) -> f64 {
        match self {
            AccessMethod::InitialWrite | AccessMethod::Rewrite => 0.25,
            AccessMethod::Read => 0.5,
        }
    }
}

/// Measured detail of one pattern (one Fig. 4 data point).
#[derive(Debug, Clone)]
pub struct PatternDetail {
    pub id: usize,
    pub chunk_label: String,
    pub chunk_bytes: u64,
    /// Repetitions (max over ranks).
    pub reps: u64,
    /// Bytes moved, summed over ranks.
    pub bytes: u64,
    /// Elapsed seconds (max over ranks).
    pub secs: Secs,
}

impl ToJson for PatternDetail {
    fn to_json(&self) -> Json {
        Json::object()
            .field("id", &self.id)
            .field("chunk_label", &self.chunk_label)
            .field("chunk_bytes", &self.chunk_bytes)
            .field("reps", &self.reps)
            .field("bytes", &self.bytes)
            .field("secs", &self.secs)
            .build()
    }
}

impl PatternDetail {
    pub fn mbps(&self) -> f64 {
        if self.secs <= 0.0 {
            0.0
        } else {
            self.bytes as f64 / MB as f64 / self.secs
        }
    }
}

/// Results of one pattern type under one access method.
#[derive(Debug, Clone)]
pub struct TypeRun {
    pub ptype: PatternType,
    /// open-to-close wall time (max over ranks).
    pub open_close_secs: Secs,
    /// Total bytes over all ranks and patterns.
    pub bytes: u64,
    pub patterns: Vec<PatternDetail>,
}

impl ToJson for TypeRun {
    fn to_json(&self) -> Json {
        Json::object()
            .field("ptype", &self.ptype)
            .field("open_close_secs", &self.open_close_secs)
            .field("bytes", &self.bytes)
            .field("patterns", &self.patterns)
            .build()
    }
}

impl TypeRun {
    /// "total number of transferred bytes divided by the total amount
    /// of time from opening till closing the file".
    pub fn mbps(&self) -> f64 {
        if self.open_close_secs <= 0.0 {
            0.0
        } else {
            self.bytes as f64 / MB as f64 / self.open_close_secs
        }
    }
}

/// One access method over all five types.
#[derive(Debug, Clone)]
pub struct MethodRun {
    pub method: AccessMethod,
    pub types: Vec<TypeRun>,
}

impl ToJson for MethodRun {
    fn to_json(&self) -> Json {
        Json::object()
            .field("method", &self.method)
            .field("types", &self.types)
            .build()
    }
}

impl MethodRun {
    /// Average of the pattern types, scatter double-weighted.
    pub fn value(&self) -> f64 {
        let pairs: Vec<(f64, f64)> = self
            .types
            .iter()
            .map(|t| {
                let w = if t.ptype == PatternType::Scatter { 2.0 } else { 1.0 };
                (t.mbps(), w)
            })
            .collect();
        weighted_mean(&pairs)
    }
}

/// A complete b_eff_io run on one partition.
#[derive(Debug, Clone)]
pub struct BeffIoResult {
    pub nprocs: usize,
    /// Scheduled time T in seconds.
    pub t_sched: Secs,
    pub mpart: u64,
    /// Segment size used by the segmented types.
    pub segment: u64,
    pub methods: Vec<MethodRun>,
    /// The partition's b_eff_io value in MByte/s.
    pub beff_io: f64,
}

impl ToJson for BeffIoResult {
    fn to_json(&self) -> Json {
        Json::object()
            .field("nprocs", &self.nprocs)
            .field("t_sched", &self.t_sched)
            .field("mpart", &self.mpart)
            .field("segment", &self.segment)
            .field("methods", &self.methods)
            .field("beff_io", &self.beff_io)
            .build()
    }
}

impl BeffIoResult {
    pub fn assemble(
        nprocs: usize,
        t_sched: Secs,
        mpart: u64,
        segment: u64,
        methods: Vec<MethodRun>,
    ) -> Self {
        let pairs: Vec<(f64, f64)> =
            methods.iter().map(|m| (m.value(), m.method.weight())).collect();
        let beff_io = weighted_mean(&pairs);
        Self { nprocs, t_sched, mpart, segment, methods, beff_io }
    }

    /// Value of one access method (None if absent).
    pub fn method_value(&self, m: AccessMethod) -> Option<f64> {
        self.methods.iter().find(|r| r.method == m).map(|r| r.value())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trun(ptype: PatternType, bytes: u64, secs: f64) -> TypeRun {
        TypeRun { ptype, open_close_secs: secs, bytes, patterns: vec![] }
    }

    #[test]
    fn type_value_is_bytes_over_open_close() {
        let t = trun(PatternType::Shared, 100 * MB, 10.0);
        assert!((t.mbps() - 10.0).abs() < 1e-12);
        assert_eq!(trun(PatternType::Shared, 1, 0.0).mbps(), 0.0);
    }

    #[test]
    fn method_value_double_weights_scatter() {
        let m = MethodRun {
            method: AccessMethod::Read,
            types: vec![
                trun(PatternType::Scatter, 60 * MB, 1.0), // 60 MB/s, weight 2
                trun(PatternType::Shared, 30 * MB, 1.0),
                trun(PatternType::Separate, 30 * MB, 1.0),
                trun(PatternType::Segmented, 30 * MB, 1.0),
                trun(PatternType::SegColl, 30 * MB, 1.0),
            ],
        };
        // (2*60 + 30*4) / 6 = 40
        assert!((m.value() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn partition_value_weights_methods_25_25_50() {
        let mk = |method, mbps: u64| MethodRun {
            method,
            types: vec![trun(PatternType::Shared, mbps * MB, 1.0)],
        };
        let r = BeffIoResult::assemble(
            4,
            900.0,
            2 * MB,
            MB,
            vec![
                mk(AccessMethod::InitialWrite, 100),
                mk(AccessMethod::Rewrite, 200),
                mk(AccessMethod::Read, 400),
            ],
        );
        assert!((r.beff_io - (0.25 * 100.0 + 0.25 * 200.0 + 0.5 * 400.0)).abs() < 1e-9);
        assert_eq!(r.method_value(AccessMethod::Read), Some(400.0));
    }

    #[test]
    fn pattern_detail_mbps() {
        let p = PatternDetail {
            id: 3,
            chunk_label: "1 MB".into(),
            chunk_bytes: MB,
            reps: 10,
            bytes: 50 * MB,
            secs: 5.0,
        };
        assert!((p.mbps() - 10.0).abs() < 1e-12);
    }
}
