//! # commset-workloads
//!
//! The eight evaluation programs of the paper (Table 2), rebuilt as Cmm
//! workloads with the same hot-loop dependence structure:
//!
//! | module      | paper program | origin        | pattern reproduced |
//! |-------------|---------------|---------------|--------------------|
//! | [`md5sum`]  | md5sum        | Apple open src| per-file digests, I/O ordering, named `READB` block |
//! | [`hmmer`]   | 456.hmmer     | SPEC2006      | shared-seed RNG, histogram sum, alloc/free pairs |
//! | [`geti`]    | geti          | MineBench     | bitmap itemsets, ordered console output |
//! | [`eclat`]   | ECLAT         | MineBench     | vertical DB reads, set-semantics lists, stats group |
//! | [`em3d`]    | em3d          | Olden         | linked-list traversal + RNG neighbor selection |
//! | [`potrace`] | potrace       | open source   | bitmap tracing, single-output-file variant |
//! | [`kmeans`]  | kmeans        | STAMP         | nearest-center compute + contended center updates |
//! | [`url`]     | url           | NetBench      | packet dequeue + pattern match + no-sync logging |
//!
//! Every workload provides: the COMMSET-annotated Cmm source (plus scheme
//! variants where the paper evaluated different semantic choices), the
//! pragma-stripped sequential baseline, the intrinsic table/handlers over a
//! deterministic virtual world, a native Rust reference implementation,
//! and output validators. The [`framework`] module runs them through the
//! compiler and both executors.

pub mod eclat;
pub mod em3d;
pub mod framework;
pub mod geti;
pub mod hmmer;
pub mod kmeans;
pub mod md5;
pub mod md5sum;
pub mod potrace;
pub mod url;
pub mod worldlib;

pub use framework::{strip_pragmas, PaperRow, SchemeSpec, Workload};

/// All eight workloads, in Table 2 order.
pub fn all() -> Vec<Workload> {
    vec![
        md5sum::workload(),
        hmmer::workload(),
        geti::workload(),
        eclat::workload(),
        em3d::workload(),
        potrace::workload(),
        kmeans::workload(),
        url::workload(),
    ]
}
