//! **md5sum** — the paper's running example (§2, Figures 1–3).
//!
//! The main loop opens each virtual file, digests it block by block inside
//! `mdfile`'s named `READB` block, prints the digest and closes the file.
//! The annotations reproduce Figure 1:
//!
//! * `FSET`, a Group set predicated on the loop induction variable —
//!   file operations commute across iterations;
//! * per-block `SELF` sets — each operation also commutes with itself;
//! * `READB`, an optional named block exported by `mdfile` and enabled at
//!   the call site into `SSET` (its own predicated Self set) *and* `FSET`
//!   (our encoding uses the model's multiple-membership feature so the
//!   fread/fopen/fclose conflicts relax, see DESIGN.md);
//! * the deterministic-output variant omits `SELF` on the print block,
//!   trading DOALL for PS-DSWP exactly as in Figure 3.
//!
//! Digests are real MD5 values (folded to `i64`), validated against a
//! native Rust reference.

use crate::framework::{PaperRow, SchemeSpec, Workload};
use crate::md5;
use crate::worldlib::{Console, FsShard, SharedInput, VirtualFs};
use commset::{Scheme, SyncMode};
use commset_ir::IntrinsicTable;
use commset_lang::ast::Type;
use commset_runtime::intrinsics::IntrinsicOutcome;
use commset_runtime::{
    stripe_of, stripe_slot, MergeSpec, Registry, SlotBinding, World, WORLD_STRIPES,
};
use std::sync::Arc;

/// Number of input files.
pub const FILE_COUNT: usize = 64;
/// Read granularity in bytes.
pub const BLOCK: usize = 1024;
const SEED: u64 = 0x5eed_0001;

/// The COMMSET-annotated source (primary variant: out-of-order digests,
/// Figure 1 shape, 10 annotation lines as in Table 2).
pub fn annotated_source() -> String {
    source(true)
}

/// The deterministic-output variant: `SELF` omitted on the print block
/// (paper §2: "specifying that print_digest commutes with the other I/O
/// operations, but not with itself, constrains output to be
/// deterministic").
pub fn deterministic_source() -> String {
    source(false)
}

fn source(print_self: bool) -> String {
    let print_instances = if print_self {
        "SELF, FSET(i)"
    } else {
        "FSET(i)"
    };
    format!(
        r#"
#pragma CommSetDecl(FSET, Group)
#pragma CommSetPredicate(FSET, (i1), (i2), i1 != i2)
#pragma CommSetDecl(SSET, Self)
#pragma CommSetPredicate(SSET, (a), (b), a != b)

extern int file_count();
extern handle fs_open(int idx);
extern int fs_read_block(handle fp);
extern void md5_chunk(handle fp);
extern int fs_digest(handle fp);
extern void fs_close(handle fp);
extern void print_digest(int d);

#pragma CommSetNamedArg(READB)
int mdfile(handle fp) {{
    int more = 1;
    while (more) {{
        #pragma CommSetNamedBlock(READB)
        {{ more = fs_read_block(fp); }}
        md5_chunk(fp);
    }}
    return fs_digest(fp);
}}

int main() {{
    int n = file_count();
    for (int i = 0; i < n; i = i + 1) {{
        handle fp = handle(0);
        #pragma CommSet(SELF, FSET(i))
        {{ fp = fs_open(i); }}
        int d = 0;
        #pragma CommSetNamedArgAdd(READB, SSET(i), FSET(i))
        {{ d = mdfile(fp); }}
        #pragma CommSet({print_instances})
        {{ print_digest(d); }}
        #pragma CommSet(SELF, FSET(i))
        {{ fs_close(fp); }}
    }}
    return 0;
}}
"#
    )
}

/// Intrinsic table: file-table writes for open/close, data-channel
/// read/write for block reads, console writes for prints.
pub fn table() -> IntrinsicTable {
    let mut t = IntrinsicTable::new();
    t.register("file_count", vec![], Type::Int, &[], &[], 5);
    t.register(
        "fs_open",
        vec![Type::Int],
        Type::Handle,
        &[],
        &["FS_TABLE"],
        40,
    );
    t.mark_fresh_handle("fs_open");
    t.register(
        "fs_read_block",
        vec![Type::Handle],
        Type::Int,
        &["FS_TABLE"],
        &["FS_DATA"],
        60,
    );
    t.register(
        "md5_chunk",
        vec![Type::Handle],
        Type::Void,
        &["FS_DATA"],
        &["FS_DATA"],
        20,
    );
    t.register(
        "fs_digest",
        vec![Type::Handle],
        Type::Int,
        &["FS_DATA"],
        &[],
        30,
    );
    t.register(
        "fs_close",
        vec![Type::Handle],
        Type::Void,
        &[],
        &["FS_TABLE", "FS_DATA"],
        25,
    );
    t.mark_per_instance("FS_DATA");
    t.register(
        "print_digest",
        vec![Type::Int],
        Type::Void,
        &[],
        &["CONSOLE"],
        15,
    );
    t
}

/// The `fs` stripe a file index or stream handle belongs to. The two key
/// kinds agree by construction: `fs_open(i)` runs in stripe `i mod 8` and
/// that stripe's [`FsShard`] hands out handles with
/// `handle mod 8 == i mod 8`, so every later per-handle call routes back
/// to the stripe that opened the stream.
fn fs_stripe(key: i64) -> usize {
    stripe_of(key, WORLD_STRIPES)
}

/// The file contents, shared by every world and delta-buffer stripe.
type Files = Arc<Vec<Vec<u8>>>;

/// Intrinsic handlers over the striped virtual filesystem and console,
/// with slot bindings declaring each intrinsic's world footprint (the
/// sharded world's routing map). Delta-buffer stripes share `files`.
fn registry(files: SharedInput<Files>) -> Registry {
    let mut r = Registry::new();
    r.register("file_count", |world, _| {
        IntrinsicOutcome::value(world.stripe::<FsShard>("fs", fs_stripe(0)).files.len() as i64)
    });
    r.register("fs_open", |world, args| {
        let idx = args[0].as_int();
        let h = world
            .stripe_mut::<FsShard>("fs", fs_stripe(idx))
            .open(idx as usize);
        IntrinsicOutcome::value(h).with_serialized(8)
    });
    r.register("fs_read_block", |world, args| {
        // I/O only: stages the next block for hashing. The disk/page-cache
        // transfer mostly overlaps; stream bookkeeping serializes.
        let h = args[0].as_int();
        let fs = world.stripe_mut::<FsShard>("fs", fs_stripe(h));
        let taken = fs.stage_block(h, BLOCK);
        IntrinsicOutcome::value(i64::from(taken > 0)).with_serialized(6)
    });
    r.register("md5_chunk", |world, args| {
        // Hashing is private compute on the staged block: never inside a
        // critical section, exactly like md5_update in the real program.
        let h = args[0].as_int();
        let taken = world
            .stripe_mut::<FsShard>("fs", fs_stripe(h))
            .hash_staged(h);
        IntrinsicOutcome::unit()
            .with_cost(taken as u64)
            .with_serialized(0)
    });
    r.register("fs_digest", |world, args| {
        let h = args[0].as_int();
        let d = md5::digest_i64(&world.stripe::<FsShard>("fs", fs_stripe(h)).digest(h));
        IntrinsicOutcome::value(d).with_serialized(0)
    });
    r.register("fs_close", |world, args| {
        let h = args[0].as_int();
        world.stripe_mut::<FsShard>("fs", fs_stripe(h)).close(h);
        IntrinsicOutcome::unit().with_serialized(8)
    });
    r.register("print_digest", |world, args| {
        world.get_mut::<Console>("console").print(args[0].as_int());
        IntrinsicOutcome::unit()
    });
    let fs_by_arg0 = || {
        vec![SlotBinding::Striped {
            base: "fs".into(),
            stripes: WORLD_STRIPES,
            arg: 0,
        }]
    };
    r.bind("file_count", vec![SlotBinding::Fixed(stripe_slot("fs", 0))]);
    r.bind("fs_open", fs_by_arg0());
    r.bind("fs_read_block", fs_by_arg0());
    r.bind("md5_chunk", fs_by_arg0());
    r.bind("fs_digest", fs_by_arg0());
    r.bind("fs_close", fs_by_arg0());
    r.bind("print_digest", vec![SlotBinding::Fixed("console".into())]);
    // Delta merges. Each `fs#k` stripe absorbs (open/close pair within an
    // iteration, so worker shards arrive with no live streams); the
    // console appends worker logs in deterministic coalesce order. The
    // deterministic-output PS-DSWP variant is pipelined (queues present),
    // so its prints never delta-route and stay in program order.
    r.declare_merge(
        "fs",
        MergeSpec::custom(
            "fs-absorb",
            move |slot| {
                let k: usize = slot
                    .rsplit('#')
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("fs slots are `fs#k`");
                FsShard::new(Arc::clone(files.get()), k, WORLD_STRIPES)
            },
            FsShard::absorb,
        ),
    );
    r.declare_merge(
        "console",
        MergeSpec::custom(
            "console-append",
            |_| Console::default(),
            |base: &mut Console, d: Console| base.lines.extend(d.lines),
        ),
    );
    r
}

/// Fresh input world: the virtual files striped into [`WORLD_STRIPES`]
/// shard slots (`fs#0` … `fs#7`, sharing the file contents) plus an
/// empty console.
fn make_world(files: &Files) -> World {
    let mut w = World::new();
    for k in 0..WORLD_STRIPES {
        w.install(
            &stripe_slot("fs", k),
            FsShard::new(Arc::clone(files), k, WORLD_STRIPES),
        );
    }
    w.install("console", Console::default());
    w
}

/// The digests a correct run must print (native reference).
pub fn reference_digests() -> Vec<i64> {
    let fs = VirtualFs::generate(FILE_COUNT, 4, 4, SEED);
    fs.files
        .iter()
        .map(|f| md5::digest_i64(&md5::digest(f)))
        .collect()
}

fn validate(seq: &World, par: &World) -> Result<(), String> {
    let s = seq.get::<Console>("console");
    let p = par.get::<Console>("console");
    if s.multiset() != p.multiset() {
        return Err(format!(
            "digest multisets differ: {} vs {} entries",
            s.lines.len(),
            p.lines.len()
        ));
    }
    // No stream leaks in any stripe.
    for k in 0..WORLD_STRIPES {
        if !par.stripe::<FsShard>("fs", k).streams.is_empty() {
            return Err(format!("leaked open streams in stripe {k}"));
        }
    }
    Ok(())
}

/// The md5sum workload (Figure 6a).
pub fn workload() -> Workload {
    let files: SharedInput<Files> =
        SharedInput::new(|| Arc::new(VirtualFs::generate(FILE_COUNT, 4, 4, SEED).files));
    Workload {
        name: "md5sum",
        origin: "Open Src",
        exec_fraction: "100%",
        variants: vec![annotated_source(), deterministic_source()],
        schemes: vec![
            SchemeSpec::new("Comm-DOALL (Lib)", 0, Scheme::Doall, SyncMode::Lib, true),
            SchemeSpec::new("Comm-DOALL (Spin)", 0, Scheme::Doall, SyncMode::Spin, true),
            SchemeSpec::new(
                "Comm-DOALL (Mutex)",
                0,
                Scheme::Doall,
                SyncMode::Mutex,
                true,
            ),
            SchemeSpec::new("Comm-PS-DSWP (Lib)", 1, Scheme::PsDswp, SyncMode::Lib, true),
            SchemeSpec::new("DSWP (no CommSet)", 0, Scheme::Dswp, SyncMode::Lib, false),
        ],
        table: table(),
        registry: registry(files.clone()),
        irrevocable: vec!["FS_TABLE", "FS_DATA", "CONSOLE"],
        make_world: Arc::new(move || make_world(files.get())),
        validate: Arc::new(validate),
        paper: PaperRow {
            best_speedup: 7.6,
            best_scheme: "DOALL + Lib",
            annotations: 10,
            noncomm_speedup: 1.0,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use commset_sim::CostModel;

    #[test]
    fn annotation_count_matches_table2() {
        let w = workload();
        assert_eq!(
            w.annotation_count(),
            10,
            "Table 2: md5sum has 10 annotations"
        );
    }

    #[test]
    fn sequential_run_prints_reference_digests_in_order() {
        let w = workload();
        let (_, world) = w.run_sequential(&CostModel::default());
        let console = world.get::<Console>("console");
        assert_eq!(console.lines, reference_digests());
    }

    #[test]
    fn analysis_enables_doall_on_primary_variant() {
        let w = workload();
        let a = w.analyze(0).unwrap();
        assert!(a.doall_legal(), "{}", a.pdg_dump());
        assert!(a.relaxed_edges > 0);
    }

    #[test]
    fn deterministic_variant_forbids_doall_keeps_ps_dswp() {
        let w = workload();
        let a = w.analyze(1).unwrap();
        assert!(!a.doall_legal(), "{}", a.pdg_dump());
        let schemes = w.compiler().applicable_schemes(&a, 8);
        assert!(schemes.contains(&Scheme::PsDswp), "{schemes:?}");
    }

    #[test]
    fn doall_speedup_shape_matches_paper() {
        let w = workload();
        let cm = CostModel::default();
        let spec = &w.schemes[0]; // Comm-DOALL (Lib)
        let s2 = w.speedup(spec, 2, &cm).unwrap();
        let s8 = w.speedup(spec, 8, &cm).unwrap();
        assert!(s2 > 1.5, "2 threads: {s2:.2}");
        assert!(s8 > 5.5, "8 threads: {s8:.2} (paper: 7.6)");
        assert!(s8 > s2);
    }

    #[test]
    fn ps_dswp_is_deterministic_and_scales() {
        let w = workload();
        let cm = CostModel::default();
        let spec = w
            .schemes
            .iter()
            .find(|s| s.label.contains("PS-DSWP"))
            .unwrap();
        let (_, world) = w.run_scheme(spec, 8, &cm).unwrap();
        let console = world.get::<Console>("console");
        assert_eq!(
            console.lines,
            reference_digests(),
            "deterministic output preserves print order"
        );
        let s8 = w.speedup(spec, 8, &cm).unwrap();
        assert!(s8 > 3.5, "8 threads PS-DSWP: {s8:.2} (paper: 5.8)");
    }

    #[test]
    fn plain_source_is_not_doall_parallelizable() {
        let w = workload();
        let plain = w.plain_source();
        let c = w.compiler();
        let a = c.analyze(&plain).unwrap();
        assert!(!a.doall_legal());
        assert!(c.compile(&a, Scheme::Doall, 4, SyncMode::Lib).is_err());
    }
}
