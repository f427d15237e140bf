//! **potrace** — bitmap-to-vector tracing (paper §5.5).
//!
//! The pattern mirrors md5sum: load a bitmap, trace its contours (the
//! heavy compute — a real marching-squares perimeter walk), write the
//! resulting path, close. The paper evaluates two semantic choices:
//!
//! * separate output images — the write block is `SELF`-commutative and
//!   DOALL applies, peaking near 7 threads once output I/O saturates
//!   (the write's serialized disk share caps scaling);
//! * a single output file — `SELF` omitted on the write, sequential
//!   output order required, PS-DSWP with a sequential write stage
//!   (≈2.2x, the paper's number).

use crate::framework::{PaperRow, SchemeSpec, Workload};
use crate::worldlib::SharedInput;
use commset::{Scheme, SyncMode};
use commset_ir::IntrinsicTable;
use commset_lang::ast::Type;
use commset_runtime::intrinsics::IntrinsicOutcome;
use commset_runtime::rng::SplitMix64;
use commset_runtime::{Registry, World};
use std::collections::HashMap;
use std::sync::Arc;

/// Bitmaps traced.
pub const NUM_BITMAPS: usize = 64;
/// Bitmap side length (pixels).
pub const SIDE: usize = 48;
const SEED: u64 = 0x5eed_0006;

/// A square binary bitmap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitmap {
    /// Row-major pixels.
    pub pixels: Vec<bool>,
}

impl Bitmap {
    /// Generates a bitmap with a few random filled rectangles.
    fn generate(rng: &mut SplitMix64) -> Self {
        let mut pixels = vec![false; SIDE * SIDE];
        for _ in 0..3 + rng.next_below(3) {
            let x0 = rng.next_below((SIDE - 8) as u64) as usize;
            let y0 = rng.next_below((SIDE - 8) as u64) as usize;
            let w = 4 + rng.next_below(12) as usize;
            let h = 4 + rng.next_below(12) as usize;
            for y in y0..(y0 + h).min(SIDE) {
                for x in x0..(x0 + w).min(SIDE) {
                    pixels[y * SIDE + x] = true;
                }
            }
        }
        Bitmap { pixels }
    }

    fn at(&self, x: isize, y: isize) -> bool {
        if x < 0 || y < 0 || x >= SIDE as isize || y >= SIDE as isize {
            false
        } else {
            self.pixels[y as usize * SIDE + x as usize]
        }
    }

    /// Contour measure: the number of boundary edges (pixels with an empty
    /// 4-neighbor) — the tracing kernel's output signature.
    pub fn trace(&self) -> i64 {
        let mut edges = 0i64;
        for y in 0..SIDE as isize {
            for x in 0..SIDE as isize {
                if !self.at(x, y) {
                    continue;
                }
                for (dx, dy) in [(1, 0), (-1, 0), (0, 1), (0, -1)] {
                    if !self.at(x + dx, y + dy) {
                        edges += 1;
                    }
                }
            }
        }
        edges
    }
}

/// The tracing world: input bitmaps, loaded handles, output file.
#[derive(Debug, Default)]
pub struct Tracer {
    /// Input bitmaps (read-only, shared by every world).
    pub bitmaps: Arc<Vec<Bitmap>>,
    /// Loaded handles.
    pub loaded: HashMap<i64, usize>,
    next: i64,
    /// The output: (bitmap index, path signature) records in write order.
    pub output: Vec<(i64, i64)>,
}

impl Tracer {
    fn generate(seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        Tracer {
            bitmaps: Arc::new(
                (0..NUM_BITMAPS)
                    .map(|_| Bitmap::generate(&mut rng))
                    .collect(),
            ),
            ..Default::default()
        }
    }
}

/// Native reference path signatures.
pub fn reference_paths() -> Vec<i64> {
    Tracer::generate(SEED)
        .bitmaps
        .iter()
        .map(Bitmap::trace)
        .collect()
}

fn source(write_self: bool) -> String {
    let wr = if write_self {
        "SELF, PSET(i)"
    } else {
        "PSET(i)"
    };
    format!(
        r#"
#pragma CommSetDecl(PSET, Group)
#pragma CommSetPredicate(PSET, (i1), (i2), i1 != i2)

extern int num_bitmaps();
extern handle bmp_load(int i);
extern int trace_bitmap(handle b);
extern void write_path(int i, int p);
extern void bmp_free(handle b);

int main() {{
    int n = num_bitmaps();
    for (int i = 0; i < n; i = i + 1) {{
        handle b = handle(0);
        #pragma CommSet(SELF, PSET(i))
        {{ b = bmp_load(i); }}
        int p = trace_bitmap(b);
        #pragma CommSet({wr})
        {{ write_path(i, p); }}
        #pragma CommSet(SELF, PSET(i))
        {{ bmp_free(b); }}
    }}
    return 0;
}}
"#
    )
}

/// Separate-output-files variant (DOALL).
pub fn annotated_source() -> String {
    source(true)
}

/// Single-output-file variant (ordered writes, PS-DSWP).
pub fn single_file_source() -> String {
    source(false)
}

/// Intrinsic signatures.
pub fn table() -> IntrinsicTable {
    let mut t = IntrinsicTable::new();
    t.register("num_bitmaps", vec![], Type::Int, &[], &[], 5);
    t.register(
        "bmp_load",
        vec![Type::Int],
        Type::Handle,
        &[],
        &["BMP_TABLE"],
        50,
    );
    t.mark_fresh_handle("bmp_load");
    // Tracing reads the loaded pixels; freeing invalidates them — the
    // per-instance BMP_DATA conflict keeps trace-before-free within an
    // iteration without inhibiting cross-iteration parallelism.
    t.register(
        "trace_bitmap",
        vec![Type::Handle],
        Type::Int,
        &["BMP_DATA"],
        &[],
        60,
    );
    t.register(
        "write_path",
        vec![Type::Int, Type::Int],
        Type::Void,
        &[],
        &["OUTF"],
        1200,
    );
    t.register(
        "bmp_free",
        vec![Type::Handle],
        Type::Void,
        &[],
        &["BMP_TABLE", "BMP_DATA"],
        25,
    );
    t.mark_per_instance("BMP_DATA");
    t
}

/// Intrinsic handlers.
pub fn registry() -> Registry {
    let mut r = Registry::new();
    r.register("num_bitmaps", |_, _| {
        IntrinsicOutcome::value(NUM_BITMAPS as i64)
    });
    r.register("bmp_load", |world, args| {
        let tr = world.get_mut::<Tracer>("tracer");
        tr.next += 1;
        let h = tr.next;
        tr.loaded.insert(h, args[0].as_int() as usize);
        IntrinsicOutcome::value(h).with_serialized(15)
    });
    r.register("trace_bitmap", |world, args| {
        let tr = world.get::<Tracer>("tracer");
        let idx = tr.loaded[&args[0].as_int()];
        let p = tr.bitmaps[idx].trace();
        // Tracing sweeps every pixel: pure compute.
        IntrinsicOutcome::value(p)
            .with_cost((SIDE * SIDE) as u64)
            .with_serialized(0)
    });
    r.register("write_path", |world, args| {
        let tr = world.get_mut::<Tracer>("tracer");
        tr.output.push((args[0].as_int(), args[1].as_int()));
        // Output I/O: roughly half the write holds the device/file.
        IntrinsicOutcome::unit().with_serialized(645)
    });
    r.register("bmp_free", |world, args| {
        let tr = world.get_mut::<Tracer>("tracer");
        assert!(tr.loaded.remove(&args[0].as_int()).is_some(), "double free");
        IntrinsicOutcome::unit().with_serialized(10)
    });
    r
}

/// Fresh input world: an empty tracer over the shared bitmaps.
fn make_world(bitmaps: &Arc<Vec<Bitmap>>) -> World {
    let mut w = World::new();
    w.install(
        "tracer",
        Tracer {
            bitmaps: Arc::clone(bitmaps),
            ..Default::default()
        },
    );
    w
}

/// Each bitmap's path is deterministic; the written multiset must match.
fn validate(seq: &World, par: &World) -> Result<(), String> {
    let s = seq.get::<Tracer>("tracer");
    let p = par.get::<Tracer>("tracer");
    let mut so = s.output.clone();
    let mut po = p.output.clone();
    so.sort_unstable();
    po.sort_unstable();
    if so != po {
        return Err("traced paths differ".into());
    }
    if !p.loaded.is_empty() {
        return Err("leaked bitmap handles".into());
    }
    Ok(())
}

/// The potrace workload (Figure 6f).
pub fn workload() -> Workload {
    let bitmaps = SharedInput::new(|| Tracer::generate(SEED).bitmaps);
    Workload {
        name: "potrace",
        origin: "Open Src",
        exec_fraction: "100%",
        variants: vec![annotated_source(), single_file_source()],
        schemes: vec![
            SchemeSpec::new("Comm-DOALL (Lib)", 0, Scheme::Doall, SyncMode::Lib, true),
            SchemeSpec::new("Comm-DOALL (Spin)", 0, Scheme::Doall, SyncMode::Spin, true),
            SchemeSpec::new("Comm-PS-DSWP (Lib)", 1, Scheme::PsDswp, SyncMode::Lib, true),
        ],
        table: table(),
        registry: registry(),
        irrevocable: vec!["BMP_TABLE", "OUTF"],
        make_world: Arc::new(move || make_world(bitmaps.get())),
        validate: Arc::new(validate),
        paper: PaperRow {
            best_speedup: 5.5,
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
    fn sequential_writes_reference_paths_in_order() {
        let w = workload();
        let (_, world) = w.run_sequential(&CostModel::default());
        let tr = world.get::<Tracer>("tracer");
        let expect: Vec<(i64, i64)> = reference_paths()
            .iter()
            .enumerate()
            .map(|(i, &p)| (i as i64, p))
            .collect();
        assert_eq!(tr.output, expect);
    }

    #[test]
    fn doall_peaks_before_eight_threads() {
        let w = workload();
        let cm = CostModel::default();
        let spec = &w.schemes[0];
        let s5 = w.speedup(spec, 5, &cm).unwrap();
        let s7 = w.speedup(spec, 7, &cm).unwrap();
        let s8 = w.speedup(spec, 8, &cm).unwrap();
        assert!(s7 > 4.0, "paper: 5.5 peaking at 7 threads, got {s7:.2}");
        assert!(
            s8 < s7 + 0.3,
            "I/O saturation flattens scaling past 7: {s7:.2} -> {s8:.2}"
        );
        assert!(s7 > s5);
    }

    #[test]
    fn single_file_variant_limits_ps_dswp() {
        let w = workload();
        let cm = CostModel::default();
        let ps8 = w.speedup(&w.schemes[2], 8, &cm).unwrap();
        assert!(
            (1.5..4.0).contains(&ps8),
            "paper: sequential image writes cap PS-DSWP at 2.2x, got {ps8:.2}"
        );
        // Ordered output preserved.
        let (_, world) = w.run_scheme(&w.schemes[2], 8, &cm).unwrap();
        let tr = world.get::<Tracer>("tracer");
        let expect: Vec<(i64, i64)> = reference_paths()
            .iter()
            .enumerate()
            .map(|(i, &p)| (i as i64, p))
            .collect();
        assert_eq!(tr.output, expect, "single-file writes stay in order");
    }
}
