//! **em3d** — electromagnetic wave propagation, graph construction phase
//! (paper §5.4, Olden).
//!
//! The outer loop walks a linked list of graph nodes (pointer chasing — no
//! DOALL, as the paper notes); the inner loop picks each node's neighbors
//! with a shared-seed RNG library. The paper's annotations put all the RNG
//! routines in one *Group* CommSet plus their own Self sets — "eight
//! annotations, while specifying pair-wise commutativity would have
//! required 16". We add a Self annotation on the neighbor-write block
//! (each node is written exactly once, so dynamic instances trivially
//! commute); the paper's pointer analysis discharged that dependence
//! natively.
//!
//! The non-COMMSET baseline is the paper's 2-stage DSWP (1.2x); with the
//! annotations PS-DSWP replicates the per-node body (5.9x at 8 threads).

use crate::framework::{PaperRow, SchemeSpec, Workload};
use crate::worldlib::SharedInput;
use commset::{Scheme, SyncMode};
use commset_ir::IntrinsicTable;
use commset_lang::ast::Type;
use commset_runtime::intrinsics::IntrinsicOutcome;
use commset_runtime::rng::Lcg;
use commset_runtime::{Registry, World};
use std::sync::Arc;

/// Nodes in the bipartite graph.
pub const NUM_NODES: usize = 192;
/// Neighbors per node.
pub const DEGREE: usize = 6;
const SEED: u64 = 0x5eed_0005;

/// The graph under construction. A clone shares the read-only links and
/// degrees and copies the neighbor assignments handlers fill in.
#[derive(Debug, Clone)]
pub struct Graph {
    /// Next-node links (linked list of the partition), 0 = end.
    pub next: Arc<Vec<i64>>,
    /// Neighbor assignments, `DEGREE` per node (-1 = unassigned).
    pub neighbors: Vec<Vec<i64>>,
    /// Per-node degree.
    pub degree: Arc<Vec<i64>>,
}

impl Graph {
    fn generate() -> Self {
        // Handles are 1-based; node h links to h+1, last links to 0.
        let next = (1..=NUM_NODES as i64)
            .map(|h| if h == NUM_NODES as i64 { 0 } else { h + 1 })
            .collect();
        Graph {
            next: Arc::new(next),
            neighbors: vec![vec![-1; DEGREE]; NUM_NODES],
            degree: Arc::new(vec![DEGREE as i64; NUM_NODES]),
        }
    }
}

fn source(annotated: bool) -> String {
    let decl = if annotated {
        "#pragma CommSetDecl(RSET, Group)\n"
    } else {
        ""
    };
    let rng1 = if annotated {
        "#pragma CommSet(SELF, RSET)\n            "
    } else {
        ""
    };
    let rng2 = if annotated {
        "#pragma CommSet(SELF, RSET)\n            "
    } else {
        ""
    };
    let setn = if annotated {
        "#pragma CommSet(SELF)\n            "
    } else {
        ""
    };
    format!(
        r#"
{decl}extern handle graph_first();
extern handle ll_next(handle nd);
extern int node_degree(handle nd);
extern int rng_coarse();
extern int rng_fine();
extern void set_neighbor(handle nd, int k, int v);

int main() {{
    handle node = graph_first();
    while (int(node) != 0) {{
        int deg = node_degree(node);
        for (int k = 0; k < deg; k = k + 1) {{
            int partition = 0;
            {rng1}{{ partition = rng_coarse(); }}
            int offset = 0;
            {rng2}{{ offset = rng_fine(); }}
            {setn}{{ set_neighbor(node, k, partition + offset); }}
        }}
        node = ll_next(node);
    }}
    return 0;
}}
"#
    )
}

/// The annotated source.
pub fn annotated_source() -> String {
    source(true)
}

/// Intrinsic signatures. The list links and degrees are read-only
/// (`GRAPH_META`); neighbor writes go to `GRAPH_DATA`; both RNG routines
/// share the `SEED` channel (the parallelism-inhibiting state).
pub fn table() -> IntrinsicTable {
    let mut t = IntrinsicTable::new();
    t.register("graph_first", vec![], Type::Handle, &["GRAPH_META"], &[], 8);
    t.register(
        "ll_next",
        vec![Type::Handle],
        Type::Handle,
        &["GRAPH_META"],
        &[],
        70,
    );
    t.register(
        "node_degree",
        vec![Type::Handle],
        Type::Int,
        &["GRAPH_META"],
        &[],
        8,
    );
    t.register("rng_coarse", vec![], Type::Int, &["SEED"], &["SEED"], 14);
    t.register("rng_fine", vec![], Type::Int, &["SEED"], &["SEED"], 14);
    t.register(
        "set_neighbor",
        vec![Type::Handle, Type::Int, Type::Int],
        Type::Void,
        &[],
        &["GRAPH_DATA"],
        160,
    );
    t
}

/// Intrinsic handlers.
pub fn registry() -> Registry {
    let mut r = Registry::new();
    r.register("graph_first", |_, _| IntrinsicOutcome::value(1i64));
    r.register("ll_next", |world, args| {
        let g = world.get::<Graph>("graph");
        IntrinsicOutcome::value(g.next[(args[0].as_int() - 1) as usize])
    });
    r.register("node_degree", |world, args| {
        let g = world.get::<Graph>("graph");
        IntrinsicOutcome::value(g.degree[(args[0].as_int() - 1) as usize])
    });
    r.register("rng_coarse", |world, _| {
        let v = world.get_mut::<Lcg>("rng").next_below(NUM_NODES as i64) * 8;
        IntrinsicOutcome::value(v)
    });
    r.register("rng_fine", |world, _| {
        let v = world.get_mut::<Lcg>("rng").next_below(8);
        IntrinsicOutcome::value(v)
    });
    r.register("set_neighbor", |world, args| {
        let g = world.get_mut::<Graph>("graph");
        let nd = (args[0].as_int() - 1) as usize;
        let k = args[1].as_int() as usize;
        assert_eq!(g.neighbors[nd][k], -1, "neighbor set twice");
        g.neighbors[nd][k] = args[2].as_int();
        // Weight computation is private; the slot write serializes briefly.
        IntrinsicOutcome::unit().with_serialized(10)
    });
    r
}

/// Fresh input world: a copy of the generated graph (see [`Graph`]).
fn make_world(graph: &Graph) -> World {
    let mut w = World::new();
    w.install("graph", graph.clone());
    w.install("rng", Lcg::new(SEED));
    w
}

/// Neighbor values legitimately differ by RNG order; the invariants are:
/// every slot assigned, values in range, and the total RNG draw count
/// (final seed) unchanged.
fn validate(seq: &World, par: &World) -> Result<(), String> {
    let s_rng = seq.get::<Lcg>("rng");
    let p_rng = par.get::<Lcg>("rng");
    if s_rng.seed != p_rng.seed {
        return Err("RNG draw count differs".into());
    }
    let g = par.get::<Graph>("graph");
    for (nd, ns) in g.neighbors.iter().enumerate() {
        for (k, &v) in ns.iter().enumerate() {
            if v < 0 {
                return Err(format!("neighbor ({nd},{k}) never assigned"));
            }
            if v >= (NUM_NODES as i64) * 8 + 8 {
                return Err(format!("neighbor value {v} out of range"));
            }
        }
    }
    Ok(())
}

/// The em3d workload (Figure 6e).
pub fn workload() -> Workload {
    let graph = SharedInput::new(Graph::generate);
    Workload {
        name: "em3d",
        origin: "Olden",
        exec_fraction: "97%",
        variants: vec![annotated_source()],
        schemes: vec![
            SchemeSpec::new("Comm-PS-DSWP (Lib)", 0, Scheme::PsDswp, SyncMode::Lib, true),
            SchemeSpec::new(
                "Comm-PS-DSWP (Spin)",
                0,
                Scheme::PsDswp,
                SyncMode::Spin,
                true,
            ),
            SchemeSpec::new("DSWP (no CommSet)", 0, Scheme::Dswp, SyncMode::Lib, false),
        ],
        table: table(),
        registry: registry(),
        irrevocable: vec![],
        make_world: Arc::new(move || make_world(graph.get())),
        validate: Arc::new(validate),
        paper: PaperRow {
            best_speedup: 5.9,
            best_scheme: "PS-DSWP + Lib",
            annotations: 8,
            noncomm_speedup: 1.2,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use commset_sim::CostModel;

    #[test]
    fn sequential_fills_every_neighbor() {
        let w = workload();
        let (_, world) = w.run_sequential(&CostModel::default());
        let g = world.get::<Graph>("graph");
        assert!(g.neighbors.iter().all(|ns| ns.iter().all(|&v| v >= 0)));
    }

    #[test]
    fn doall_is_inapplicable_pointer_chasing() {
        let w = workload();
        let a = w.analyze(0).unwrap();
        assert!(!a.hot.shape.is_countable());
        assert!(w
            .compiler()
            .compile(&a, Scheme::Doall, 4, SyncMode::Lib)
            .is_err());
    }

    #[test]
    fn ps_dswp_scales_dswp_does_not() {
        let w = workload();
        let cm = CostModel::default();
        let ps = w.speedup(&w.schemes[0], 8, &cm).unwrap();
        let dswp = w.speedup(&w.schemes[2], 8, &cm).unwrap();
        assert!(ps > 4.0, "paper: 5.9, got {ps:.2}");
        assert!(
            dswp < 2.0,
            "paper: DSWP without commutativity reaches only 1.2x, got {dswp:.2}"
        );
        assert!(ps > 2.0 * dswp);
    }
}
