//! Region/predicate metadata export.
//!
//! The dynamic commutativity checker (`commset-checker`) and the
//! `commsetc check` report need a flat, serializable view of what the
//! metadata manager produced: which outlined region functions exist,
//! which CommSet each belongs to, whether the set is predicated (and by
//! which synthesized predicate function), and where the original
//! annotation lives in the source. [`region_catalog`] assembles that view
//! from a [`ManagedUnit`].

use crate::metadata::ManagedUnit;

/// One commutative region (an outlined `__commset_region_*` function) or
/// an annotated original function, with its CommSet membership metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionInfo {
    /// The member function's name (outlined regions are
    /// `__commset_region_<n>`).
    pub func: String,
    /// The CommSet's source name (or synthesized `__self_*` name).
    pub set_name: String,
    /// `Self` or `Group` spelling of the set's kind.
    pub kind: &'static str,
    /// True when the set carries a `CommSetPredicate`.
    pub predicated: bool,
    /// The synthesized predicate function (`__pred_<SET>`), when
    /// predicated. It exists as an ordinary program function, so dynamic
    /// tools can evaluate it with a VM.
    pub predicate_func: Option<String>,
    /// For each predicate parameter, the index of the member function's
    /// parameter carrying the instance argument.
    pub arg_params: Vec<usize>,
    /// True when `CommSetNoSync` applies (no locks are synthesized).
    pub nosync: bool,
    /// 1-based source line of the original annotation site.
    pub origin_line: u32,
}

/// Flattens a managed unit's membership tables into one catalog row per
/// (member function, set) pair, sorted by function name then set name —
/// a deterministic order suitable for reports and golden tests.
pub fn region_catalog(managed: &ManagedUnit) -> Vec<RegionInfo> {
    let mut rows: Vec<RegionInfo> = managed
        .members
        .iter()
        .map(|m| {
            let set = managed.set(m.set);
            let origin_line = managed
                .region_origins
                .get(&m.func)
                .map(|s| s.line)
                .unwrap_or(m.span.line);
            RegionInfo {
                func: m.func.clone(),
                set_name: set.name.clone(),
                kind: set.kind.as_str(),
                predicated: set.predicate.is_some(),
                predicate_func: set.predicate.as_ref().map(|p| p.func_name.clone()),
                arg_params: m.arg_params.clone(),
                nosync: set.nosync,
                origin_line,
            }
        })
        .collect();
    rows.sort_by(|a, b| {
        a.func
            .cmp(&b.func)
            .then_with(|| a.set_name.cmp(&b.set_name))
    });
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metadata::manage;

    const SRC: &str = r#"
#pragma CommSetDecl(FSET, Group)
#pragma CommSetPredicate(FSET, (i1), (i2), i1 != i2)
extern void touch(int i);
int main() {
    for (int i = 0; i < 8; i = i + 1) {
        #pragma CommSet(SELF, FSET(i))
        { touch(i); }
    }
    return 0;
}
"#;

    #[test]
    fn catalog_lists_outlined_regions_with_set_metadata() {
        let unit = commset_lang::compile_unit(SRC).unwrap();
        let managed = manage(unit).unwrap();
        let rows = region_catalog(&managed);
        assert!(!rows.is_empty());
        // Every row names an existing member function.
        for r in &rows {
            assert!(managed.sigs.contains_key(&r.func), "unknown fn {}", r.func);
        }
        // The predicated FSET membership is exported with its predicate
        // function and parameter mapping.
        let fset = rows
            .iter()
            .find(|r| r.set_name == "FSET")
            .expect("FSET membership");
        assert_eq!(fset.kind, "Group");
        assert!(fset.predicated);
        assert_eq!(fset.predicate_func.as_deref(), Some("__pred_FSET"));
        assert_eq!(fset.arg_params.len(), 1);
        assert!(fset.func.starts_with("__commset_region_"), "{}", fset.func);
        // There is also an implicit SELF membership on the same region.
        assert!(rows
            .iter()
            .any(|r| r.func == fset.func && r.set_name != "FSET"));
    }
}
