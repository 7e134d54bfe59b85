//! Golden snapshot of the Fig. 8 scheduling study on the 16-core CMP.
//!
//! The four `fig8_policies` run on `NucaLayout::fig5()` at a small
//! window. Every number comes from seeded traces and seeded simulation,
//! so the mapping, per-core shared IPC and both Hsp variants (printed
//! with `{:?}`, i.e. to the last bit) are pinned. This is the only golden
//! that exercises the shared-L2/DRAM multi-core `Cmp`; any diff is a
//! behavior change that must be reviewed (and, if intended, regenerated
//! with `UPDATE_GOLDEN=1 cargo test -p lpm-bench --test golden_fig8`).

use std::fmt::Write as _;
use std::path::PathBuf;

use lpm_bench::{fig67_profiles, fig8_results};

const INSTRUCTIONS: usize = 6_000;
const SEED: u64 = 3;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("../../tests/golden/{name}"))
}

fn assert_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var("UPDATE_GOLDEN").as_deref() == Ok("1") {
        std::fs::write(&path, actual).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); generate it with UPDATE_GOLDEN=1",
            path.display()
        )
    });
    assert!(
        expected == actual,
        "{name} drifted from its golden snapshot.\n\
         If the change is intended, regenerate with UPDATE_GOLDEN=1.\n\
         --- expected ---\n{expected}\n--- actual ---\n{actual}"
    );
}

#[test]
fn fig8_small_matches_snapshot() {
    let profiles = fig67_profiles(INSTRUCTIONS, SEED);
    let mut out = String::new();
    for e in fig8_results(&profiles, INSTRUCTIONS, SEED) {
        writeln!(out, "{}", e.scheduler).unwrap();
        writeln!(out, "  mapping={:?}", e.assignment.mapping).unwrap();
        writeln!(out, "  ipc_shared={:?}", e.ipc_shared).unwrap();
        writeln!(out, "  hsp={:?} hsp_entitled={:?}", e.hsp, e.hsp_entitled).unwrap();
    }
    assert_golden("fig8_small.txt", &out);
}
