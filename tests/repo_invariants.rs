//! Repository-wide invariants, enforced as a test so CI catches drift:
//! every crate in the workspace — the pl-* layers, the vendored stubs and
//! the facade itself — must carry `#![forbid(unsafe_code)]` at its root.
//! The whole reproduction is safe Rust; a crate that silently drops the
//! attribute re-opens the door without anyone noticing.

use std::path::PathBuf;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Every `<dir>/*/src/lib.rs` under the repo root.
fn crate_roots_under(dir: &str) -> Vec<PathBuf> {
    let mut roots: Vec<PathBuf> = std::fs::read_dir(repo_root().join(dir))
        .unwrap_or_else(|e| panic!("reading {dir}: {e}"))
        .map(|entry| entry.unwrap().path().join("src/lib.rs"))
        .filter(|p| p.is_file())
        .collect();
    roots.sort();
    roots
}

#[test]
fn every_workspace_crate_forbids_unsafe_code() {
    let mut roots = vec![repo_root().join("src/lib.rs")];
    roots.extend(crate_roots_under("crates"));
    roots.extend(crate_roots_under("vendor"));
    assert!(
        roots.len() >= 13,
        "expected the facade + 10 pl-* crates + 2 vendored stubs, found {}: {roots:?}",
        roots.len()
    );
    for root in roots {
        let text = std::fs::read_to_string(&root)
            .unwrap_or_else(|e| panic!("reading {}: {e}", root.display()));
        assert!(
            text.contains("#![forbid(unsafe_code)]"),
            "{} does not forbid unsafe code",
            root.display()
        );
    }
}
