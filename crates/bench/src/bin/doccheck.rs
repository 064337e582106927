//! `doccheck` — fail on dead links in the repo's markdown docs and on
//! dead doc anchors cited from its Rust sources.
//!
//! ```text
//! doccheck                 # check README.md, docs/*.md and crates/**/*.rs
//! doccheck FILE...         # check the given markdown (or .rs) files
//! ```
//!
//! Resolves every inline `[text](target)` link: relative targets must
//! exist on disk, and `#fragment` targets must match a heading slug in
//! the destination file (`exrec_bench::doccheck` documents the exact
//! rules). In `.rs` files it checks every `docs/<file>.md#<fragment>`
//! citation the same way, reading the cited file from the repository
//! root (run it from there). External `http(s)`/`mailto` targets are
//! skipped — CI runs offline. Exits `0` when every link resolves, `1`
//! otherwise, `2` on usage errors, so CI's `doc-links` job gates on it
//! directly.

use std::path::{Path, PathBuf};

use exrec_bench::doccheck;

/// Every `.rs` file under `dir`, recursively, in path order.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok()).map(|e| e.path()).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The default file set: `README.md`, every `docs/*.md` and every
/// `crates/**/*.rs`.
fn default_files() -> Vec<PathBuf> {
    let mut files = vec![PathBuf::from("README.md")];
    if let Ok(entries) = std::fs::read_dir("docs") {
        let mut docs: Vec<PathBuf> = entries
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|e| e == "md"))
            .collect();
        docs.sort();
        files.extend(docs);
    }
    rust_files(Path::new("crates"), &mut files);
    files
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("usage: doccheck [FILE...]   (default: README.md docs/*.md crates/**/*.rs)");
        std::process::exit(2);
    }
    let files = if args.is_empty() {
        default_files()
    } else {
        args.iter().map(PathBuf::from).collect()
    };

    let mut dead = 0usize;
    let mut checked = 0usize;
    let mut citations = 0usize;
    for file in &files {
        let text = match std::fs::read_to_string(file) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("[doccheck] {} unreadable: {e}", file.display());
                std::process::exit(2);
            }
        };
        let found = if file.extension().is_some_and(|e| e == "rs") {
            citations += doccheck::extract_doc_citations(&text).len();
            doccheck::check_rust_file(file, &text, Path::new(""))
        } else {
            checked += doccheck::extract_links(&text).len();
            doccheck::check_file(file, &text)
        };
        for link in found {
            eprintln!("[doccheck] {link}");
            dead += 1;
        }
    }
    println!(
        "doccheck: {} files, {checked} links, {citations} Rust doc citations, {dead} dead",
        files.len()
    );
    if dead > 0 {
        std::process::exit(1);
    }
}
