//! Dead-link detection over the repo's markdown docs and the doc
//! anchors its Rust sources cite — the library behind the `doccheck`
//! binary and CI's `doc-links` job.
//!
//! The docs cross-reference each other heavily (`docs/kernels.md`
//! anchors are cited from rustdoc and other pages), and a renamed
//! heading or moved file silently strands every reference. This module
//! parses inline markdown links, resolves relative targets against the
//! filesystem, and checks `#fragment` targets against the GitHub
//! heading-slug set of the destination file. In Rust sources it finds
//! `docs/<file>.md#<fragment>` citations (comments, doc comments and
//! strings alike), read from the repository root, and checks them the
//! same way.
//!
//! Scope is deliberately small: inline `[text](target)` links outside
//! fenced code blocks. External schemes (`http:`, `https:`, `mailto:`)
//! are not fetched — CI must not depend on the network — and
//! reference-style links are not used in this repo.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// One inline link found in a markdown file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Link {
    /// 1-based line the link starts on.
    pub line: usize,
    /// The raw parenthesised target, e.g. `architecture.md#data-flow`.
    pub target: String,
}

/// One unresolved link, human-readable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeadLink {
    /// File the link appears in.
    pub file: PathBuf,
    /// 1-based line of the link.
    pub line: usize,
    /// The raw target.
    pub target: String,
    /// Why it did not resolve.
    pub reason: String,
}

impl std::fmt::Display for DeadLink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: dead link ({}): {}",
            self.file.display(),
            self.line,
            self.target,
            self.reason
        )
    }
}

/// Extracts inline `[text](target)` links outside fenced code blocks.
/// Image links (`![alt](target)`) are included — a missing diagram is
/// as dead as a missing page.
pub fn extract_links(text: &str) -> Vec<Link> {
    let mut links = Vec::new();
    let mut in_fence = false;
    for (idx, line) in text.lines().enumerate() {
        if line.trim_start().starts_with("```") {
            in_fence = !in_fence;
            continue;
        }
        if in_fence {
            continue;
        }
        let bytes = line.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            // Find `](` then scan back for the matching `[`; inline
            // code spans (`...`) are skipped wholesale.
            if bytes[i] == b'`' {
                i += 1;
                while i < bytes.len() && bytes[i] != b'`' {
                    i += 1;
                }
                i += 1;
                continue;
            }
            if bytes[i] == b']' && i + 1 < bytes.len() && bytes[i + 1] == b'(' {
                let close = line[i + 2..].find(')').map(|o| i + 2 + o);
                if let Some(close) = close {
                    let target = line[i + 2..close].trim();
                    // `[text](target "title")` — drop the title.
                    let target = target.split_whitespace().next().unwrap_or("");
                    if !target.is_empty() {
                        links.push(Link {
                            line: idx + 1,
                            target: target.to_owned(),
                        });
                    }
                    i = close + 1;
                    continue;
                }
            }
            i += 1;
        }
    }
    links
}

/// Extracts `docs/<file>.md#<fragment>` citations from Rust source
/// text. Each target is relative to the repository root.
pub fn extract_doc_citations(text: &str) -> Vec<Link> {
    let is_path = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '-' | '/');
    let is_fragment = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '-');
    let mut citations = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        for (at, _) in line.match_indices("docs/") {
            if line[..at].ends_with(|c: char| c.is_ascii_alphanumeric()) {
                continue;
            }
            let tail = &line[at..];
            let path_end = tail.find(|c| !is_path(c)).unwrap_or(tail.len());
            let Some(after) = tail[path_end..].strip_prefix(".md#") else {
                continue;
            };
            let fragment_len = after.find(|c| !is_fragment(c)).unwrap_or(after.len());
            if fragment_len > 0 {
                citations.push(Link {
                    line: idx + 1,
                    target: tail[..path_end + ".md#".len() + fragment_len].to_owned(),
                });
            }
        }
    }
    citations
}

/// GitHub's heading-to-anchor slug: lowercase, alphanumerics kept,
/// spaces and hyphens become hyphens, everything else dropped.
pub fn slug(heading: &str) -> String {
    let mut out = String::with_capacity(heading.len());
    for ch in heading.trim().chars() {
        if ch.is_alphanumeric() || ch == '_' {
            out.extend(ch.to_lowercase());
        } else if ch == ' ' || ch == '-' {
            out.push('-');
        }
    }
    out
}

/// The anchor set of a markdown document: one slug per ATX heading
/// (`#`..`######`) outside fenced code blocks.
pub fn anchors(text: &str) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    let mut in_fence = false;
    for line in text.lines() {
        if line.trim_start().starts_with("```") {
            in_fence = !in_fence;
            continue;
        }
        if in_fence {
            continue;
        }
        let trimmed = line.trim_start();
        let hashes = trimmed.chars().take_while(|&c| c == '#').count();
        if (1..=6).contains(&hashes) && trimmed.chars().nth(hashes) == Some(' ') {
            // Strip inline-code backticks so "`--exact`" slugs the way
            // GitHub renders it (backticks are not alphanumeric and
            // drop out in `slug` anyway; this keeps intent obvious).
            out.insert(slug(&trimmed[hashes + 1..].replace('`', "")));
        }
    }
    out
}

/// Whether a target points outside the filesystem (not checkable).
fn is_external(target: &str) -> bool {
    target.starts_with("http://") || target.starts_with("https://") || target.starts_with("mailto:")
}

/// Checks every inline link of `text` (the content of `file`) against
/// the filesystem, resolving relative targets from the file's parent
/// directory and fragments against the destination's heading slugs.
pub fn check_file(file: &Path, text: &str) -> Vec<DeadLink> {
    let dir = file.parent().unwrap_or_else(|| Path::new("."));
    extract_links(text)
        .iter()
        .filter(|link| !is_external(&link.target))
        .filter_map(|link| resolve(file, text, dir, link))
        .collect()
}

/// Checks every `docs/<file>.md#<fragment>` citation in `text` (the
/// content of the Rust source `file`), resolving the cited file from
/// `root` and the fragment against its heading slugs.
pub fn check_rust_file(file: &Path, text: &str, root: &Path) -> Vec<DeadLink> {
    extract_doc_citations(text)
        .iter()
        .filter_map(|link| resolve(file, text, root, link))
        .collect()
}

/// Resolves one link found in `file` (whose content is `text`): the
/// path part from `dir`, the fragment against the destination's heading
/// slugs (this file's, for a bare `#fragment`).
fn resolve(file: &Path, text: &str, dir: &Path, link: &Link) -> Option<DeadLink> {
    let dead = |reason: String| {
        Some(DeadLink {
            file: file.to_path_buf(),
            line: link.line,
            target: link.target.clone(),
            reason,
        })
    };
    let (path_part, fragment) = match link.target.split_once('#') {
        Some((p, f)) => (p, Some(f)),
        None => (link.target.as_str(), None),
    };
    let (dest, dest_text) = if path_part.is_empty() {
        // `#fragment`: an anchor in this file.
        (file.to_path_buf(), text.to_owned())
    } else {
        let dest = dir.join(path_part);
        if !dest.exists() {
            return dead(format!("{} does not exist", dest.display()));
        }
        if fragment.is_none() || dest.extension().is_none_or(|e| e != "md") {
            return None;
        }
        match std::fs::read_to_string(&dest) {
            Ok(dest_text) => (dest, dest_text),
            Err(e) => return dead(format!("{} unreadable: {e}", dest.display())),
        }
    };
    let fragment = fragment?;
    if anchors(&dest_text).contains(&fragment.to_ascii_lowercase()) {
        return None;
    }
    dead(format!(
        "no heading slugs to #{fragment} in {}",
        dest.display()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slugs_match_github_rules() {
        assert_eq!(slug("The recall@k guarantee"), "the-recallk-guarantee");
        assert_eq!(slug("Exact fallback"), "exact-fallback");
        assert_eq!(
            slug("perfbench — the benchmark of record"),
            "perfbench--the-benchmark-of-record"
        );
        assert_eq!(slug("CSR layout"), "csr-layout");
        assert_eq!(slug("`--exact` flag"), "--exact-flag");
    }

    #[test]
    fn extracts_inline_links_and_skips_fences_and_code_spans() {
        let text = "\
see [arch](architecture.md#data-flow) and [ext](https://example.com)\n\
```text\nnot a [link](nope.md)\n```\n\
inline `[code](also-not.md)` then [real](kernels.md)\n";
        let links = extract_links(text);
        let targets: Vec<&str> = links.iter().map(|l| l.target.as_str()).collect();
        assert_eq!(
            targets,
            vec![
                "architecture.md#data-flow",
                "https://example.com",
                "kernels.md"
            ]
        );
        assert_eq!(links[0].line, 1);
        assert_eq!(links[2].line, 5);
    }

    #[test]
    fn anchor_set_covers_headings_outside_fences() {
        let text = "# Top\n## The recall@k guarantee\n```\n# not a heading\n```\n### Sub-section\n";
        let set = anchors(text);
        assert!(set.contains("top"));
        assert!(set.contains("the-recallk-guarantee"));
        assert!(set.contains("sub-section"));
        assert!(!set.contains("not-a-heading"));
    }

    #[test]
    fn dead_file_and_dead_anchor_are_reported() {
        let dir = std::env::temp_dir().join(format!("doccheck-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("real.md"), "# Real heading\n").unwrap();
        let source = dir.join("source.md");
        let text = "\
[ok](real.md#real-heading)\n\
[gone](missing.md)\n\
[bad anchor](real.md#nope)\n\
[self](#local)\n\n# Local\n";
        std::fs::write(&source, text).unwrap();
        let dead = check_file(&source, text);
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(dead.len(), 2, "{dead:?}");
        assert!(dead[0].target.contains("missing.md"));
        assert!(dead[1].target.contains("#nope"));
    }

    /// Rust fixtures spell `docs/` as `@/`: the default doccheck run
    /// scans this file too, and must not report them.
    fn cited(text: &str) -> String {
        text.replace("@/", "docs/")
    }

    #[test]
    fn rust_citations_are_extracted_from_comments_and_strings() {
        let text = cited(
            "\
//! see `@/kernels.md#the-scan-tile` and @/kernels.md without one\n\
/// (@/serving.md#flags). Also my@/x.md#nope is not a citation\n\
let s = \"@/a-b/c_d.md#frag-1\";\n",
        );
        let found: Vec<(usize, String)> = extract_doc_citations(&text)
            .into_iter()
            .map(|l| (l.line, l.target))
            .collect();
        assert_eq!(
            found,
            vec![
                (1, cited("@/kernels.md#the-scan-tile")),
                (2, cited("@/serving.md#flags")),
                (3, cited("@/a-b/c_d.md#frag-1")),
            ]
        );
    }

    #[test]
    fn rust_citation_of_a_missing_heading_is_reported() {
        let root = std::env::temp_dir().join(format!("doccheck-rs-{}", std::process::id()));
        std::fs::create_dir_all(root.join("docs")).unwrap();
        std::fs::write(
            root.join("docs").join("kernels.md"),
            "# Kernels\n## The scan tile\n",
        )
        .unwrap();
        let source = Path::new("crates/algo/src/kernel.rs");
        let text = cited(
            "\
/// Width (`@/kernels.md#the-scan-tile`).\n\
/// Sweep (`@/kernels.md#the-autotuner-sweep`).\n",
        );
        let dead = check_rust_file(source, &text, &root);
        std::fs::remove_dir_all(&root).ok();
        assert_eq!(dead.len(), 1, "{dead:?}");
        assert_eq!(dead[0].target, cited("@/kernels.md#the-autotuner-sweep"));
        assert!(
            dead[0]
                .to_string()
                .starts_with("crates/algo/src/kernel.rs:2: "),
            "{}",
            dead[0]
        );
    }

    #[test]
    fn self_anchor_resolves_within_the_file() {
        let text = "[self](#local)\n\n# Local\n";
        let dead = check_file(Path::new("mem.md"), text);
        assert!(dead.is_empty(), "{dead:?}");
    }
}
