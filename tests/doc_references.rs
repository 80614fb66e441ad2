//! Docs cannot name a target that does not exist: every `--bench <name>`
//! and `-p crystalnet-bench --bin <name>` in the operator-facing docs,
//! the verify skill and the CI workflow is a target `crates/bench`
//! really has, every `--bin paper -- <subcommand>` is a row of the
//! binary's dispatch table, every `BENCH_<x>.json` they mention is a
//! generated file under `target/`, never a tracked file at the repo
//! root, and no `<x>_output.txt` "recorded run" is cited at all.

use std::collections::BTreeSet;
use std::path::Path;

const DOCS: [&str; 6] = [
    "README.md",
    "EXPERIMENTS.md",
    "OPERATIONS.md",
    "DESIGN.md",
    ".claude/skills/verify/SKILL.md",
    ".github/workflows/ci.yml",
];

/// The `[a-z0-9_]+` words that follow `marker` plus whitespace (line
/// wraps included) anywhere in `text`.
fn names_after<'a>(text: &'a str, marker: &str) -> Vec<&'a str> {
    let is_name = |c: char| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_';
    text.match_indices(marker)
        .filter_map(|(at, _)| {
            let rest = &text[at + marker.len()..];
            let name = rest.trim_start();
            let end = name.find(|c| !is_name(c)).unwrap_or(name.len());
            (name.len() < rest.len() && end > 0).then(|| &name[..end])
        })
        .collect()
}

#[test]
fn docs_name_only_bench_targets_that_exist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let read = |rel: &str| {
        std::fs::read_to_string(root.join(rel)).unwrap_or_else(|e| panic!("read {rel}: {e}"))
    };

    let manifest = read("crates/bench/Cargo.toml");
    let benches: BTreeSet<&str> = manifest
        .split("[[bench]]")
        .skip(1)
        .filter_map(|table| table.split('"').nth(1))
        .collect();
    let bins: BTreeSet<String> = std::fs::read_dir(root.join("crates/bench/src/bin"))
        .expect("crates/bench/src/bin")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "rs"))
        .map(|p| p.file_stem().unwrap().to_string_lossy().into_owned())
        .collect();

    let mut seen = 0;
    for doc in DOCS {
        let text = read(doc);
        for name in names_after(&text, "--bench") {
            assert!(
                benches.contains(name),
                "{doc}: `--bench {name}` is not a [[bench]] of crates/bench"
            );
            seen += 1;
        }
        for name in names_after(&text, "-p crystalnet-bench --bin") {
            assert!(
                bins.contains(name),
                "{doc}: `--bin {name}` is not under crates/bench/src/bin"
            );
            seen += 1;
        }
        for name in names_after(&text, "--bin paper --") {
            assert!(
                name == "all"
                    || crystalnet_bench::SUBCOMMANDS
                        .iter()
                        .any(|(n, _)| *n == name),
                "{doc}: `paper -- {name}` is not a subcommand of the paper binary"
            );
            seen += 1;
        }
        assert!(
            !text.contains("_output.txt"),
            "{doc}: cites an `*_output.txt` recorded run, and no such file is \
             tracked — name the command that prints it instead"
        );
        for (at, _) in text.match_indices("BENCH_") {
            let rest = &text[at..];
            let Some(len) = rest.find(".json").map(|i| i + ".json".len()) else {
                continue;
            };
            let file = &rest[..len];
            if file.contains(|c: char| c.is_whitespace() || c == '*') {
                continue;
            }
            assert!(
                text[..at].ends_with("target/"),
                "{doc}: `{file}` must be written as `target/{file}` — \
                 generated results live under target/, not at the repo root"
            );
            seen += 1;
        }
    }
    assert!(
        seen > 0,
        "the scan found no reference at all — it is broken"
    );
}
