//! Docs cannot name a target that does not exist: every `--bench <name>`
//! and `-p crystalnet-bench --bin <name>` in the operator-facing docs,
//! the verify skill and the CI workflow is a target `crates/bench`
//! really has, every `--bin paper -- <subcommand>` is a row of the
//! binary's dispatch table, every `BENCH_<x>.json` they mention is a
//! generated file under `target/`, never a tracked file at the repo
//! root, and no `<x>_output.txt` "recorded run" is cited at all.
//!
//! Nor an item that does not exist: every `crystalnet::<Name>`,
//! `core::<module>::<Name>` and `<CoreType>::<member>` cited in backticks
//! in EXPERIMENTS.md and in DESIGN.md's paper-to-code index (§4) is
//! declared `pub` under `crates/core/src`.

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

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read(rel: &str) -> String {
    std::fs::read_to_string(root().join(rel)).unwrap_or_else(|e| panic!("read {rel}: {e}"))
}

#[test]
fn docs_name_only_bench_targets_that_exist() {
    let manifest = read("crates/bench/Cargo.toml");
    let benches: BTreeSet<&str> = manifest
        .split("[[bench]]")
        .skip(1)
        .filter_map(|table| table.split('"').nth(1))
        .collect();
    let bins: BTreeSet<String> = std::fs::read_dir(root().join("crates/bench/src/bin"))
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

/// The `a::b(::c)*` paths written inside backtick spans of `text`, split
/// into segments.
fn cited_paths(text: &str) -> Vec<Vec<&str>> {
    let is_path = |c: char| c.is_ascii_alphanumeric() || c == '_' || c == ':';
    text.split('`')
        .skip(1)
        .step_by(2)
        .flat_map(|span| span.split(|c| !is_path(c)))
        .filter(|run| run.contains("::"))
        .map(|run| run.split("::").filter(|seg| !seg.is_empty()).collect())
        .collect()
}

/// Whether `src` holds `<intro><name>` followed by a non-identifier
/// character, e.g. `declares(src, "pub fn ", "rehearse")`.
fn declares(src: &str, intro: &str, name: &str) -> bool {
    let needle = format!("{intro}{name}");
    src.match_indices(&needle).any(|(at, _)| {
        !src[at + needle.len()..].starts_with(|c: char| c.is_ascii_alphanumeric() || c == '_')
    })
}

/// Whether `src` declares `pub <kind> <name>` for one of `kinds`.
fn declares_kind(src: &str, kinds: &[&str], name: &str) -> bool {
    kinds
        .iter()
        .any(|kind| declares(src, &format!("pub {kind} "), name))
}

const TYPE_KINDS: [&str; 4] = ["struct", "enum", "trait", "type"];

fn declares_item(src: &str, name: &str) -> bool {
    declares_kind(src, &TYPE_KINDS, name)
        || declares_kind(src, &["fn", "const", "static", "mod"], name)
}

/// A `pub fn` or a `pub` field of that name.
fn declares_member(src: &str, name: &str) -> bool {
    declares(src, "pub fn ", name) || declares(src, &format!("pub {name}"), ":")
}

/// What `doc` cites from `core` that `core` (module file name → source)
/// does not declare `pub`, one message per stale citation.
fn stale_core_citations(doc: &str, core: &[(String, String)]) -> Vec<String> {
    let all: String = core.iter().map(|(_, src)| src.as_str()).collect();
    let lowercase = |s: &str| s.starts_with(|c: char| c.is_ascii_lowercase());
    let mut stale = Vec::new();
    for path in cited_paths(doc) {
        let cited = path.join("::");
        let ok = match path.as_slice() {
            ["core", module, rest @ ..] => match core.iter().find(|(name, _)| name == module) {
                None => false,
                Some((_, src)) => rest.first().is_none_or(|item| declares_item(src, item)),
            },
            ["crystalnet", item, rest @ ..] => {
                declares_item(&all, item)
                    && rest.first().is_none_or(|m| {
                        !lowercase(m) || declares_item(&all, m) || declares_member(&all, m)
                    })
            }
            [ty, member, ..] if declares_kind(&all, &TYPE_KINDS, ty) && lowercase(member) => {
                declares_member(&all, member)
            }
            _ => true,
        };
        if !ok {
            stale.push(format!(
                "`{cited}` is not declared `pub` under crates/core/src"
            ));
        }
    }
    stale
}

#[test]
fn docs_cite_only_core_items_that_exist() {
    let core: Vec<(String, String)> = std::fs::read_dir(root().join("crates/core/src"))
        .expect("crates/core/src")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "rs"))
        .map(|p| {
            let module = p.file_stem().unwrap().to_string_lossy().into_owned();
            (module, std::fs::read_to_string(&p).expect("core source"))
        })
        .collect();

    let design = read("DESIGN.md");
    let index = design
        .split("\n## 4. ")
        .nth(1)
        .and_then(|rest| rest.split("\n## ").next())
        .expect("DESIGN.md has a §4 paper-to-code index");
    for (doc, text) in [
        ("EXPERIMENTS.md", read("EXPERIMENTS.md").as_str()),
        ("DESIGN.md §4", index),
    ] {
        assert!(
            !cited_paths(text).is_empty(),
            "{doc}: the scan found no path at all — it is broken"
        );
        let stale = stale_core_citations(text, &core);
        assert!(stale.is_empty(), "{doc}: {}", stale.join("; "));
    }

    // The check must see a deleted item that is still cited, in each of
    // the three spellings, and must leave other crates' paths alone.
    let planted = "`crystalnet::ValidationLoop` runs `core::workflow::ValidationLoop`, \
                   see `core::nowhere` and `Emulation::no_such_call(x)`; \
                   `Emulation::rehearse`, `crystalnet::run_case1(seed)`, \
                   `core::workflow::RehearsalStep`, `StepResult::at` and \
                   `routing::plane::walk` are fine";
    let stale = stale_core_citations(planted, &core);
    assert_eq!(stale.len(), 4, "{stale:?}");
}
