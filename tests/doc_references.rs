//! Docs cannot name a target that does not exist: every `--bench <name>`
//! and `-p crystalnet-bench --bin <name>` in the operator-facing docs,
//! the verify skill and the CI workflow is a target `crates/bench`
//! really has, every `--bin paper -- <subcommand>` is a row of the
//! binary's dispatch table, every `BENCH_<x>.json` they mention is a
//! generated file under `target/`, never a tracked file at the repo
//! root, and no `<x>_output.txt` "recorded run" is cited at all.
//!
//! Nor a number the code does not produce: every `measured` value of the
//! `table1`, `fig1`, `fig7` and `table4` claims appears in the
//! EXPERIMENTS.md section that names the subcommand.
//!
//! Nor an item that does not exist: every `crystalnet::<Name>` and
//! `core::<module>::<Name>` cited in backticks in EXPERIMENTS.md, in
//! DESIGN.md's parallel-runtime, observability and fork sections (§3.5,
//! §3.7, §3.10) and in its paper-to-code index (§4) is declared `pub`
//! under `crates/core/src`, and every
//! `<Type>::<member>` there names a member declared `pub` under
//! `crates/core/src` or `crates/telemetry/src` when the type is one of
//! theirs, and a type some crate under `crates/` declares otherwise.

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

#[test]
fn experiments_quotes_what_the_claims_measure() {
    let doc = read("EXPERIMENTS.md");
    let scale = crystalnet_bench::config::Scale::parse(None, None).expect("defaults parse");
    for name in ["table1", "fig1", "fig7", "table4"] {
        // The section runs from the heading above its command to the next.
        let at = doc
            .find(&format!("--bin paper -- {name}`"))
            .unwrap_or_else(|| panic!("EXPERIMENTS.md has no `paper -- {name}` section"));
        let start = doc[..at]
            .rfind("\n## ")
            .expect("a heading above the command");
        let end = doc[at..].find("\n## ").map_or(doc.len(), |len| at + len);
        // Markdown wraps lines anywhere, so compare with spaces collapsed.
        let words = |s: &str| s.split_whitespace().collect::<Vec<_>>().join(" ");
        let section = words(&doc[start..end]);
        let (_, run) = crystalnet_bench::SUBCOMMANDS
            .iter()
            .find(|(n, _)| *n == name)
            .expect("a subcommand");
        for claim in run(&scale).claims {
            assert!(
                section.contains(&words(&claim.measured)),
                "EXPERIMENTS.md's `{name}` section does not quote `{}` ({})",
                claim.measured,
                claim.paper
            );
        }
    }
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

/// Standard-library types whose members the scanned sections cite.
const STD_TYPES: [&str; 1] = ["Arc"];

fn declares_item(src: &str, name: &str) -> bool {
    declares_kind(src, &TYPE_KINDS, name)
        || declares_kind(src, &["fn", "const", "static", "mod"], name)
}

/// A `pub fn` or a `pub` field of that name.
fn declares_member(src: &str, name: &str) -> bool {
    declares(src, "pub fn ", name) || declares(src, &format!("pub {name}"), ":")
}

/// The sources the citation check reads: `core`'s modules by file name
/// (for `core::<module>` paths), the concatenated `core` and `telemetry`
/// sources (for items and members), and everything under `crates/` (for
/// types the other crates declare).
struct Sources {
    core: Vec<(String, String)>,
    core_and_telemetry: String,
    workspace: String,
}

/// Every `.rs` file under `dir`, recursively, as (file stem, source).
fn rust_files(dir: &Path) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            out.extend(rust_files(&path));
        } else if path.extension().is_some_and(|x| x == "rs") {
            let stem = path.file_stem().unwrap().to_string_lossy().into_owned();
            out.push((stem, std::fs::read_to_string(&path).expect("rust source")));
        }
    }
    out
}

fn sources() -> Sources {
    let concat = |files: &[(String, String)]| -> String {
        files.iter().map(|(_, src)| src.as_str()).collect()
    };
    let core = rust_files(&root().join("crates/core/src"));
    let telemetry = rust_files(&root().join("crates/telemetry/src"));
    Sources {
        core_and_telemetry: concat(&core) + &concat(&telemetry),
        core,
        workspace: concat(&rust_files(&root().join("crates"))),
    }
}

/// What `doc` cites that the sources do not declare, one message per
/// stale citation.
fn stale_citations(doc: &str, src: &Sources) -> Vec<String> {
    let ours = src.core_and_telemetry.as_str();
    let lowercase = |s: &str| s.starts_with(|c: char| c.is_ascii_lowercase());
    let mut stale = Vec::new();
    for path in cited_paths(doc) {
        let cited = path.join("::");
        let ok = match path.as_slice() {
            ["core", module, rest @ ..] => match src.core.iter().find(|(name, _)| name == module) {
                None => false,
                Some((_, src)) => rest.first().is_none_or(|item| declares_item(src, item)),
            },
            ["crystalnet", item, rest @ ..] => {
                declares_item(ours, item)
                    && rest.first().is_none_or(|m| {
                        !lowercase(m) || declares_item(ours, m) || declares_member(ours, m)
                    })
            }
            [ty, member, ..] if !lowercase(ty) && lowercase(member) => {
                if declares_kind(ours, &TYPE_KINDS, ty) {
                    declares_member(ours, member)
                } else {
                    STD_TYPES.contains(ty) || declares_kind(&src.workspace, &TYPE_KINDS, ty)
                }
            }
            _ => true,
        };
        if !ok {
            stale.push(format!(
                "`{cited}` is not declared `pub` under crates/core/src or crates/telemetry/src"
            ));
        }
    }
    stale
}

/// The body of the DESIGN.md section whose heading starts `heading`.
fn section<'a>(doc: &'a str, heading: &str) -> &'a str {
    doc.split(heading)
        .nth(1)
        .and_then(|rest| rest.split("\n## ").next())
        .and_then(|rest| rest.split("\n### ").next())
        .unwrap_or_else(|| panic!("DESIGN.md has a `{}` section", heading.trim()))
}

#[test]
fn docs_cite_only_core_items_that_exist() {
    let src = sources();
    let design = read("DESIGN.md");
    for (doc, text) in [
        ("EXPERIMENTS.md", read("EXPERIMENTS.md").as_str()),
        ("DESIGN.md §3.5", section(&design, "\n### 3.5 ")),
        ("DESIGN.md §3.7", section(&design, "\n### 3.7 ")),
        ("DESIGN.md §3.10", section(&design, "\n### 3.10 ")),
        ("DESIGN.md §4", section(&design, "\n## 4. ")),
    ] {
        assert!(
            !cited_paths(text).is_empty(),
            "{doc}: the scan found no path at all — it is broken"
        );
        let stale = stale_citations(text, &src);
        assert!(stale.is_empty(), "{doc}: {}", stale.join("; "));
    }

    // The check must see a deleted item that is still cited, in each of
    // the three spellings and for a deleted member of a telemetry type as
    // for a deleted type or trait, and must leave other crates' items
    // alone.
    let planted = "`crystalnet::ValidationLoop` runs `core::workflow::ValidationLoop`, \
                   see `core::nowhere` and `Emulation::no_such_call(x)`; \
                   `RunReport::scaling`, `ScalingDiagnosis::serial()` and \
                   `Recorder::snapshot` are gone; \
                   `Emulation::rehearse`, `crystalnet::run_case1(seed)`, \
                   `core::workflow::RehearsalStep`, `StepResult::at`, \
                   `RunReport::to_json_full()`, `ControlPlaneSim::run_until_quiet` and \
                   `routing::plane::walk` are fine";
    let stale = stale_citations(planted, &src);
    assert_eq!(stale.len(), 7, "{stale:?}");
}
