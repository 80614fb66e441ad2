//! Shared `bench_meta` block stamped into every `target/BENCH_*.json`
//! artifact, and the one place those artifacts are written.
//!
//! The block says how far a reader may trust the artifact's wall
//! clocks: a `degraded` run had fewer hardware threads than the bench's
//! maximum worker count, a `hardware_threads` mismatch between two
//! artifacts means their wall clocks came from different machines, and
//! a `schema_version` bump means they have different layouts. Keeping
//! the emitter here — rather than copy-pasted into each bench — is what
//! keeps the artifacts' blocks identical.

/// Version of the `BENCH_*.json` layout. Bump when a row field is
/// renamed or its meaning changes.
pub const SCHEMA_VERSION: u64 = 1;

/// Hardware threads visible to this process (1 when undetectable).
#[must_use]
pub fn hardware_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Renders the shared `bench_meta` JSON object. `workers` is the
/// maximum worker count the bench exercises (1 for single-worker
/// benches); the block is `degraded` when the host cannot give every
/// worker its own hardware thread, which taints wall-clock numbers.
#[must_use]
pub fn bench_meta_json(workers: usize) -> String {
    let hw = hardware_threads();
    format!(
        "{{\"schema_version\": {SCHEMA_VERSION}, \"hardware_threads\": {hw}, \
         \"workers\": {workers}, \"degraded\": {}}}",
        hw < workers
    )
}

/// Writes a bench's JSON artifact to the workspace's `target/`
/// directory — generated results are never tracked in git — and returns
/// the path written.
///
/// # Panics
///
/// Panics when `target/` cannot be created or written.
pub fn write_result(file_name: &str, json: &str) -> std::path::PathBuf {
    let dir = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../target"));
    std::fs::create_dir_all(dir).expect("create target/");
    let path = dir.join(file_name);
    std::fs::write(&path, json).expect("write bench artifact");
    path
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    #[test]
    fn meta_block_parses_and_carries_every_field() {
        let v: Value = serde_json::from_str(&bench_meta_json(1)).expect("valid JSON");
        let Value::Object(entries) = v else {
            panic!("bench_meta must be an object")
        };
        let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["schema_version", "hardware_threads", "workers", "degraded"]
        );
        assert_eq!(entries[0].1, Value::Uint(SCHEMA_VERSION));
        // One worker can always be scheduled: never degraded.
        assert_eq!(entries[3].1, Value::Bool(false));
    }

    #[test]
    fn oversubscription_marks_degraded() {
        let v: Value = serde_json::from_str(&bench_meta_json(usize::MAX)).expect("valid JSON");
        let Value::Object(entries) = v else {
            panic!("bench_meta must be an object")
        };
        assert_eq!(entries[3].0, "degraded");
        assert_eq!(entries[3].1, Value::Bool(true));
    }
}
