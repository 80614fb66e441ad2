//! Shared test comparators for deterministic exports.
//!
//! Determinism suites across the workspace (profile structure, health
//! and incident schemas) all need the same primitive: compare the *key
//! structure* of two JSON exports while letting values differ. This
//! module is compiled into the library (not `#[cfg(test)]`) so
//! downstream crates' integration tests can use it too.

use serde::Value;

/// Renders the key *structure* of a JSON value: object keys recursively,
/// arrays collapsed to `[]`, scalars to `_`. Two exports with the same
/// structure string have identical key sets at every nesting level even
/// when their values (and array lengths) differ — the comparison the
/// profile and scaling sections guarantee across worker counts.
#[must_use]
pub fn json_key_structure(v: &Value) -> String {
    match v {
        Value::Object(fields) => {
            let inner: Vec<String> = fields
                .iter()
                .map(|(k, v)| format!("{k}:{}", json_key_structure(v)))
                .collect();
            format!("{{{}}}", inner.join(","))
        }
        Value::Array(_) => "[]".to_string(),
        _ => "_".to_string(),
    }
}

/// Like [`json_key_structure`] but descends into arrays element-wise, so
/// per-record schemas (e.g. each line of an incident JSONL export) are
/// compared too, not collapsed to `[]`.
#[must_use]
pub fn json_deep_structure(v: &Value) -> String {
    match v {
        Value::Object(fields) => {
            let inner: Vec<String> = fields
                .iter()
                .map(|(k, v)| format!("{k}:{}", json_deep_structure(v)))
                .collect();
            format!("{{{}}}", inner.join(","))
        }
        Value::Array(items) => {
            let inner: Vec<String> = items.iter().map(json_deep_structure).collect();
            format!("[{}]", inner.join(","))
        }
        _ => "_".to_string(),
    }
}

/// Panics with a readable diff when two exports' key structures differ.
///
/// # Panics
///
/// Panics when the structures differ; `what` names the export in the
/// message.
pub fn assert_same_key_structure(what: &str, a: &Value, b: &Value) {
    let sa = json_key_structure(a);
    let sb = json_key_structure(b);
    assert_eq!(sa, sb, "{what}: key structure diverged");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn structure_ignores_values_but_not_keys() {
        let a = Value::Object(vec![
            ("x".to_string(), Value::Uint(1)),
            ("y".to_string(), Value::Array(vec![Value::Uint(2)])),
        ]);
        let b = Value::Object(vec![
            ("x".to_string(), Value::Str("different".to_string())),
            ("y".to_string(), Value::Array(vec![])),
        ]);
        assert_eq!(json_key_structure(&a), json_key_structure(&b));
        assert_same_key_structure("ab", &a, &b);
        let c = Value::Object(vec![("x".to_string(), Value::Uint(1))]);
        assert_ne!(json_key_structure(&a), json_key_structure(&c));
    }

    #[test]
    fn deep_structure_descends_into_arrays() {
        let a = Value::Array(vec![Value::Object(vec![("k".to_string(), Value::Uint(1))])]);
        let b = Value::Array(vec![Value::Object(vec![("k".to_string(), Value::Uint(7))])]);
        let c = Value::Array(vec![Value::Object(vec![(
            "other".to_string(),
            Value::Uint(1),
        )])]);
        assert_eq!(json_deep_structure(&a), json_deep_structure(&b));
        assert_ne!(json_deep_structure(&a), json_deep_structure(&c));
        // The shallow comparator cannot tell these apart.
        assert_eq!(json_key_structure(&a), json_key_structure(&c));
    }
}
