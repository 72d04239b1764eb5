//! Golden-snapshot helpers shared by the observability suites: the
//! series lister that reads a metrics JSON export back, and the
//! snapshot comparison.

use sonata::obs::json::{parse, JsonValue};
use std::collections::BTreeSet;
use std::path::PathBuf;

/// One `<counter|gauge|histogram> <name{labels}>` line per key of a
/// `MetricsSnapshot::to_json` document, sorted — the *schema* of the
/// export, stable across runs even though the sampled values
/// (timings) are not.
pub fn metric_series(json: &str) -> String {
    let doc = parse(json).expect("valid metrics JSON");
    let mut lines = BTreeSet::new();
    for kind in ["counter", "gauge"] {
        let keys = doc
            .get(&format!("{kind}s"))
            .and_then(JsonValue::as_object)
            .expect("keyed object");
        for key in keys.keys() {
            lines.insert(format!("{kind} {key}"));
        }
    }
    for h in doc
        .get("histograms")
        .and_then(JsonValue::as_array)
        .expect("histogram array")
    {
        let name = h.get("name").and_then(JsonValue::as_str).expect("name");
        lines.insert(format!("histogram {name}"));
    }
    let mut out = lines.into_iter().collect::<Vec<_>>().join("\n");
    out.push('\n');
    out
}

/// Compare `actual` against the committed snapshot `name`, or rewrite
/// the snapshot when `UPDATE_SNAPSHOTS` is set in the environment.
pub fn assert_matches_snapshot(name: &str, actual: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/snapshots")
        .join(name);
    if std::env::var_os("UPDATE_SNAPSHOTS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing snapshot {name} ({e}); regenerate with UPDATE_SNAPSHOTS=1")
    });
    assert_eq!(
        expected.trim(),
        actual.trim(),
        "{name} drifted from the committed snapshot; if the change is \
         intentional, regenerate with UPDATE_SNAPSHOTS=1 and commit"
    );
}
