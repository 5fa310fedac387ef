//! Golden-trace replay: re-record every committed trace live and require it
//! to match the `goldens/*.json` files field-by-field under the tolerance
//! policy of `dtsnn_conformance::trace::tolerance_for`.
//!
//! On drift, the failure message lists every drifting field. If the drift is
//! an intentional numerics change, regenerate the files with
//! `cargo run -p dtsnn-conformance --bin bless` (or `DTSNN_BLESS=1` on this
//! test) and commit them alongside the change.

use dtsnn_conformance::trace::{bless, compare, load_golden, record, TraceSpec};

fn replay(spec: TraceSpec) {
    if std::env::var("DTSNN_BLESS").is_ok_and(|v| v == "1") {
        let path = bless(&spec).expect("bless golden");
        eprintln!("blessed {}", path.display());
        return;
    }
    let golden = load_golden(&spec).expect("load committed golden");
    let live = record(&spec).expect("record live trace");
    let diffs = compare(&golden, &live);
    assert!(
        diffs.is_empty(),
        "golden trace drift for {} ({} fields):\n  {}\n\
         if this change is intentional, regenerate with \
         `cargo run -p dtsnn-conformance --bin bless` and commit goldens/",
        spec.golden_name(),
        diffs.len(),
        diffs.join("\n  ")
    );
}

#[test]
fn vgg_golden_replays_bitwise() {
    replay(TraceSpec::vgg_default());
}

#[test]
fn resnet_golden_replays_bitwise() {
    replay(TraceSpec::resnet_default());
}

#[test]
fn golden_context_records_provenance() {
    for spec in TraceSpec::all_defaults() {
        let golden = load_golden(&spec).expect("load committed golden");
        let context = golden.get("context").expect("context block");
        for key in ["schema_version", "arch", "seed", "theta", "timesteps", "host_cores", "threads"]
        {
            assert!(context.get(key).is_some(), "{}: context missing {key}", spec.golden_name());
        }
    }
}
