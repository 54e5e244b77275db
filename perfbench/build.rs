//! Records build-time provenance (compiler version and profile) for the
//! benchmark's result lines, and generates `PER_LAYER` from the
//! `per_layer` list of the repository's `BENCHMARK.json`, so the metric
//! names and units live in one place. The build fails if `layers.json`
//! maps a different list of per-layer metrics.

use std::path::PathBuf;
use std::process::Command;

/// The body of the JSON array under the first `"key":` in `text`.
fn array<'a>(text: &'a str, key: &str, file: &str) -> &'a str {
    let at = text
        .find(&format!("\"{key}\":"))
        .unwrap_or_else(|| panic!("{file} has no {key} list"));
    let rest = &text[at..];
    let open = rest.find('[').expect("list opens");
    let close = rest[open..].find(']').expect("list closes") + open;
    &rest[open + 1..close]
}

/// The string value of `"key"` in a flat JSON object's text.
fn field(object: &str, key: &str) -> Option<String> {
    let at = object.find(&format!("\"{key}\""))? + key.len() + 2;
    let rest = object[at..].trim_start().strip_prefix(':')?.trim_start();
    let rest = rest.strip_prefix('"')?;
    Some(rest[..rest.find('"')?].to_string())
}

/// The flat objects of a JSON array body.
fn objects(body: &str) -> Vec<&str> {
    body.split('}')
        .filter_map(|o| o.split_once('{').map(|(_, o)| o))
        .collect()
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = Command::new(rustc)
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    let profile = std::env::var("PROFILE").unwrap_or_else(|_| "unknown".to_string());
    println!("cargo:rustc-env=PERFBENCH_PROFILE={profile}");
    println!("cargo:rerun-if-changed=build.rs");

    let here = PathBuf::from(std::env::var("CARGO_MANIFEST_DIR").expect("set by cargo"));
    let bench_path = here.join("../BENCHMARK.json");
    let layers_path = here.join("layers.json");
    println!("cargo:rerun-if-changed={}", bench_path.display());
    println!("cargo:rerun-if-changed={}", layers_path.display());
    let bench = std::fs::read_to_string(&bench_path).expect("BENCHMARK.json is readable");
    let layers = std::fs::read_to_string(&layers_path).expect("layers.json is readable");

    let metrics: Vec<(String, String)> = objects(array(&bench, "per_layer", "BENCHMARK.json"))
        .into_iter()
        .map(|o| {
            let name = field(o, "name").expect("per-layer metric has a name");
            let unit = field(o, "unit").unwrap_or_else(|| panic!("{name} has a unit"));
            (name, unit)
        })
        .collect();
    let mapped: Vec<String> = objects(array(&layers, "per_layer", "layers.json"))
        .into_iter()
        .map(|o| field(o, "name").expect("layer map entry has a name"))
        .collect();
    let names: Vec<&String> = metrics.iter().map(|(n, _)| n).collect();
    assert!(
        names == mapped.iter().collect::<Vec<_>>(),
        "layers.json per_layer names {mapped:?} differ from BENCHMARK.json's {names:?}"
    );

    let mut out = String::from("pub const PER_LAYER: &[(&str, &str)] = &[\n");
    for (name, unit) in &metrics {
        out.push_str(&format!("    ({name:?}, {unit:?}),\n"));
    }
    out.push_str("];\n");
    let dest = PathBuf::from(std::env::var("OUT_DIR").expect("set by cargo")).join("per_layer.rs");
    std::fs::write(dest, out).expect("OUT_DIR is writable");
}
