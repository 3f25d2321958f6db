//! Regenerates `baseline_tree.json`, the frozen input every workload
//! deploys: the ID3 tree trained on Table I's training split with the
//! default detector configuration.
//!
//! Usage (from the repository root):
//! `cargo run --release --manifest-path e2ebench/Cargo.toml --example freeze_tree > e2ebench/baseline_tree.json`

use insider_bench::train_tree_uncached;
use insider_detect::DetectorConfig;

fn main() {
    let tree = train_tree_uncached(&DetectorConfig::default());
    println!("{}", tree.to_json().expect("tree serializes"));
}
