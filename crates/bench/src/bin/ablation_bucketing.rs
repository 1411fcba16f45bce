//! Regenerates the bucketing on/off ablation.
fn main() {
    print!("{}", sparsetir_bench::experiments::ablation_bucketing::run());
}
