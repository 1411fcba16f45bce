//! Regenerates the paper's ablation_hfuse.
fn main() {
    print!("{}", sparsetir_bench::experiments::ablation_hfuse::run());
}
