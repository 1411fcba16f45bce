//! Regenerates the paper's fig12.
fn main() {
    print!("{}", sparsetir_bench::experiments::fig12::run());
}
