//! Regenerates the paper's fig13.
fn main() {
    print!("{}", sparsetir_bench::experiments::fig13::run());
}
