//! Regenerates the paper's fig16.
fn main() {
    print!("{}", sparsetir_bench::experiments::fig16::run());
}
