//! Regenerates the paper's fig19.
fn main() {
    print!("{}", sparsetir_bench::experiments::fig19::run());
}
