//! Regenerates the paper's fig17.
fn main() {
    print!("{}", sparsetir_bench::experiments::fig17::run());
}
