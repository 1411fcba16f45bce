//! Regenerates the paper's fig20.
fn main() {
    print!("{}", sparsetir_bench::experiments::fig20::run());
}
