//! Regenerates the paper's fig15.
fn main() {
    print!("{}", sparsetir_bench::experiments::fig15::run());
}
