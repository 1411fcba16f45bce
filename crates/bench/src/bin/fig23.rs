//! Regenerates the paper's fig23.
fn main() {
    print!("{}", sparsetir_bench::experiments::fig23::run());
}
