//! Regenerates the paper's fig14.
fn main() {
    print!("{}", sparsetir_bench::experiments::fig14::run());
}
