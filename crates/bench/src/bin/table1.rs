//! Regenerates the paper's table1.
fn main() {
    print!("{}", sparsetir_bench::experiments::table1::run());
}
