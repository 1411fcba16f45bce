//! Regenerates the paper's table2.
fn main() {
    print!("{}", sparsetir_bench::experiments::table2::run());
}
