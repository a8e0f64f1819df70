//! Regenerate Fig. 9. Pass a smaller exponent as `argv[1]` for quick runs
//! (default 5, the paper's 10^5).
fn main() {
    let max_exponent = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(5);
    let series = smacs_bench::fig9::measure(max_exponent);
    print!("{}", smacs_bench::fig9::report(&series));
}
