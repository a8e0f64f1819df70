//! Run every paper experiment in sequence. Pass the Fig. 9 batching
//! exponent as `argv[1]` (default 5, the paper's 10^5).
fn main() {
    println!("== Table II ==");
    print!(
        "{}",
        smacs_bench::table2::report(&smacs_bench::table2::measure())
    );
    println!("\n== Table III ==");
    print!(
        "{}",
        smacs_bench::table3::report(&smacs_bench::table3::measure())
    );
    println!("\n== Table IV ==");
    print!(
        "{}",
        smacs_bench::table4::report(&smacs_bench::table4::measure())
    );
    println!("\n== Fig. 8 ==");
    print!(
        "{}",
        smacs_bench::fig8::report(&smacs_bench::fig8::measure())
    );
    println!("\n== Fig. 9 ==");
    let exp = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(5);
    print!(
        "{}",
        smacs_bench::fig9::report(&smacs_bench::fig9::measure(exp))
    );
    println!("\n== Runtime tools (§VI-B b) ==");
    print!(
        "{}",
        smacs_bench::runtime_tools::report(&smacs_bench::runtime_tools::measure())
    );
    println!("\n== Motivation (§II-B / §II-D) ==");
    let (ten_k, bluzelle) = smacs_bench::motivation::measure();
    print!("{}", smacs_bench::motivation::report(&ten_k, &bluzelle));
}
