//! A tour of the scenario subsystem: drive every corpus scenario through
//! the REPL engine.
//!
//! Run with: `cargo run --example scenario_tour`

use smacs_driver::scenario::SCENARIOS;
use smacs_driver::Repl;

fn run(repl: &mut Repl, line: &str) {
    match repl.eval(line) {
        Ok(Some(out)) if !out.is_empty() => println!("smacs> {line}\n{out}"),
        Ok(_) => println!("smacs> {line}"),
        Err(err) => println!("smacs> {line}\nerror: {err}"),
    }
}

fn main() {
    // ---- every scenario loads through the REPL engine -----------------
    for spec in SCENARIOS {
        let mut repl = Repl::new(1);
        run(&mut repl, &format!("scenario {}", spec.name));
    }

    // ---- the AMM story: price bounds + composition --------------------
    println!("\n=== amm: argument-token price bounds ===");
    let mut repl = Repl::new(2);
    run(&mut repl, "scenario amm");
    // A bounded swap is authorized; minOut=0 is blacklisted by the ACR.
    run(&mut repl, "call w0 amm \"swap(uint256,uint256)\" (100, 90)");
    run(&mut repl, "call w0 amm \"swap(uint256,uint256)\" (100, 0)");
}
