//! Qualitative shape assertions for every experiment: the orderings,
//! growth laws, and crossovers the paper's tables and figures exhibit must
//! hold in the reproduction regardless of absolute calibration — plus one
//! golden pinning the deterministic gas reports exactly.

use smacs_bench::{ablation, fig8, fig9, motivation, runtime_tools, table2, table3, table4};
use smacs_token::TokenType;

fn t2_row(rows: &[table2::Row], ttype: TokenType, one_time: bool) -> &table2::Row {
    rows.iter()
        .find(|r| r.ttype == ttype && r.one_time == one_time)
        .expect("row present")
}

#[test]
fn table2_orderings_and_magnitudes() {
    let rows = table2::measure();
    assert_eq!(rows.len(), 6);

    for one_time in [false, true] {
        let sup = t2_row(&rows, TokenType::Super, one_time);
        let method = t2_row(&rows, TokenType::Method, one_time);
        let arg = t2_row(&rows, TokenType::Argument, one_time);
        // Verification cost strictly ordered: argument > method > super.
        assert!(sup.verify < method.verify, "{one_time}");
        assert!(method.verify < arg.verify, "{one_time}");
        // Argument verification ≈ 2–4× the others (paper: ~2.9×).
        let factor = arg.verify as f64 / sup.verify as f64;
        assert!((2.0..4.5).contains(&factor), "factor {factor}");
        // Verification dominates total cost (paper: 56–85%).
        assert!(sup.verify * 2 > sup.total, "verify should be >50% of total");
    }

    // The one-time property adds a roughly constant bitmap surcharge in the
    // paper's 24–32k band and leaves Verify unchanged.
    for ttype in TokenType::ALL {
        let plain = t2_row(&rows, ttype, false);
        let one_time = t2_row(&rows, ttype, true);
        assert_eq!(plain.bitmap, 0);
        assert!(
            (24_000..=32_000).contains(&one_time.bitmap),
            "{ttype}: bitmap {}",
            one_time.bitmap
        );
        assert_eq!(plain.verify, one_time.verify, "{ttype}: verify unchanged");
    }

    // Absolute calibration: within 25% of every paper total.
    for row in &rows {
        let paper = table2::PAPER
            .iter()
            .find(|(t, o, ..)| *t == row.ttype && *o == row.one_time)
            .unwrap()
            .5;
        let ratio = row.total as f64 / paper as f64;
        assert!(
            (0.75..=1.25).contains(&ratio),
            "{}/{}: ratio {ratio}",
            row.ttype,
            row.one_time
        );
    }
}

#[test]
fn table3_linear_growth() {
    let rows = table3::measure();
    assert_eq!(rows.len(), 4);
    let base = &rows[0];
    // Single token: no parse cost, as the paper reports ("–").
    assert_eq!(base.parse, 0);
    for (i, row) in rows.iter().enumerate() {
        let n = i as u64 + 1;
        // Verify and bitmap grow exactly linearly (same work per hop).
        assert_eq!(row.verify, base.verify * n, "verify at depth {n}");
        assert_eq!(row.bitmap, base.bitmap * n, "bitmap at depth {n}");
        // Totals stay within 25% of the paper's row.
        let paper = table3::PAPER[i].5;
        let ratio = row.total as f64 / paper as f64;
        assert!((0.75..=1.25).contains(&ratio), "depth {n}: ratio {ratio}");
    }
    // Parse grows superlinearly (every frame scans the whole array).
    assert!(rows[3].parse > 3 * rows[1].parse);
}

#[test]
fn table4_deployment_cost_linear_in_bitmap() {
    let rows = table4::measure();
    assert_eq!(rows.len(), 3);
    // Storage sizes reproduce the paper's KB column exactly (same formula).
    assert!((rows[0].storage_kb - 15.38).abs() < 0.01);
    assert!((rows[1].storage_kb - 1.54).abs() < 0.01);
    assert!((rows[2].storage_kb - 0.154).abs() < 0.001);
    // Deployment gas scales ~linearly with bits (10× per row).
    let r01 = rows[0].deployment_gas as f64 / rows[1].deployment_gas as f64;
    assert!((8.0..12.0).contains(&r01), "35→3.5 ratio {r01}");
    // Headline magnitude: the 35 tx/s bitmap costs a few dollars, not
    // hundreds (paper: $2.14; ours within 2×).
    let usd = rows[0].usd();
    assert!((1.0..5.0).contains(&usd), "usd {usd}");
}

#[test]
fn fig8_series_ordering_and_linearity() {
    let series = fig8::measure();
    assert_eq!(series.len(), 4);
    let by_label = |label: &str| series.iter().find(|s| s.label == label).unwrap();
    let sup = by_label("Super");
    let method = by_label("Method");
    let arg = by_label("Argument");
    let arg_ot = by_label("Arg. (one-time)");
    for depth in 0..4 {
        // Same vertical ordering as the paper's figure.
        assert!(sup.points[depth].total < method.points[depth].total);
        assert!(method.points[depth].total < arg.points[depth].total);
        assert!(arg.points[depth].total < arg_ot.points[depth].total);
    }
    // Every series grows monotonically and roughly linearly.
    for s in &series {
        let t1 = s.points[0].total as f64;
        let t4 = s.points[3].total as f64;
        assert!((3.2..4.8).contains(&(t4 / t1)), "{}: {t4}/{t1}", s.label);
    }
}

#[test]
fn fig9_throughput_rises_with_batching() {
    // Exponent 3 keeps the test fast; the shape appears by 10^2 already.
    let series = fig9::measure(3);
    assert_eq!(series.len(), 4);
    for s in &series {
        let single = s.points[0].throughput;
        let batched = s.points.last().unwrap().throughput;
        // The paper's curve rises with batching because Node.js needs JIT
        // warm-up; an AOT-compiled TS plateaus immediately. The shape
        // assertion is therefore: batched throughput reaches (at least)
        // the same plateau as a single request, within timing noise.
        assert!(
            batched > single * 0.3,
            "{}: batched {batched} collapsed vs single {single}",
            s.label
        );
        // And the TS must beat Ethereum's peak demand (the paper's point:
        // one instance covers CryptoKitties' 48 tx/s spike).
        assert!(batched > 48.0, "{}: {batched} req/s", s.label);
    }
}

#[test]
fn runtime_tools_process_requests() {
    let hydra = runtime_tools::measure_hydra(10);
    let ecf = runtime_tools::measure_ecf(10);
    assert_eq!(hydra.requests, 10);
    assert_eq!(ecf.requests, 10);
    assert!(hydra.avg_ms > 0.0 && ecf.avg_ms > 0.0);
    // Hydra simulates every request once per head (3 here), ECF once: the
    // per-request work the paper's wall-clock gap reflects, counted by the
    // tools themselves rather than timed.
    assert_eq!(hydra.simulations_per_request, 3.0);
    assert_eq!(ecf.simulations_per_request, 1.0);
}

#[test]
fn motivation_whitelist_costs_what_the_paper_says() {
    // 500 entries suffice to pin the per-entry cost; scale to the anchors.
    let run = motivation::measure_entries(500);
    // Per-entry: base tx (21k) + fresh SSTORE (20k) + dispatch/hash ≈ 42–50k.
    assert!(
        (40_000.0..55_000.0).contains(&run.gas_per_entry),
        "gas/entry {}",
        run.gas_per_entry
    );
    // Extrapolated to the paper's anchors:
    let gas_10k = run.gas_per_entry * 10_000.0;
    // "around $300" (§II-B): holds at a ~3 gwei gas price and $247/ETH —
    // typical quiet-network conditions of the paper's writing period.
    let usd_3_gwei = gas_10k * 3e-9 * 247.0;
    assert!((100.0..1_000.0).contains(&usd_3_gwei), "usd {usd_3_gwei}");
    // Bluzelle's 7473 users cost 9.345 ETH: reproduced at the 40 gwei
    // gas prices of its early-2018 sale, same order of magnitude.
    let eth = run.gas_per_entry * 7_473.0 * 40e-9;
    assert!((5.0..25.0).contains(&eth), "eth {eth}");
}

#[test]
fn ablation_bitmap_beats_naive_tracking() {
    let result = ablation::measure_one_time(64);
    // Storage: the bitmap keeps O(n/256) words + metadata vs one slot per
    // index.
    assert!(result.bitmap_slots < result.naive_slots / 3);
    // Gas: warm bitmap words amortize below the naive per-index SSTORE.
    assert!(result.bitmap_avg_gas < result.naive_avg_gas);
}

#[test]
fn ablation_shield_overhead_matches_table2() {
    let result = ablation::measure_shield_overhead();
    let overhead = result.overhead();
    // The per-call surcharge is Table II's verify cost plus token calldata:
    // within the 100k–135k band.
    assert!(
        (100_000..135_000).contains(&overhead),
        "overhead {overhead}"
    );
}

#[test]
fn ablation_access_control_trade_off_shape() {
    let trade = ablation::measure_access_control_trade();
    // Per call, on-chain membership is cheaper; per update, SMACS is free.
    assert!(trade.onchain_check_gas < trade.smacs_check_gas);
    assert_eq!(trade.smacs_update_gas, 0);
    assert!(trade.onchain_update_gas > 20_000);
}

/// The six gas reports are deterministic, so "the paper's gas tables must
/// not move" is an equality: the concatenation of what `table2`, `table3`,
/// `table4`, `fig8`, `motivation` and `ablation` print with default
/// arguments, in that order. After an intended gas change, regenerate the
/// golden by running those six bins in that order into the file.
#[test]
fn gas_reports_match_golden_byte_for_byte() {
    let (ten_k, bluzelle) = motivation::measure();
    let reports = [
        table2::report(&table2::measure()),
        table3::report(&table3::measure()),
        table4::report(&table4::measure()),
        fig8::report(&fig8::measure()),
        motivation::report(&ten_k, &bluzelle),
        ablation::report(
            &ablation::measure_one_time(200),
            &ablation::measure_shield_overhead(),
            &ablation::measure_access_control_trade(),
        ),
    ]
    .concat();
    assert_eq!(reports, include_str!("paper_reports.golden.txt"));
}
