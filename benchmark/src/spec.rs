//! The benchmark's contract as code: metric names, units, directions and
//! bounds. `BENCHMARK.json` at the repository root says the same thing to
//! the acceptance pipeline; a unit test keeps the two identical.

/// Which way a metric improves.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Higher,
    Lower,
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// The workloads `BENCHMARK.json` lists, which the acceptance pipeline
/// runs and gates. `onetime_quorum` is not among them: three sequential
/// fsyncs are the larger part of its op, so it measures the host's disk as
/// much as the program and had the widest ten-run spreads of the five (up
/// to 17 %), and a fifth workload would not fit the pipeline's run budget
/// with any margin. It runs, checks and traces like the others
/// (`--workload onetime_quorum`, `--workload all`, `--smoke`), and its
/// layers are in every trace pass.
pub const GATED: [&str; 4] = [
    "method_token_http",
    "chain_call",
    "block_replay",
    "batch_rules_churn",
];

/// The five gated metrics, reported for every workload.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "goodput_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "closed_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "open_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_us_per_op",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// Every per-layer metric of the `--trace 1` pass, with its unit.
pub const PER_LAYER: [(&str, &str); 54] = [
    ("crypto.sign_us", "us"),
    ("crypto.recover_us", "us"),
    ("crypto.keccak_1k_us", "us"),
    ("primitives.json_issue_decode_us", "us"),
    ("primitives.json_token_encode_us", "us"),
    ("primitives.json_batch64_us", "us"),
    ("primitives.pool_handoff_us", "us"),
    ("token.digest_us", "us"),
    ("token.array_codec_us", "us"),
    ("ts.rules_check_us", "us"),
    ("ts.rules_store_us", "us"),
    ("ts.service_issue_us", "us"),
    ("ts.service_issue_batch64_us", "us"),
    ("ts.front_handle_json_us", "us"),
    ("ts.http_ping_us", "us"),
    ("ts.http_issue_hot_us", "us"),
    ("ts.http_issue_parked_us", "us"),
    ("ts.http_connect_us", "us"),
    ("ts.wal_append_us", "us"),
    ("ts.counter_local_next_us", "us"),
    ("ts.counter_wire_next_us", "us"),
    ("ts.onetime_http_issue_us", "us"),
    ("ts.wal_records_per_token", "count"),
    ("ts.counter_burned_share", "share"),
    ("ts.endpoint_bringup_ms", "ms"),
    ("ts.replicaset_bringup_ms", "ms"),
    ("core.shield_call_method_us", "us"),
    ("core.shield_call_argument_us", "us"),
    ("core.shield_call_onetime_us", "us"),
    ("core.shield_gas_method", "gas"),
    ("core.shield_gas_argument", "gas"),
    ("core.shield_gas_onetime", "gas"),
    ("chain.tx_sign_us", "us"),
    ("chain.tx_sender_cold_us", "us"),
    ("chain.plain_call_us", "us"),
    ("chain.seal_block_us", "us"),
    ("chain.block_seq_us_per_tx", "us"),
    ("chain.block_par_us_per_tx", "us"),
    ("chain.fork_ns", "ns"),
    ("chain.snapshot_revert_ns", "ns"),
    ("driver.closed_p90_us", "us"),
    ("driver.closed_p99_us", "us"),
    ("driver.open_p90_us", "us"),
    ("driver.open_p99_us", "us"),
    ("driver.open_lateness_p50_us", "us"),
    ("driver.open_lateness_p99_us", "us"),
    ("driver.rounds_disturbed", "count"),
    ("driver.unattributed_us", "us"),
    ("host.calib_us", "us"),
    ("host.calib_max_us", "us"),
    ("process.peak_rss_mb", "MB"),
    ("process.threads", "count"),
    ("process.ctx_switches_per_op", "count"),
    ("trace.overhead_share", "share"),
];

#[cfg(test)]
mod tests {
    use super::*;

    /// The value of `key` in a flat JSON object on one line (the repo's own
    /// `Json` has no floats, so it cannot read the bounds).
    fn field<'a>(object: &'a str, key: &str) -> &'a str {
        let start = object
            .find(&format!("\"{key}\":"))
            .unwrap_or_else(|| panic!("{key} missing in {object}"))
            + key.len()
            + 3;
        let rest = object[start..].trim_start();
        let end = if let Some(quoted) = rest.strip_prefix('"') {
            return &quoted[..quoted.find('"').unwrap()];
        } else {
            rest.find([',', '}']).unwrap()
        };
        rest[..end].trim()
    }

    /// The one-line objects of the array called `key`.
    fn objects<'a>(json: &'a str, key: &str) -> Vec<&'a str> {
        let start = json.find(&format!("\"{key}\": [")).expect(key);
        let end = start + json[start..].find("\n  ]").expect("array end");
        json[start..end]
            .lines()
            .skip(1)
            .map(|l| l.trim().trim_end_matches(','))
            .collect()
    }

    #[test]
    fn benchmark_json_says_what_the_code_says() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");

        let workloads = objects(&json, "workloads");
        let names: Vec<&str> = workloads.iter().map(|o| field(o, "name")).collect();
        assert_eq!(names, GATED);
        assert!(GATED.iter().all(|name| crate::workloads::NAMES.contains(name)));

        let gated = objects(&json, "end_to_end");
        assert_eq!(gated.len(), END_TO_END.len());
        for (object, metric) in gated.iter().zip(&END_TO_END) {
            assert_eq!(field(object, "name"), metric.name);
            assert_eq!(field(object, "unit"), metric.unit);
            let better = match metric.better {
                Better::Higher => "higher",
                Better::Lower => "lower",
            };
            assert_eq!(field(object, "better"), better);
            assert_eq!(field(object, "bound").parse::<f64>().unwrap(), metric.bound);
        }

        let layers = objects(&json, "per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (object, (name, unit)) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(field(object, "name"), *name);
            assert_eq!(field(object, "unit"), *unit);
        }
    }
}
