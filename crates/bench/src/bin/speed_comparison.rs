//! Insertion-throughput comparison (the paper's "high speed" claim, §V):
//! million insertions per second for every algorithm on every dataset, at
//! the 50 KB default budget, measured on the live stream replay.
//!
//! This binary gives the end-to-end table across all algorithms and
//! datasets in one shot. LTC's batched and parallel ingest paths are
//! measured by `pipeline_speed`, and its query latency by the repository
//! benchmark (`perfbench/`).

use ltc_bench::{dataset, emit, memory_sweep_kb, sweep_point};
use ltc_common::{MemoryBudget, Weights};
use ltc_eval::algorithms::AlgoSpec;
use ltc_eval::{Oracle, Table};
use ltc_workloads::profiles;

fn main() {
    let kb = memory_sweep_kb(&[50])[0];
    let k = 100;

    for (lineup, weights, names, id) in [
        (
            AlgoSpec::frequent_lineup(),
            Weights::FREQUENT,
            vec!["LTC", "SS", "LC", "MG", "CM", "CU", "Count"],
            "speed_frequent",
        ),
        (
            AlgoSpec::persistent_lineup(),
            Weights::PERSISTENT,
            vec!["LTC", "PIE", "CM+BF", "CU+BF"],
            "speed_persistent",
        ),
        (
            AlgoSpec::significant_lineup(),
            Weights::BALANCED,
            vec!["LTC", "CM-SIG", "CU-SIG"],
            "speed_significant",
        ),
    ] {
        let mut table = Table::new(
            id,
            format!("Insertion throughput (Mops) at {kb} KB"),
            "dataset #",
            names.iter().map(|s| s.to_string()).collect(),
        );
        for (i, spec) in profiles::all().into_iter().enumerate() {
            let stream = dataset(spec);
            let oracle = Oracle::build(&stream);
            let truth = oracle.top_k(k, &weights);
            let point = sweep_point(
                &lineup,
                &stream,
                &oracle,
                &truth,
                MemoryBudget::kilobytes(kb),
                k,
                weights,
                7,
            );
            eprintln!("  (dataset {} = {})", i, spec.name);
            table.push_row(i as f64, point.mops);
        }
        emit(&table);
    }
}
