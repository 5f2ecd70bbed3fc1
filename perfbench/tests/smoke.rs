//! The benchmark's own tests: every workload, at tiny size, emits each
//! named metric with its unit and verifies every operation; the same
//! seed yields the same inputs.

use std::path::PathBuf;

use esm_perfbench::fixture::{seed_db, Layout};
use esm_perfbench::harness::{Op, OpMix, OpStream};
use esm_perfbench::report::{result_line, END_TO_END, PER_LAYER};
use esm_perfbench::{run, Config, WORKLOADS};

fn tiny(trace: bool) -> Config {
    Config {
        seed: 11,
        seconds: 0.5,
        trace,
        work_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-smoke"),
        tiny: true,
    }
}

#[test]
fn every_workload_emits_every_metric_and_verifies_every_op() {
    for trace in [false, true] {
        let cfg = tiny(trace);
        std::fs::create_dir_all(&cfg.work_dir).unwrap();
        for workload in WORKLOADS {
            let out = run(workload, &cfg).expect("known workload");
            assert_eq!(out.failed, 0, "{workload}: failed checks");
            assert!(out.attempted > 0, "{workload}: nothing attempted");
            assert_eq!(out.ok_frac(), 1.0, "{workload}");
            let line = result_line(&out, trace);
            assert!(line.starts_with("{\"correct\": true, "), "{line}");
            let names = if trace { PER_LAYER } else { END_TO_END };
            for (name, unit) in names {
                let entry = format!("\"{name}\": {{\"value\": ");
                let at = line
                    .find(&entry)
                    .unwrap_or_else(|| panic!("{workload}: no {name}"));
                let unit_field = format!("\"unit\": \"{unit}\"}}");
                assert!(
                    line[at..]
                        .find(&unit_field)
                        .is_some_and(|u| !line[at..at + u].contains('}')),
                    "{workload}: {name} lacks unit {unit}"
                );
            }
            if !trace {
                for name in ["commit_p10_us", "read_p10_us", "setup_s", "setup_rss_mb"] {
                    assert!(out.end_to_end[name] > 0.0, "{workload}: {name} is zero");
                }
            }
        }
    }
}

#[test]
fn benchmark_json_names_the_emitted_metrics() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json beside the benchmark directory");
    for workload in WORKLOADS {
        assert!(
            json.contains(&format!("\"name\": \"{workload}\"")),
            "{workload}"
        );
    }
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(
            json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
            "BENCHMARK.json lacks {name} ({unit})"
        );
    }
    assert_eq!(
        json.matches("\"unit\": ").count(),
        END_TO_END.len() + PER_LAYER.len(),
        "BENCHMARK.json lists metrics the benchmark does not emit"
    );
}

#[test]
fn same_seed_same_inputs() {
    let mix = OpMix {
        read_permille: 900,
        views: 4,
        key_groups: vec![(0..50).collect(), (50..100).collect()],
        keys_per_write: 2,
    };
    let ops = |seed, stream| {
        OpStream::new(seed, stream, mix.clone())
            .take(5_000)
            .collect::<Vec<Op>>()
    };
    assert_eq!(ops(3, 0), ops(3, 0));
    assert_ne!(ops(3, 0), ops(4, 0), "seed must change the sequence");
    assert_ne!(ops(3, 0), ops(3, 1), "streams must differ");
    assert!(ops(3, 0).iter().any(|op| matches!(op, Op::Write { .. })));
    let layout = Layout {
        rows: 500,
        bands: 10,
    };
    assert_eq!(seed_db(layout, 3), seed_db(layout, 3));
    assert_ne!(seed_db(layout, 3), seed_db(layout, 4));
}
