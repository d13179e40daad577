//! Figure 4: how much non-work-conservation is useful? ("DARC-static")
//!
//! Sweeps the number of cores manually reserved for the short type from
//! 0 to 14 at 95 % load on High Bimodal and Extreme Bimodal, with the
//! c-FCFS slowdown as the reference line.
//!
//! Paper numbers reproduced: the best overall p99.9 slowdown is at
//! 1 reserved core for High Bimodal (a 4.4× improvement over c-FCFS) and
//! 2 cores for Extreme Bimodal (1.5×) — validating what DARC's
//! reservation algorithm picks automatically. 0 reserved cores is plain
//! Fixed Priority (dispersion blocking); too many starve long requests.
//!
//! Run: `cargo run --release -p persephone-bench --bin fig04_static_reservation`

use persephone_bench::{times, BenchOpts, Comparison};
use persephone_core::dispatch::ScheduleEngine;
use persephone_sim::experiment::{run_point_with, SweepConfig};
use persephone_sim::policies::cfcfs::CFcfs;
use persephone_sim::policies::darc::DarcSim;
use persephone_sim::report::{ratio, Table};
use persephone_sim::workload::Workload;

const WORKERS: usize = 14;
const LOAD: f64 = 0.95;
// Bounded queues: the real systems shed load at saturation (paper
// §4.3.3 flow control; Shinjuku drops packets past its ceiling).
const QUEUE_CAP: usize = 4096;

fn main() {
    let opts = BenchOpts::from_args();
    println!("# Figure 4 — DARC-static reservation sweep at 95% load ({WORKERS} workers)");

    let mut csv = Table::new(vec!["workload", "reserved_short", "slowdown_p999"]);
    let mut cmp = Comparison::new();

    for (workload, paper_best, paper_gain) in [
        (Workload::high_bimodal(), 1usize, "4.4x"),
        (Workload::extreme_bimodal(), 2usize, "1.5x"),
    ] {
        let cfg = SweepConfig {
            seed: opts.seed,
            queue_capacity: QUEUE_CAP,
            ..SweepConfig::new(workload.clone(), WORKERS, vec![LOAD], opts.duration(2000))
        };
        // The c-FCFS reference line.
        let mut cf = CFcfs::new(WORKERS).with_capacity(QUEUE_CAP);
        let cf_out = run_point_with(&mut cf, &cfg, LOAD, opts.seed);
        let cf_slow = cf_out.summary.overall_slowdown.p999;
        csv.push(vec![workload.name.clone(), "c-FCFS".into(), ratio(cf_slow)]);

        let mut best = (usize::MAX, f64::INFINITY);
        for reserved in 0..=WORKERS {
            let mut p = DarcSim::fixed(&workload, WORKERS, reserved).with_capacity(QUEUE_CAP);
            let out = run_point_with(&mut p, &cfg, LOAD, opts.seed.wrapping_add(reserved as u64));
            let slow = out.summary.overall_slowdown.p999;
            // Per-type shed fractions from the engine's typed-queue drop
            // counters: a configuration that starves one class can shed
            // most of *that class* while total drops stay tiny (longs are
            // 0.5 % of Extreme Bimodal).
            let drop_frac = (0..workload.num_types())
                .map(|t| {
                    let ty = persephone_core::types::TypeId::new(t as u32);
                    let dropped = p.engine().drops(ty) as f64;
                    let served = out.summary.per_type[t].slowdown.count as f64;
                    if dropped + served > 0.0 {
                        dropped / (dropped + served)
                    } else {
                        0.0
                    }
                })
                .fold(0.0f64, f64::max);
            csv.push(vec![
                workload.name.clone(),
                reserved.to_string(),
                ratio(slow),
            ]);
            println!(
                "  {:<15} reserved={:<2} p99.9 slowdown = {:>10}  drops = {:.2}%",
                workload.name,
                reserved,
                ratio(slow),
                drop_frac * 100.0
            );
            // Configurations that only "win" by shedding load (flow
            // control dropping the starved long class) are not valid
            // operating points; the paper's best is the best *serving*
            // configuration (no class shed by more than 5 %).
            if drop_frac < 0.05 && slow < best.1 {
                best = (reserved, slow);
            }
        }
        cmp.row(
            format!("{}: best reserved-core count", workload.name),
            paper_best.to_string(),
            best.0.to_string(),
            "argmin of p99.9 slowdown",
        );
        cmp.row(
            format!("{}: improvement over c-FCFS", workload.name),
            paper_gain,
            times(cf_slow, best.1),
            format!("c-FCFS = {}", ratio(cf_slow)),
        );
    }
    opts.write_csv("fig04_static_reservation.csv", &csv);
    cmp.print("Figure 4 — paper vs measured");
}
