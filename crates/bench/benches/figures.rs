//! Timing wrappers around scaled-down cells of the paper's figure
//! experiments, so regressions in end-to-end simulation cost are caught.
//! Each times the registry's own cell runner on a 4-epoch budget.
//!
//! These measure *simulator throughput*, not the figures themselves — run
//! the `fig*` binaries for the actual reproduction numbers.

use pabst_bench::harness::RunCtx;
use pabst_bench::registry;
use pabst_bench::timing::bench;

fn main() {
    for (name, experiment, index) in [
        ("figures/fig07_stream_stream_pabst_4epochs", "fig07", 2),
        ("figures/fig05_series_4epochs", "fig05", 0),
        ("figures/fig08_run_4epochs", "fig08", 0),
        ("figures/fig09_memcached_pabst_4epochs", "fig09", 2),
    ] {
        let exp = registry::find(experiment).expect("registered experiment");
        let mut p = (exp.grid)(true).swap_remove(index);
        p.epochs = 4;
        bench(name, 1, || {
            std::hint::black_box(exp.run(&p, RunCtx::detached()));
        });
    }
}
